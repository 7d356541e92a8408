package grepapp

import (
	"fmt"
	"testing"

	"sleds/internal/apps/appenv"
	"sleds/internal/apps/apptest"
	"sleds/internal/iosched"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
)

// Differential tests of the one grep machine under its two drivers: Run
// (every read completes in place) and an iosched.Engine over a queued disk
// (every device read suspends the stream). Application code, not raw
// device reads, under the scheduler.

const (
	scanFiles     = 4
	scanFilePages = 16
)

// scanWorld boots a machine holding scanFiles planted text files on the
// disk, each with its tail half cache-warm — so a SLEDs scan sees two SLEDs
// per file and reads the tail first. Matches are planted mid-chunk and
// straddling a chunk boundary in the cold head, the cold/warm SLED
// boundary, and a chunk boundary in the warm tail (chunks are one page).
// Two worlds built by this function are identical.
func scanWorld(t *testing.T) (*apptest.Machine, []string) {
	t.Helper()
	const ps = apptest.PageSize
	m := apptest.New(t, scanFiles*scanFilePages/2)
	size := int64(scanFilePages * ps)
	var paths []string
	for i := 0; i < scanFiles; i++ {
		// One text, but the mid-chunk plant moves with the file, so no two
		// files have the same matches.
		path := fmt.Sprintf("/data/f%d", i)
		plantedFile(t, m, path, 40, size,
			3*ps-32, 5*ps+1000+int64(i)*128, size/2-32, 12*ps-32)
		paths = append(paths, path)
	}
	tail := make([]byte, size/2)
	for _, path := range paths {
		f, err := m.K.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.ReadAtMapped(tail, size/2); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	m.K.ResetDeviceState()
	m.K.ResetRunStats()
	return m, paths
}

func scanEnv(m *apptest.Machine, useSLEDs bool) *appenv.Env {
	env := m.Env(useSLEDs)
	env.BufSize = apptest.PageSize
	return env
}

func TestScanSameUnderRunAndEngine(t *testing.T) {
	for _, useSLEDs := range []bool{false, true} {
		for _, opts := range []Options{{}, {FirstOnly: true}, {LineNumbers: true}} {
			t.Run(fmt.Sprintf("sleds=%v/%+v", useSLEDs, opts), func(t *testing.T) {
				// The reference: Run on an unqueued world, a fresh one per
				// file so each scan starts from the same cache state its
				// engine twin does.
				want := make([][]Match, scanFiles)
				var wantStats vfs.RunStats
				var wantNow simclock.Duration
				for i := range want {
					m, paths := scanWorld(t)
					got, err := Run(scanEnv(m, useSLEDs), paths[i], needle, opts)
					if err != nil {
						t.Fatal(err)
					}
					switch {
					case opts.FirstOnly && len(got) != 1:
						t.Fatalf("file %d: -q found %d matches, want 1", i, len(got))
					case !opts.FirstOnly && len(got) != 4:
						t.Fatalf("file %d: found %d matches, want the 4 planted", i, len(got))
					}
					want[i] = got
					if i == 0 {
						wantStats, wantNow = m.K.RunStats(), m.K.Clock.Now()
					}
				}

				// One stream over a queued disk: the same matches, and — with
				// nobody to queue behind — the same virtual time and counters.
				m, paths := scanWorld(t)
				e := iosched.NewEngine(m.K)
				e.Queue(m.Disk, iosched.NewFCFS())
				m.Table.SetLoad(e)
				lone := NewScan(scanEnv(m, useSLEDs), paths[0], needle, opts)
				e.AddStream(0, lone)
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
				if !sameMatches(lone.Matches(), want[0]) {
					t.Fatalf("single stream: got %+v, want %+v", lone.Matches(), want[0])
				}
				if got := m.K.Clock.Now(); got != wantNow {
					t.Fatalf("single queued stream finished at %v, Run on the unqueued twin at %v", got, wantNow)
				}
				if got := m.K.RunStats(); got != wantStats {
					t.Fatalf("single queued stream stats %+v, Run on the unqueued twin %+v", got, wantStats)
				}

				// Four streams sharing the disk: contention reorders and
				// delays the reads, never what any scan finds.
				m, paths = scanWorld(t)
				e = iosched.NewEngine(m.K)
				e.Queue(m.Disk, iosched.NewSSTF())
				m.Table.SetLoad(e)
				env := scanEnv(m, useSLEDs)
				scans := make([]*Scan, scanFiles)
				for i, path := range paths {
					scans[i] = NewScan(env, path, needle, opts)
					e.AddStream(0, scans[i])
				}
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
				for i, s := range scans {
					if !sameMatches(s.Matches(), want[i]) {
						t.Fatalf("stream %d of %d: got %+v, want %+v", i, scanFiles, s.Matches(), want[i])
					}
				}
				if shared := e.FinishTime(0); !opts.FirstOnly && shared <= wantNow {
					t.Fatalf("stream 0 among %d finished at %v, no later than alone (%v): the disk was not shared", scanFiles, shared, wantNow)
				}
			})
		}
	}
}
