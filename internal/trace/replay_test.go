package trace

import (
	"reflect"
	"testing"

	"sleds/internal/core"
	"sleds/internal/device"
	"sleds/internal/iosched"
	"sleds/internal/lmbench"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// replayMachine boots a calibrated kernel with the paper's Table 2 memory
// and disk, mirroring experiments.BootMachine without importing it (that
// package imports this one).
func replayMachine(t testing.TB, cachePages int) (*vfs.Kernel, *core.Table, device.ID) {
	t.Helper()
	mem := device.NewMem(device.Table2MemConfig(0))
	k := vfs.NewKernel(vfs.Config{PageSize: 4096, CachePages: cachePages, MemDevice: mem})
	k.AttachDevice(mem)
	disk := k.AttachDevice(device.NewDisk(device.Table2DiskConfig(1)))
	if err := k.MkdirAll("/data"); err != nil {
		t.Fatal(err)
	}
	tab, err := lmbench.Calibrate(k.Clock, mem, k.Devices.All())
	if err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	return k, tab, disk
}

// runReplay creates the trace's files on the disk, optionally warms a
// region of each, and replays. Returns the replay (for latencies) and the
// engine base.
func runReplay(t *testing.T, k *vfs.Kernel, tab *core.Table, disk device.ID,
	tr *Trace, warmFrom int64, opts Options) (*Replay, *iosched.Engine) {
	t.Helper()
	paths := make([]string, len(tr.Files))
	for i, spec := range tr.Files {
		paths[i] = "/data/t" + string(rune('0'+i))
		c := workload.NewText(uint64(1000+i), spec.Size, 4096)
		if _, err := k.Create(paths[i], disk, c); err != nil {
			t.Fatal(err)
		}
	}
	if warmFrom >= 0 {
		for i, path := range paths {
			f, err := k.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, tr.Files[i].Size-warmFrom)
			if _, err := f.ReadAtMapped(buf, warmFrom); err != nil {
				f.Close()
				t.Fatal(err)
			}
			f.Close()
		}
	}
	k.ResetDeviceState()
	r, err := NewReplay(k, tab, tr, paths, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := iosched.NewEngine(k)
	e.Queue(disk, iosched.NewScheduler("fcfs"))
	tab.SetLoad(e)
	r.AddStreams(e)
	if err := e.Run(); err != nil {
		t.Fatalf("replay run: %v", err)
	}
	return r, e
}

// shareFiles folds a generated trace's streams onto its first n files,
// stream s onto file s mod n, so streams contend for one file's pages.
func shareFiles(tr *Trace, n int) {
	tr.Files = tr.Files[:n]
	for i := range tr.Records {
		tr.Records[i].File %= n
	}
}

func TestBlindReplayDeterministic(t *testing.T) {
	p := DefaultParams(11)
	p.Streams, p.Records, p.FileSize = 2, 16, 256<<10
	tr, err := Generate("oltp", p)
	if err != nil {
		t.Fatal(err)
	}
	shareFiles(tr, 1)
	var lats [2][]simclock.Duration
	for run := range lats {
		k, tab, disk := replayMachine(t, 256)
		r, _ := runReplay(t, k, tab, disk, tr, -1, Options{})
		lats[run] = append([]simclock.Duration(nil), r.Latencies()...)
		if r.IOErrors() != 0 {
			t.Fatalf("run %d saw %d I/O errors on a healthy machine", run, r.IOErrors())
		}
	}
	if !reflect.DeepEqual(lats[0], lats[1]) {
		t.Fatal("two identical blind replays produced different latencies")
	}
	for i, l := range lats[0] {
		if l <= 0 {
			t.Fatalf("record %d has non-positive latency %v", i, l)
		}
	}
}

func TestReplayLatencyIsCompletionMinusArrival(t *testing.T) {
	tr := &Trace{
		Files: []FileSpec{{Size: 64 << 10}},
		Records: []Record{
			{VTime: 5 * simclock.Millisecond, Stream: 0, File: 0, Off: 0, Len: 4096, Op: OpRead},
		},
	}
	k, tab, disk := replayMachine(t, 64)
	r, e := runReplay(t, k, tab, disk, tr, -1, Options{})
	finish := e.FinishTime(0)
	arrival := e.Base() + 5*simclock.Millisecond
	if finish < arrival {
		t.Fatalf("stream finished at %v, before the record's arrival %v", finish, arrival)
	}
	if got, want := r.Latencies()[0], finish-arrival; got != want {
		t.Fatalf("latency %v, want finish-arrival %v", got, want)
	}
}

// TestSLEDGuidedConsumesCachedFirst replays a burst-submitted scan of a
// half-warm file both ways: the blind replay issues front (cold) to back
// (cached), so the cached records complete last; the SLED-guided replay
// issues the cached tail first.
func TestSLEDGuidedConsumesCachedFirst(t *testing.T) {
	const size = 64 * 4096
	p := DefaultParams(2)
	p.Streams, p.Records, p.FileSize, p.RecLen = 1, 16, size, size/16
	tr, err := Generate("olap", p)
	if err != nil {
		t.Fatal(err)
	}
	completion := func(r *Replay) (coldMax, warmMin simclock.Duration) {
		warmMin = 1 << 62
		for i, rec := range tr.Records {
			done := rec.VTime + r.Latencies()[i]
			if rec.Off >= size/2 {
				if done < warmMin {
					warmMin = done
				}
			} else if done > coldMax {
				coldMax = done
			}
		}
		return coldMax, warmMin
	}

	k, tab, disk := replayMachine(t, 256)
	guided, _ := runReplay(t, k, tab, disk, tr, size/2, Options{UseSLEDs: true})
	coldMax, warmMin := completion(guided)
	if warmMin >= coldMax {
		t.Fatalf("SLED-guided replay: first cached completion %v not before last cold completion %v", warmMin, coldMax)
	}

	k, tab, disk = replayMachine(t, 256)
	blind, _ := runReplay(t, k, tab, disk, tr, size/2, Options{})
	coldMax, warmMin = completion(blind)
	if warmMin <= coldMax {
		t.Fatalf("blind replay: cached tail at %v completed before the cold front at %v", warmMin, coldMax)
	}
}

func TestNewReplayErrors(t *testing.T) {
	k, tab, disk := replayMachine(t, 64)
	tr := &Trace{
		Files: []FileSpec{{Size: 64 << 10}},
		Records: []Record{
			{VTime: 0, Stream: 0, File: 0, Off: 0, Len: 4096, Op: OpRead},
		},
	}
	if _, err := k.Create("/data/small", disk, workload.NewText(1, 4096, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Create("/data/big", disk, workload.NewText(2, 64<<10, 4096)); err != nil {
		t.Fatal(err)
	}

	if _, err := NewReplay(k, tab, tr, nil, Options{}); err == nil {
		t.Fatal("path-count mismatch accepted")
	}
	if _, err := NewReplay(k, tab, tr, []string{"/data/missing"}, Options{}); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := NewReplay(k, tab, tr, []string{"/data/small"}, Options{}); err == nil {
		t.Fatal("file smaller than its FileSpec accepted")
	}
	if _, err := NewReplay(k, nil, tr, []string{"/data/big"}, Options{UseSLEDs: true}); err == nil {
		t.Fatal("SLED-guided replay without a table accepted")
	}
	bad := &Trace{Files: tr.Files, Records: []Record{{Len: 0}}}
	if _, err := NewReplay(k, tab, bad, []string{"/data/big"}, Options{}); err == nil {
		t.Fatal("invalid trace accepted")
	}
	if _, err := NewReplay(k, tab, tr, []string{"/data/big"}, Options{BatchWindow: -simclock.Millisecond}); err == nil {
		t.Fatal("negative batch window accepted")
	}
}
