package vfs

import (
	"testing"

	"sleds/internal/workload"
)

// BenchmarkReadMissStep reads cold pages one at a time through ReadAtStep,
// over a file far larger than the cache: every op is a miss that evicts a
// clean page, the steady state of a scan. allocs/op is the per-miss cost
// of the step layer, the cache and the page buffer together, and is what
// bench-compare gates.
func BenchmarkReadMissStep(b *testing.B) {
	const filePages = 1 << 16
	k, disk, _, _ := testMachine(b, 512)
	if _, err := k.Create("/data/cold", disk, workload.New(filePages*testPage, testPage, nil)); err != nil {
		b.Fatal(err)
	}
	f, err := k.Open("/data/cold")
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, testPage)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := f.ReadAtStep(buf, int64(i%filePages)*testPage)
		if s.Blocked() || s.Err() != nil {
			b.Fatalf("read of page %d: blocked=%v err=%v", i%filePages, s.Blocked(), s.Err())
		}
	}
}

// BenchmarkWarm is a cache warm-up: 256 cold pages of a content-free file
// made resident by one request, through ReadAt into a buffer (read) or
// through PageIn (pagein). Both charge the same; the difference is the
// host copy PageIn skips.
func BenchmarkWarm(b *testing.B) {
	const filePages, warmPages = 1 << 16, 256
	for _, mode := range []string{"read", "pagein"} {
		b.Run(mode, func(b *testing.B) {
			k, disk, _, _ := testMachine(b, 512)
			if _, err := k.Create("/data/cold", disk, workload.New(filePages*testPage, testPage, nil)); err != nil {
				b.Fatal(err)
			}
			f, err := k.Open("/data/cold")
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, warmPages*testPage)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := int64(i*warmPages%filePages) * testPage
				if mode == "read" {
					_, err = f.ReadAt(buf, off)
				} else {
					_, err = f.PageIn(off, int64(len(buf)))
				}
				if err != nil {
					b.Fatalf("warm-up at %d: %v", off, err)
				}
			}
		})
	}
}
