package vfs

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"sleds/internal/cache"
	"sleds/internal/device"
	"sleds/internal/workload"
)

// zeroTwin boots a kernel with readahead and a cache of a few pages under
// policy, on an arena of its own, with one file of size bytes on a disk
// whose bytes come from gen, and returns it with the file open.
func zeroTwin(t *testing.T, policy cache.Policy, gen workload.PageGen, size int64) (*Kernel, *File) {
	t.Helper()
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := NewKernel(Config{PageSize: modelPage, CachePages: 5, Policy: policy, ReadaheadPages: 1, MemDevice: mem})
	k.AttachDevice(mem)
	disk := k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
	if err := k.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Create("/d/f", disk, workload.New(size, modelPage, gen)); err != nil {
		t.Fatal(err)
	}
	f, err := k.Open("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	return k, f
}

// twinResult is what one operation returned: a count, an error, and the
// bytes it delivered, if any.
type twinResult struct {
	n    int64
	err  error
	data []byte
}

// twinOp is one operation, run on each twin in turn.
type twinOp func(k *Kernel, f *File) twinResult

// readOp reads n bytes at off into a buffer pre-filled with 0xEE, so a byte
// the read should have cleared and did not shows.
func readOp(off, n int64, mapped bool) twinOp {
	return func(_ *Kernel, f *File) twinResult {
		buf := bytes.Repeat([]byte{0xEE}, int(n))
		read := f.ReadAt
		if mapped {
			read = f.ReadAtMapped
		}
		got, err := read(buf, off)
		return twinResult{int64(got), err, buf}
	}
}

// writeOp writes p at off.
func writeOp(off int64, p []byte) twinOp {
	return func(_ *Kernel, f *File) twinResult {
		n, err := f.WriteAt(p, off)
		return twinResult{n: int64(n), err: err}
	}
}

// TestZeroPagesMatchBufferedPages: a content-free file's pages are cached
// without a buffer, and only the host's memory may tell. Twin kernels hold
// the same file, content-free in one and generated as zeros in the other,
// which takes the buffered path. Under each policy both take the same ops:
// a page read, partially written, evicted dirty and read back, then seeded
// reads, mapped reads, page-ins, partial, whole-page and past-EOF writes,
// fsyncs, invalidations, prefetches and cache drops. After every op the
// twins agree on the result and the bytes, the clock, RunStats, cache.Stats,
// the recency order and the residency epoch, and at the end on the file's
// content. The content-free twin makes fewer page buffers: one, for the
// write, before the seeded ops (whose writes may fill its cache with
// buffers too), where the buffered twin makes one per frame and more.
func TestZeroPagesMatchBufferedPages(t *testing.T) {
	const size, hot = 24*modelPage + 13, 2
	zeros := func(_ int64, buf []byte) { clear(buf) }
	for _, policy := range []cache.Policy{cache.LRU, cache.Clock, cache.FIFO} {
		t.Run(policy.String(), func(t *testing.T) {
			kz, fz := zeroTwin(t, policy, nil, size)
			kb, fb := zeroTwin(t, policy, zeros, size)
			run := func(what string, op twinOp) twinResult {
				t.Helper()
				z, b := op(kz, fz), op(kb, fb)
				if z.n != b.n || fmt.Sprint(z.err) != fmt.Sprint(b.err) || !bytes.Equal(z.data, b.data) {
					t.Fatalf("%s: content-free %d, %v, %x; buffered %d, %v, %x", what, z.n, z.err, z.data, b.n, b.err, b.data)
				}
				if kz.Clock.Now() != kb.Clock.Now() || kz.RunStats() != kb.RunStats() || kz.Cache().Stats() != kb.Cache().Stats() {
					t.Fatalf("%s: content-free leaves clock %d, %+v, %+v; buffered %d, %+v, %+v", what,
						kz.Clock.Now(), kz.RunStats(), kz.Cache().Stats(), kb.Clock.Now(), kb.RunStats(), kb.Cache().Stats())
				}
				if z, b := kz.Cache().AppendRecencyTrace(nil), kb.Cache().AppendRecencyTrace(nil); !slices.Equal(z, b) {
					t.Fatalf("%s: recency content-free %v, buffered %v", what, z, b)
				}
				if z, b := kz.ResidencyEpoch(fz.Inode()), kb.ResidencyEpoch(fb.Inode()); z != b || fz.Size() != fb.Size() {
					t.Fatalf("%s: content-free epoch %d, size %d; buffered %d, %d", what, z, fz.Size(), b, fb.Size())
				}
				return z
			}
			rng := modelRNG(29)
			payload := func(n int64) []byte {
				p := make([]byte, n)
				for i := range p {
					p[i] = byte(rng.next()%255) + 1
				}
				return p
			}

			run("read the hot page", readOp(hot*modelPage, modelPage, false))
			p := payload(9)
			run("write part of it", writeOp(hot*modelPage+5, p))
			for q := int64(8); q < 16; q++ {
				run(fmt.Sprintf("evict with page %d", q), readOp(q*modelPage, modelPage, false))
			}
			if kz.PageResident(fz.Inode(), hot) || kz.Cache().Stats().DirtyEvictions == 0 {
				t.Fatal("the written zero page was not evicted dirty")
			}
			want := make([]byte, modelPage)
			copy(want[5:], p)
			if got := run("read it back", readOp(hot*modelPage, modelPage, false)); !bytes.Equal(got.data, want) {
				t.Fatalf("the written zero page reads back as %x, want %x", got.data, want)
			}
			made := func() (int, int) {
				z, _, _ := kz.mem.Held()
				b, _, _ := kb.mem.Held()
				return z, b
			}
			if z, b := made(); z >= b {
				t.Fatalf("content-free twin made %d page buffers, buffered twin %d: zero pages took buffers", z, b)
			}

			for i := 0; i < 500; i++ {
				sz := fz.Size()
				off, n := rng.intn(sz+modelPage), 1+rng.intn(3*modelPage)
				page, pages := rng.intn(sz/modelPage+1), 1+rng.intn(4)
				var what string
				var op twinOp
				switch rng.intn(12) {
				case 0, 1:
					what, op = "read", readOp(off, n, false)
				case 2:
					what, op = "mapped read", readOp(off, n, true)
				case 3:
					mapped := rng.intn(2) == 0
					what, op = "page-in", func(_ *Kernel, f *File) twinResult {
						pageIn := f.PageIn
						if mapped {
							pageIn = f.PageInMapped
						}
						got, err := pageIn(off, n)
						return twinResult{n: got, err: err}
					}
				case 4, 5:
					off = rng.intn(sz)
					what, op = "partial write", writeOp(off, payload(1+rng.intn(modelPage-off%modelPage)))
				case 6:
					what, op = "whole-page write", writeOp(page*modelPage, payload((1+rng.intn(2))*modelPage))
				case 7:
					if sz < 40*modelPage {
						what, op = "write past EOF", writeOp(sz+rng.intn(2*modelPage), payload(1+rng.intn(modelPage)))
					}
				case 8:
					what, op = "fsync", func(_ *Kernel, f *File) twinResult { return twinResult{err: f.Sync()} }
				case 9:
					what, op = "invalidate", func(_ *Kernel, f *File) twinResult {
						f.DontNeed(page*modelPage, pages*modelPage)
						return twinResult{}
					}
				case 10:
					what, op = "prefetch", func(_ *Kernel, f *File) twinResult {
						f.WillNeed(page*modelPage, pages*modelPage)
						return twinResult{}
					}
				default:
					if rng.intn(4) == 0 {
						what, op = "drop caches", func(k *Kernel, _ *File) twinResult {
							k.DropCaches()
							return twinResult{}
						}
					}
				}
				if op != nil {
					run(fmt.Sprintf("op %d %s [%d,+%d) pages [%d,+%d)", i, what, off, n, page, pages), op)
				}
			}

			kz.DropCaches()
			kb.DropCaches()
			if !bytes.Equal(fz.Inode().content.ReadAll(), fb.Inode().content.ReadAll()) {
				t.Fatal("the twins' file contents differ after DropCaches")
			}
			if z, b := made(); z > b {
				t.Fatalf("content-free twin made %d page buffers, buffered twin %d", z, b)
			}
		})
	}
}
