package vfs

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"sleds/internal/device"
	"sleds/internal/faults"
	"sleds/internal/workload"
)

// pageInTwin boots a kernel with readahead, a cache of a few pages and a
// file whose bytes come from gen on a disk — behind a fault injector whose
// episodes can outlast the kernel's five attempts when faulty — and returns
// it with the file open.
func pageInTwin(t *testing.T, faulty bool, gen workload.PageGen, size int64) (*Kernel, *File) {
	t.Helper()
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := NewKernel(Config{PageSize: modelPage, CachePages: 12, ReadaheadPages: 2, MemDevice: mem})
	k.AttachDevice(mem)
	disk := k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
	if faulty {
		wrapped, _ := faults.Wrap(k.Devices.Get(disk), faults.Config{Seed: 3, PFault: 0.3, MaxConsecutive: 6})
		k.Devices.Replace(disk, wrapped)
	}
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

// TestPageInMatchesRead: PageIn is ReadAt, and PageInMapped ReadAtMapped,
// without the bytes. Twin kernels take the same seeded requests — random
// and unaligned, across EOF, past it, of zero length, on a closed file and
// at a negative offset — one kernel reading, the other paging in, on a
// healthy disk and on one whose faults the retry policy sometimes gives up
// on, over a generated file and a content-free one, whose pages the cache
// holds without a buffer. After every request the twins agree on the count
// and the error, the clock, RunStats, cache.Stats and the cache's recency
// order.
func TestPageInMatchesRead(t *testing.T) {
	const size = 40*modelPage + 21
	for _, tc := range []struct {
		name   string
		faulty bool
		gen    workload.PageGen
	}{
		{"faulty=false", false, patternGen(1)},
		{"faulty=true", true, patternGen(1)},
		{"content-free", false, nil},
		{"content-free,faulty", true, nil},
	} {
		faulty := tc.faulty
		t.Run(tc.name, func(t *testing.T) {
			kr, fr := pageInTwin(t, faulty, tc.gen, size)
			kp, fp := pageInTwin(t, faulty, tc.gen, size)
			same := func(what string, n int, err error, pn int64, perr error) {
				t.Helper()
				if int64(n) != pn || fmt.Sprint(err) != fmt.Sprint(perr) || errors.Is(err, ErrIO) != errors.Is(perr, ErrIO) {
					t.Fatalf("%s: read %d, %v; page-in %d, %v", what, n, err, pn, perr)
				}
				if kr.Clock.Now() != kp.Clock.Now() || kr.RunStats() != kp.RunStats() || kr.Cache().Stats() != kp.Cache().Stats() {
					t.Fatalf("%s: read leaves clock %d, %+v, %+v; page-in %d, %+v, %+v", what,
						kr.Clock.Now(), kr.RunStats(), kr.Cache().Stats(), kp.Clock.Now(), kp.RunStats(), kp.Cache().Stats())
				}
				if r, p := kr.Cache().AppendRecencyTrace(nil), kp.Cache().AppendRecencyTrace(nil); !slices.Equal(r, p) {
					t.Fatalf("%s: recency after read %v, after page-in %v", what, r, p)
				}
			}
			rng := modelRNG(11)
			for i := 0; i < 600; i++ {
				var off, n int64
				switch rng.intn(5) {
				case 0: // unaligned, anywhere
					off, n = rng.intn(size), 1+rng.intn(6*modelPage)
				case 1: // across EOF
					off, n = size-1-rng.intn(3*modelPage), 4*modelPage
				case 2: // at or past EOF
					off, n = size+rng.intn(modelPage), 1+rng.intn(modelPage)
				case 3: // zero-length
					off = rng.intn(size + 1)
				case 4: // whole pages
					off, n = rng.intn(size/modelPage)*modelPage, modelPage*(1+rng.intn(3))
				}
				what := fmt.Sprintf("request %d [%d,+%d)", i, off, n)
				if rng.intn(2) == 0 {
					n1, err := fr.ReadAt(make([]byte, n), off)
					pn, perr := fp.PageIn(off, n)
					same(what, n1, err, pn, perr)
				} else {
					n1, err := fr.ReadAtMapped(make([]byte, n), off)
					pn, perr := fp.PageInMapped(off, n)
					same(what+" mapped", n1, err, pn, perr)
				}
				if rng.intn(50) == 0 {
					kr.DropCaches()
					kp.DropCaches()
				}
			}
			if faulty && kr.RunStats().EIOs == 0 {
				t.Fatal("no request ran out of retries: the faulty twins test nothing the healthy ones do not")
			}
			n, err := fr.ReadAt(make([]byte, modelPage), -1)
			pn, perr := fp.PageIn(-1, modelPage)
			same("negative offset", n, err, pn, perr)
			n, err = fr.ReadAtMapped(make([]byte, modelPage), -1)
			pn, perr = fp.PageInMapped(-1, modelPage)
			same("negative offset mapped", n, err, pn, perr)
			fr.Close()
			fp.Close()
			n, err = fr.ReadAt(make([]byte, modelPage), 0)
			pn, perr = fp.PageIn(0, modelPage)
			same("closed file", n, err, pn, perr)
			n, err = fr.ReadAtMapped(make([]byte, modelPage), 0)
			pn, perr = fp.PageInMapped(0, modelPage)
			same("closed file mapped", n, err, pn, perr)
		})
	}
}

// TestPageInNegativeLength: a length no read buffer can have is an error,
// and charges nothing.
func TestPageInNegativeLength(t *testing.T) {
	k, f := pageInTwin(t, false, patternGen(1), 4*modelPage)
	for _, pageIn := range []func(*File, int64, int64) (int64, error){(*File).PageIn, (*File).PageInMapped} {
		if n, err := pageIn(f, 0, -1); err == nil || n != 0 {
			t.Errorf("page-in of -1 bytes = %d, %v; want an error", n, err)
		}
	}
	if k.Clock.Now() != 0 || k.RunStats() != (RunStats{}) || k.Cache().Len() != 0 {
		t.Errorf("refused page-ins charged %d, %+v, %d pages", k.Clock.Now(), k.RunStats(), k.Cache().Len())
	}
}
