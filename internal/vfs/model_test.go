package vfs

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"sleds/internal/cache"
	"sleds/internal/device"
	"sleds/internal/workload"
)

// Model check of the page-fill path with recycled buffers: seeded random
// reads, writes, syncs, invalidations and removals over two files with
// generated (non-zero) content and one content-free file, whose pages the
// cache holds without a buffer until they are written, and a cache of a few
// pages, every byte the kernel returns compared with a flat byte-slice
// model. A buffer reused while something still referenced it, or handed out
// dirty where zeros were due, shows up as a byte mismatch.

const modelPage = 64

// modelRNG is splitmix64: the test's own deterministic op stream.
type modelRNG uint64

func (r *modelRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *modelRNG) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// modelFile pairs an open file with the bytes it must hold.
type modelFile struct {
	path  string
	f     *File
	model []byte
}

type modelWorld struct {
	t     *testing.T
	k     *Kernel
	disk  device.ID
	files [3]*modelFile // the last is content-free
	rng   modelRNG
	gens  int // files created so far: each gets content of its own
}

// patternGen generates non-zero bytes that differ by generation, page and
// position, so a page served from the wrong buffer cannot pass.
func patternGen(gen int) workload.PageGen {
	return func(page int64, buf []byte) {
		for i := range buf {
			buf[i] = 1 + byte((int64(gen)*131+page*31+int64(i)*7)%255)
		}
	}
}

// create makes (or re-makes) file i with fresh generated content, or none
// for the last file.
func (w *modelWorld) create(i int, size int64) {
	w.t.Helper()
	w.gens++
	gen := patternGen(w.gens)
	if i == len(w.files)-1 {
		gen = nil
	}
	c := workload.New(size, modelPage, gen)
	mf := &modelFile{path: fmt.Sprintf("/d/f%d", i), model: c.ReadAll()}
	if _, err := w.k.Create(mf.path, w.disk, c); err != nil {
		w.t.Fatal(err)
	}
	var err error
	if mf.f, err = w.k.Open(mf.path); err != nil {
		w.t.Fatal(err)
	}
	w.files[i] = mf
}

// checkRead reads [off, off+n) of mf through the kernel and compares it,
// byte count and EOF included, with the model.
func (w *modelWorld) checkRead(what string, mf *modelFile, off, n int64) {
	w.t.Helper()
	buf := bytes.Repeat([]byte{0xEE}, int(n))
	got, err := mf.f.ReadAt(buf, off)
	size := int64(len(mf.model))
	want := n
	if off >= size {
		want = 0
	} else if off+n > size {
		want = size - off
	}
	wantErr := error(nil)
	if want < n {
		wantErr = io.EOF
	}
	if int64(got) != want || err != wantErr {
		w.t.Fatalf("%s: ReadAt(%s, off %d, len %d) = %d, %v; want %d, %v", what, mf.path, off, n, got, err, want, wantErr)
	}
	for i := int64(0); i < want; i++ {
		if buf[i] != mf.model[off+i] {
			w.t.Fatalf("%s: %s byte %d (page %d) = %#x, model %#x", what, mf.path, off+i, (off+i)/modelPage, buf[i], mf.model[off+i])
		}
	}
}

// write applies p at off to the kernel and to the model (gap zero-filled).
func (w *modelWorld) write(mf *modelFile, off int64, p []byte) {
	w.t.Helper()
	if n, err := mf.f.WriteAt(p, off); err != nil || n != len(p) {
		w.t.Fatalf("WriteAt(%s, off %d, len %d) = %d, %v", mf.path, off, len(p), n, err)
	}
	if end := off + int64(len(p)); end > int64(len(mf.model)) {
		mf.model = append(mf.model, make([]byte, end-int64(len(mf.model)))...)
	}
	copy(mf.model[off:], p)
}

// payload is n bytes that are never zero, so a stale or missing byte
// cannot pass for a gap.
func (w *modelWorld) payload(n int64) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(w.rng.next()%255) + 1
	}
	return p
}

// bufferedPages counts the resident pages that hold a buffer. The cache
// has no way to read a page without touching its recency, so this reads
// its frame arena, whose slot 0 is the list sentinel and whose free slots
// hold no data.
func bufferedPages(c *cache.Cache) int {
	frames, n := reflect.ValueOf(c).Elem().FieldByName("frames"), 0
	for i := 1; i < frames.Len(); i++ {
		if !frames.Index(i).FieldByName("data").IsNil() {
			n++
		}
	}
	return n
}

// runModel runs one trial: the trial number picks the cache size and the
// whole op stream. The kernel boots on hm (nil: an arena of its own). With
// keep >= 0 a ballast file first leases all of the generated-page store but
// keep pages, so the model's files straddle the boundary between pages the
// store holds and pages generated on every miss. It reports how many ops
// ended with a resident page that held no buffer.
func runModel(t *testing.T, policy cache.Policy, trial uint64, ops int, hm *HostMem, keep int64) (unbuffered int) {
	mem := device.NewMem(device.DefaultMemConfig(0))
	w := &modelWorld{t: t, rng: modelRNG(trial)}
	cachePages := 3 + int(w.rng.intn(6))
	w.k = NewKernel(Config{PageSize: modelPage, CachePages: cachePages, Policy: policy, MemDevice: mem, HostMem: hm})
	w.k.AttachDevice(mem)
	w.disk = w.k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
	if err := w.k.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	mostBufs := max(cachePages+1, len(w.k.mem.bufs)) // a reused arena comes with what earlier trials made
	if keep >= 0 {
		ballast := workload.New(workload.StoreBudget-keep*modelPage, modelPage, patternGen(0))
		if _, err := w.k.Create("/d/ballast", w.disk, ballast); err != nil {
			t.Fatal(err)
		}
		ballast.ReadPage(0, make([]byte, modelPage)) // the first read takes the lease
	}
	w.create(0, 9*modelPage+17)
	w.create(1, 6*modelPage)
	w.create(2, 7*modelPage+40)

	for op := 0; op < ops; op++ {
		mf := w.files[w.rng.intn(int64(len(w.files)))]
		size := int64(len(mf.model))
		what := fmt.Sprintf("policy %s trial %d cache %d op %d", policy, trial, cachePages, op)
		switch kind := w.rng.intn(16); {
		case kind < 5: // read anywhere, up to three pages, possibly across EOF
			w.checkRead(what, mf, w.rng.intn(size+modelPage), 1+w.rng.intn(3*modelPage))
		case kind < 8: // partial-page overwrite inside the file
			off := w.rng.intn(size)
			n := 1 + w.rng.intn(modelPage-off%modelPage)
			if off+n > size {
				n = size - off
			}
			w.write(mf, off, w.payload(n))
		case kind < 10: // whole pages, aligned, possibly extending the file
			w.write(mf, w.rng.intn(size/modelPage+1)*modelPage, w.payload((1+w.rng.intn(2))*modelPage))
		case kind < 12: // at or past EOF; a gap must read as zeros
			if size < 24*modelPage {
				w.write(mf, size+max(w.rng.intn(3*modelPage)-modelPage, 0), w.payload(1+w.rng.intn(modelPage+modelPage/2)))
			}
		case kind < 13:
			if err := mf.f.Sync(); err != nil {
				t.Fatalf("%s: Sync: %v", what, err)
			}
		case kind < 15: // drop a page range, dirty pages written back first
			mf.f.DontNeed(w.rng.intn(size/modelPage+1)*modelPage, (1+w.rng.intn(4))*modelPage)
		default: // truncate to nothing and start over: dirty pages are discarded
			if w.rng.intn(4) == 0 {
				i := int(w.rng.intn(int64(len(w.files))))
				if err := w.files[i].f.Close(); err != nil {
					t.Fatal(err)
				}
				if err := w.k.Remove(w.files[i].path); err != nil {
					t.Fatal(err)
				}
				w.create(i, (2+w.rng.intn(8))*modelPage+w.rng.intn(modelPage))
			}
		}
		// Between ops nothing is in flight: every buffer the arena made is
		// held by a resident page or on the free list, and it never made more
		// than the cache's frames plus the one page on its way in.
		res, buffered, free, made := w.k.cache.Len(), bufferedPages(w.k.cache), len(w.k.mem.free), len(w.k.mem.bufs)
		if res > cachePages || made > mostBufs || buffered+free != made {
			t.Fatalf("%s: %d resident pages, %d of them with a buffer, + %d free buffers, %d made, cache of %d", what, res, buffered, free, made, cachePages)
		}
		if buffered < res {
			unbuffered++
		}
		// Spot-check both files after every op; the whole-file comparison
		// runs only now and then, because it flushes every dirty page out
		// of a cache this small and the next op would always start clean.
		for _, mf := range w.files {
			size := int64(len(mf.model))
			if op%25 == 24 || op == ops-1 {
				w.checkRead(what+" (whole file)", mf, 0, size+1)
			} else {
				w.checkRead(what+" (spot)", mf, w.rng.intn(size), 1+w.rng.intn(modelPage))
			}
			if mf.f.Size() != size {
				t.Fatalf("%s: %s size %d, model %d", what, mf.path, mf.f.Size(), size)
			}
		}
	}

	// What reached the devices' content must be the model too.
	w.k.DropCaches()
	for _, mf := range w.files {
		if got := mf.f.Inode().content.ReadAll(); !bytes.Equal(got[:len(mf.model)], mf.model) {
			t.Fatalf("policy %s trial %d: %s content after DropCaches differs from the model", policy, trial, mf.path)
		}
	}
	return unbuffered
}

func TestRecycledBuffersModel(t *testing.T) {
	for _, policy := range []cache.Policy{cache.LRU, cache.FIFO, cache.Clock} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			unbuffered := 0
			for trial := uint64(1); trial <= 40; trial++ {
				unbuffered += runModel(t, policy, trial, 300, nil, -1)
			}
			if unbuffered == 0 {
				t.Fatal("no op ended with a zero page resident without a buffer")
			}
		})
	}
}

// TestStoreBoundaryModel is the same model with three pages of store left
// to the files, on one arena Reset between trials: file 0 keeps its first
// three pages and generates the rest, whatever is created later keeps
// nothing, and every trial starts on buffers and slots the trial before
// left dirty.
func TestStoreBoundaryModel(t *testing.T) {
	hm := new(HostMem)
	for trial := uint64(1); trial <= 40; trial++ {
		hm.Reset()
		runModel(t, cache.LRU, trial, 300, hm, 3)
	}
	if _, _, store := hm.Held(); store != workload.StoreBudget {
		t.Fatalf("store holds %d bytes after the ballast leased all but three pages, want the %d-byte budget", store, workload.StoreBudget)
	}
}
