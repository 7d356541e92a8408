package cache

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// refCache is the reference FuzzCacheOps checks Cache against: resident
// pages in a map, recency as a slice (front = most recent), and the three
// policies written out the obvious way. Epochs count splices per file. A
// page's data is one byte, or -1 for nil data.
type refCache struct {
	capacity int
	policy   Policy
	order    []Key
	pages    map[Key]*refPage
	epochs   map[uint64]uint64
	log      []string // EvictFn and drop calls, in order
	stats    Stats
}

type refPage struct {
	data       int
	dirty, ref bool
}

// dataOf is the reference's view of page data: its one byte, or -1 for nil.
func dataOf(data []byte) int {
	if data == nil {
		return -1
	}
	return int(data[0])
}

func newRefCache(capacity int, policy Policy) *refCache {
	return &refCache{capacity: capacity, policy: policy, pages: map[Key]*refPage{}, epochs: map[uint64]uint64{}}
}

func (r *refCache) toFront(k Key) {
	i := slices.Index(r.order, k)
	r.order = slices.Insert(slices.Delete(r.order, i, i+1), 0, k)
}

func (r *refCache) get(k Key) (int, bool) {
	p, ok := r.pages[k]
	if !ok {
		return 0, false
	}
	switch r.policy {
	case LRU:
		r.toFront(k)
	case Clock:
		p.ref = true
	}
	r.stats.Hits++
	return p.data, true
}

func (r *refCache) insert(k Key, data int, dirty bool) error {
	if k.Page < 0 {
		return fmt.Errorf("negative page")
	}
	if p, ok := r.pages[k]; ok {
		p.data, p.dirty = data, p.dirty || dirty
		switch r.policy {
		case LRU:
			r.toFront(k)
		case Clock:
			p.ref = true
		}
		return nil
	}
	for len(r.order) >= r.capacity {
		if err := r.evictOne(); err != nil {
			return err
		}
	}
	r.pages[k] = &refPage{data: data, dirty: dirty}
	r.order = slices.Insert(r.order, 0, k)
	r.epochs[k.File]++
	r.stats.Inserts++
	return nil
}

func (r *refCache) evictOne() error {
	if len(r.order) == 0 {
		return fmt.Errorf("empty")
	}
	back := r.order[len(r.order)-1]
	if r.policy == Clock {
		for r.pages[back].ref {
			r.pages[back].ref = false
			r.toFront(back)
			back = r.order[len(r.order)-1]
		}
	}
	r.evict(back)
	return nil
}

// remove takes k out and returns what it held.
func (r *refCache) remove(k Key) *refPage {
	p := r.pages[k]
	delete(r.pages, k)
	i := slices.Index(r.order, k)
	r.order = slices.Delete(r.order, i, i+1)
	r.epochs[k.File]++
	return p
}

func (r *refCache) evict(k Key) {
	p := r.remove(k)
	r.stats.Evictions++
	if p.dirty {
		r.stats.DirtyEvictions++
	}
	r.log = append(r.log, fmt.Sprintf("evict %v %d %v", k, p.data, p.dirty))
}

func (r *refCache) invalidate(k Key) {
	if p, ok := r.pages[k]; !ok {
		return
	} else if p.dirty {
		r.evict(k)
	} else {
		r.log = append(r.log, fmt.Sprintf("drop %d", r.remove(k).data))
	}
}

// fileKeys returns the file's resident keys (just the dirty ones when
// dirtyOnly) in recency order.
func (r *refCache) fileKeys(file uint64, dirtyOnly bool) []Key {
	var out []Key
	for _, k := range r.order {
		if k.File == file && (!dirtyOnly || r.pages[k].dirty) {
			out = append(out, k)
		}
	}
	return out
}

func (r *refCache) runs(file uint64) []Run {
	var pages []int64
	for k := range r.pages {
		if k.File == file {
			pages = append(pages, k.Page)
		}
	}
	slices.Sort(pages)
	var runs []Run
	for _, p := range pages {
		if n := len(runs); n > 0 && runs[n-1].End == p {
			runs[n-1].End++
		} else {
			runs = append(runs, Run{Start: p, End: p + 1})
		}
	}
	return runs
}

// fuzzFiles and fuzzPages bound the keys FuzzCacheOps draws: files 0-8,
// pages 0-4,096, half of the draws from pages 0-7 of files 0 and 1, so
// that lookups hit and runs grow, merge and split. fuzzOps bounds an
// input's length and fuzzCheckEvery how often the whole index is scanned,
// which is what an execution mostly costs: a fuzzer that spends seconds on
// one input finds little in a short run.
const (
	fuzzFiles      = 9
	fuzzPages      = 4097
	fuzzOps        = 512
	fuzzCheckEvery = 8
)

// fuzzOpNames names FuzzCacheOps' operations by opcode.
var fuzzOpNames = [9]string{"Insert", "Insert", "Get", "MarkDirty", "Invalidate", "InvalidateFile", "FlushFile", "EvictOne", "SetData"}

// FuzzCacheOps drives random Insert, Get, MarkDirty, Invalidate,
// InvalidateFile, FlushFile, EvictOne and SetData sequences over every
// policy and checks the cache against refCache after each operation —
// residency, data, runs, epochs, dirty counts, AppendRecencyTrace, Stats and
// the order of EvictFn and drop calls — and the index invariants every
// fuzzCheckEvery operations and at the end. Inserts carry nil data now and
// then, as the kernel's zero pages do, and SetData later replaces it: the
// reference moves only the data, so a replacement that touched recency,
// runs, epochs or Inserts fails. The first input byte picks the policy and a
// capacity of 1-16; each further four bytes are one operation.
func FuzzCacheOps(f *testing.F) {
	for seed, capacity := range []int{1, 2, 3, 5, 8, 16} {
		in := make([]byte, 1+4*fuzzOps)
		x := uint64(seed)
		for i := range in {
			x = x*6364136223846793005 + 1442695040888963407
			in[i] = byte(x >> 56)
		}
		in[0] = byte(seed%3 + 3*(capacity-1)) // each policy at two capacities
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		pol, capacity := Policy(in[0]%3), 1+int(in[0]/3)%16
		for _, recycled := range []bool{false, true} {
			t.Run(fmt.Sprintf("recycled=%v", recycled), func(t *testing.T) { fuzzCacheOps(t, in[1:], pol, capacity, recycled) })
		}
	})
}

// fuzzCacheOps is one run of FuzzCacheOps: ops on a cache from New, or on
// one Recycled from a predecessor of another capacity and policy that holds
// dirty and clean pages of several files, and has moved their epochs. Both
// must match the reference, which starts empty, and the predecessor must
// read as empty from the Recycle on.
func fuzzCacheOps(t *testing.T, in []byte, pol Policy, capacity int, recycled bool) {
	ref := newRefCache(capacity, pol)
	var log []string
	evictFn := func(k Key, data []byte, dirty bool) {
		log = append(log, fmt.Sprintf("evict %v %d %v", k, dataOf(data), dirty))
	}
	var prev *Cache
	c := New(capacity, pol, evictFn)
	if recycled {
		prev = predecessor(t, capacity, pol)
		c = Recycle(prev, capacity, pol, evictFn)
		checkEmpty(t, "the predecessor after Recycle", prev)
	}
	c.SetDropFn(func(data []byte) { log = append(log, fmt.Sprintf("drop %d", dataOf(data))) })
	epochs := map[uint64]uint64{}
	for n, op := 0, in; len(op) >= 4 && n < fuzzOps; n, op = n+1, op[4:] {
		file := uint64(op[1] % fuzzFiles)
		v := binary.LittleEndian.Uint16(op[2:])
		page := int64(v>>1) % fuzzPages
		if v&1 == 0 {
			file, page = file%2, page%8
		}
		k := Key{File: file, Page: page}
		name := fuzzOpNames[op[0]%9]
		switch op[0] % 9 {
		case 0, 1:
			dirty, data := op[0]&8 != 0, []byte{byte(n)}
			if op[0]&16 != 0 {
				data = nil
			}
			err, want := c.Insert(k, data, dirty), ref.insert(k, dataOf(data), dirty)
			if (err != nil) != (want != nil) {
				t.Fatalf("op %d %s %v: error %v, reference %v", n, name, k, err, want)
			}
		case 2:
			data, ok := c.Get(k)
			want, wantOK := ref.get(k)
			if ok != wantOK || ok && dataOf(data) != want {
				t.Fatalf("op %d %s %v = %v, %v; reference %v, %v", n, name, k, data, ok, want, wantOK)
			}
		case 3:
			p, want := ref.pages[k]
			if want {
				p.dirty = true
			}
			if got := c.MarkDirty(k); got != want {
				t.Fatalf("op %d %s %v = %v, reference %v", n, name, k, got, want)
			}
		case 4:
			c.Invalidate(k)
			ref.invalidate(k)
		case 5:
			c.InvalidateFile(file)
			for _, fk := range ref.fileKeys(file, false) {
				ref.invalidate(fk)
			}
		case 6:
			c.FlushFile(file, func(k Key, data []byte) { log = append(log, fmt.Sprintf("write %v %d", k, dataOf(data))) })
			for _, fk := range ref.fileKeys(file, true) {
				ref.log = append(ref.log, fmt.Sprintf("write %v %d", fk, ref.pages[fk].data))
				ref.pages[fk].dirty = false
			}
		case 7:
			err, want := c.EvictOne(), ref.evictOne()
			if (err != nil) != (want != nil) {
				t.Fatalf("op %d %s %v: error %v, reference %v", n, name, k, err, want)
			}
		case 8:
			p, want := ref.pages[k]
			if want {
				p.data = n % 256
			}
			if got := c.SetData(k, []byte{byte(n)}); got != want {
				t.Fatalf("op %d %s %v = %v, reference %v", n, name, k, got, want)
			}
		}
		if !slices.Equal(log, ref.log) {
			t.Fatalf("op %d %s %v: calls %q, reference %q", n, name, k, log, ref.log)
		}
		if got := c.AppendRecencyTrace(nil); !slices.Equal(got, ref.order) || c.Len() != len(ref.order) {
			t.Fatalf("op %d %s %v: recency %v (Len %d), reference %v", n, name, k, got, c.Len(), ref.order)
		}
		if c.Stats() != ref.stats {
			t.Fatalf("op %d %s %v: stats %+v, reference %+v", n, name, k, c.Stats(), ref.stats)
		}
		for fl := uint64(0); fl < fuzzFiles; fl++ {
			if got, want := c.ResidentRuns(fl), ref.runs(fl); !slices.Equal(got, want) {
				t.Fatalf("op %d %s %v: file %d runs %v, reference %v", n, name, k, fl, got, want)
			}
			if got, want := c.ResidencyEpoch(fl), ref.epochs[fl]; got != want {
				t.Fatalf("op %d %s %v: file %d epoch %d, reference %d", n, name, k, fl, got, want)
			}
			if got, want := c.DirtyPages(fl), len(ref.fileKeys(fl, true)); got != want {
				t.Fatalf("op %d %s %v: file %d dirty %d, reference %d", n, name, k, fl, got, want)
			}
		}
		if n%fuzzCheckEvery == 0 || len(op) < 8 || n == fuzzOps-1 {
			checkResidencyIndex(t, c, epochs)
		}
	}
	if prev != nil {
		checkEmpty(t, "the predecessor after its successor's ops", prev)
	}
}

// predecessor returns a cache of another capacity and policy than the given
// ones after inserts, invalidations and writes over every fuzz file: dirty
// and clean pages in several files, tables grown far, non-zero epochs.
func predecessor(t *testing.T, capacity int, pol Policy) *Cache {
	prevCap := 12
	if capacity == prevCap {
		prevCap = 10
	}
	c := New(prevCap, (pol+1)%3, func(Key, []byte, bool) {})
	for i := 0; i < 60; i++ {
		k := Key{File: uint64(i % fuzzFiles), Page: int64(i*613) % fuzzPages}
		if err := c.Insert(k, []byte{byte(i)}, i%3 == 0); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			c.Invalidate(k)
		}
	}
	c.Get(Key{File: 1, Page: 613})
	if files := len(c.AppendRecencyTrace(nil)); files < prevCap-2 || c.ResidencyEpoch(1) == 0 {
		t.Fatalf("predecessor holds %d pages, file 1 at epoch %d: too little to recycle", files, c.ResidencyEpoch(1))
	}
	return c
}

// checkEmpty fails unless c reads as a cache with nothing in it.
func checkEmpty(t *testing.T, what string, c *Cache) {
	t.Helper()
	if c.Len() != 0 || len(c.AppendRecencyTrace(nil)) != 0 || c.Stats() != (Stats{}) {
		t.Fatalf("%s: Len %d, recency %v, stats %+v; want empty", what, c.Len(), c.AppendRecencyTrace(nil), c.Stats())
	}
	for fl := uint64(0); fl < fuzzFiles; fl++ {
		if c.ResidentRuns(fl) != nil || c.ResidencyEpoch(fl) != 0 || c.DirtyPages(fl) != 0 {
			t.Fatalf("%s: file %d runs %v, epoch %d, dirty %d; want none", what, fl, c.ResidentRuns(fl), c.ResidencyEpoch(fl), c.DirtyPages(fl))
		}
		for p := int64(0); p < fuzzPages; p += 613 {
			if c.Contains(Key{File: fl, Page: p}) {
				t.Fatalf("%s: file %d page %d resident", what, fl, p)
			}
		}
	}
	checkResidencyIndex(t, c, nil)
}

// TestNegativePage: a negative page is refused by Insert and absent to
// every lookup, and the refusal leaves the cache as it was.
func TestNegativePage(t *testing.T) {
	c := New(4, LRU, nil)
	if err := c.Insert(Key{File: 1, Page: 0}, page(1), false); err != nil {
		t.Fatal(err)
	}
	bad := Key{File: 1, Page: -1}
	if err := c.Insert(bad, page(2), true); err == nil {
		t.Fatal("Insert of page -1 succeeded")
	}
	if _, ok := c.Get(bad); ok || c.Contains(bad) || c.MarkDirty(bad) {
		t.Fatal("page -1 reported resident")
	}
	c.Invalidate(bad)
	if c.Len() != 1 || c.DirtyPages(1) != 0 || c.Stats().Inserts != 1 || !slices.Equal(c.ResidentRuns(1), []Run{{0, 1}}) {
		t.Fatalf("refused insert changed the cache: Len %d, dirty %d, stats %+v, runs %v",
			c.Len(), c.DirtyPages(1), c.Stats(), c.ResidentRuns(1))
	}
	checkResidencyIndex(t, c, nil)
}
