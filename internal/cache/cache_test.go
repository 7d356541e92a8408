package cache

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func key(p int64) Key { return Key{File: 1, Page: p} }

func page(b byte) []byte { return []byte{b} }

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{LRU: "LRU", Clock: "CLOCK", FIFO: "FIFO", Policy(9): "policy(9)"} {
		if got := p.String(); got != want {
			t.Errorf("Policy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestNewBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("New(0) did not panic")
		}
	}()
	New(0, LRU, nil)
}

func TestInsertGet(t *testing.T) {
	c := New(4, LRU, nil)
	c.Insert(key(1), page('a'), false)
	got, ok := c.Get(key(1))
	if !ok || got[0] != 'a' {
		t.Fatalf("Get after Insert = %v,%v", got, ok)
	}
	if _, ok := c.Get(key(2)); ok {
		t.Fatalf("Get of absent key succeeded")
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	c := New(3, LRU, nil)
	for i := int64(0); i < 10; i++ {
		c.Insert(key(i), page(byte(i)), false)
		if c.Len() > 3 {
			t.Fatalf("Len %d exceeds capacity after insert %d", c.Len(), i)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("final Len = %d, want 3", c.Len())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	var evicted []Key
	c := New(3, LRU, func(k Key, _ []byte, _ bool) { evicted = append(evicted, k) })
	c.Insert(key(1), page(1), false)
	c.Insert(key(2), page(2), false)
	c.Insert(key(3), page(3), false)
	c.Get(key(1)) // 1 is now most recent; 2 is least
	c.Insert(key(4), page(4), false)
	if len(evicted) != 1 || evicted[0] != key(2) {
		t.Fatalf("LRU evicted %v, want [page 2]", evicted)
	}
}

func TestFIFOIgnoresGets(t *testing.T) {
	var evicted []Key
	c := New(3, FIFO, func(k Key, _ []byte, _ bool) { evicted = append(evicted, k) })
	c.Insert(key(1), page(1), false)
	c.Insert(key(2), page(2), false)
	c.Insert(key(3), page(3), false)
	c.Get(key(1)) // must NOT rescue page 1 under FIFO
	c.Insert(key(4), page(4), false)
	if len(evicted) != 1 || evicted[0] != key(1) {
		t.Fatalf("FIFO evicted %v, want [page 1]", evicted)
	}
}

func TestClockSecondChance(t *testing.T) {
	var evicted []Key
	c := New(3, Clock, func(k Key, _ []byte, _ bool) { evicted = append(evicted, k) })
	c.Insert(key(1), page(1), false)
	c.Insert(key(2), page(2), false)
	c.Insert(key(3), page(3), false)
	c.Get(key(1)) // sets 1's reference bit
	c.Insert(key(4), page(4), false)
	// The hand starts at the back (1, oldest). 1 is referenced, so it gets
	// a second chance; 2 is the victim.
	if len(evicted) != 1 || evicted[0] != key(2) {
		t.Fatalf("CLOCK evicted %v, want [page 2]", evicted)
	}
	if !c.Contains(key(1)) {
		t.Fatalf("referenced page 1 was not given a second chance")
	}
}

func TestContainsDoesNotPromote(t *testing.T) {
	c := New(2, LRU, nil)
	c.Insert(key(1), page(1), false)
	c.Insert(key(2), page(2), false)
	// Probing 1 must not rescue it: it is still LRU.
	if !c.Contains(key(1)) {
		t.Fatalf("Contains(1) = false")
	}
	c.Insert(key(3), page(3), false)
	if c.Contains(key(1)) {
		t.Fatalf("Contains promoted page 1 (probe effect)")
	}
	if !c.Contains(key(2)) {
		t.Fatalf("page 2 should have survived")
	}
}

func TestReinsertRefreshesAndMergesDirty(t *testing.T) {
	c := New(2, LRU, nil)
	c.Insert(key(1), page(1), true)
	c.Insert(key(1), page(9), false) // re-insert clean: dirty must persist
	c.Insert(key(2), page(2), false)
	got, ok := c.Get(key(1))
	if !ok || got[0] != 9 {
		t.Fatalf("re-insert did not replace data: %v %v", got, ok)
	}
	var dirtyEvicted bool
	c2 := New(1, LRU, func(_ Key, _ []byte, d bool) { dirtyEvicted = d })
	c2.Insert(key(1), page(1), true)
	c2.Insert(key(1), page(2), false)
	c2.Insert(key(3), page(3), false)
	if !dirtyEvicted {
		t.Fatalf("dirty bit lost on re-insert")
	}
}

func TestDirtyEvictionCallback(t *testing.T) {
	type ev struct {
		k     Key
		dirty bool
	}
	var evs []ev
	c := New(1, LRU, func(k Key, _ []byte, d bool) { evs = append(evs, ev{k, d}) })
	c.Insert(key(1), page(1), true)
	c.Insert(key(2), page(2), false)
	c.Insert(key(3), page(3), false)
	if len(evs) != 2 || !evs[0].dirty || evs[1].dirty {
		t.Fatalf("eviction callbacks wrong: %+v", evs)
	}
	st := c.Stats()
	if st.Evictions != 2 || st.DirtyEvictions != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestMarkDirty(t *testing.T) {
	c := New(2, LRU, nil)
	c.Insert(key(1), page(1), false)
	if !c.MarkDirty(key(1)) {
		t.Fatalf("MarkDirty on resident page returned false")
	}
	if c.MarkDirty(key(2)) {
		t.Fatalf("MarkDirty on absent page returned true")
	}
	var dirty bool
	c2 := New(1, LRU, func(_ Key, _ []byte, d bool) { dirty = d })
	c2.Insert(key(1), page(1), false)
	c2.MarkDirty(key(1))
	c2.Insert(key(2), page(2), false)
	if !dirty {
		t.Fatalf("marked-dirty page evicted clean")
	}
}

func TestInvalidate(t *testing.T) {
	evictions := 0
	c := New(4, LRU, func(Key, []byte, bool) { evictions++ })
	c.Insert(key(1), page(1), false)
	c.Invalidate(key(1))
	if c.Contains(key(1)) {
		t.Fatalf("page resident after Invalidate")
	}
	if evictions != 0 {
		t.Fatalf("clean Invalidate called onEvict")
	}
	c.Insert(key(2), page(2), true)
	c.Invalidate(key(2))
	if evictions != 1 {
		t.Fatalf("dirty Invalidate must call onEvict for write-back")
	}
	c.Invalidate(key(99)) // absent: no-op
}

func TestInvalidateFile(t *testing.T) {
	c := New(8, LRU, nil)
	c.Insert(Key{File: 1, Page: 0}, page(1), false)
	c.Insert(Key{File: 1, Page: 1}, page(2), false)
	c.Insert(Key{File: 2, Page: 0}, page(3), false)
	c.InvalidateFile(1)
	if c.Len() != 1 || !c.Contains(Key{File: 2, Page: 0}) {
		t.Fatalf("InvalidateFile removed wrong pages: len=%d", c.Len())
	}
}

func TestFlushDirty(t *testing.T) {
	c := New(4, LRU, nil)
	c.Insert(key(1), page(1), true)
	c.Insert(key(2), page(2), false)
	c.Insert(key(3), page(3), true)
	var written []Key
	c.FlushDirty(func(k Key, _ []byte) { written = append(written, k) })
	if len(written) != 2 {
		t.Fatalf("FlushDirty wrote %d pages, want 2", len(written))
	}
	// All clean now: a second flush writes nothing.
	written = nil
	c.FlushDirty(func(k Key, _ []byte) { written = append(written, k) })
	if len(written) != 0 {
		t.Fatalf("second FlushDirty wrote %v", written)
	}
}

func TestResidentPages(t *testing.T) {
	c := New(8, LRU, nil)
	c.Insert(Key{File: 1, Page: 3}, page(1), false)
	c.Insert(Key{File: 1, Page: 5}, page(2), false)
	c.Insert(Key{File: 2, Page: 0}, page(3), false)
	if got, want := c.ResidentRuns(1), []Run{{3, 4}, {5, 6}}; !slices.Equal(got, want) {
		t.Fatalf("ResidentRuns(1) = %v, want %v: pages 3 and 5 of file 1 only", got, want)
	}
}

func TestStatsCounting(t *testing.T) {
	c := New(2, LRU, nil)
	c.Insert(key(1), page(1), false)
	c.Get(key(1))
	c.Get(key(1))
	if _, ok := c.Get(key(9)); ok {
		t.Fatal("phantom hit")
	}
	c.RecordMiss()
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Inserts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Fatalf("ResetStats did not zero: %+v", c.Stats())
	}
}

// TestFigure3LinearPasses reproduces the paper's Figure 3 exactly: a
// five-block file accessed twice linearly through a three-frame LRU cache.
// After the first pass blocks {3,4,5} are resident; the second linear pass
// gains nothing (every access misses) and again leaves {3,4,5}.
func TestFigure3LinearPasses(t *testing.T) {
	c := New(3, LRU, nil)
	pass := func() (misses int) {
		for p := int64(1); p <= 5; p++ {
			if _, ok := c.Get(key(p)); !ok {
				misses++
				c.Insert(key(p), page(byte(p)), false)
			}
		}
		return
	}
	if m := pass(); m != 5 {
		t.Fatalf("first pass misses = %d, want 5", m)
	}
	for _, p := range []int64{3, 4, 5} {
		if !c.Contains(key(p)) {
			t.Fatalf("block %d not resident after first pass", p)
		}
	}
	if m := pass(); m != 5 {
		t.Fatalf("second LINEAR pass misses = %d, want 5 (the Figure 3 pathology)", m)
	}

	// A SLEDs-style second pass reads resident blocks first: only 2 misses.
	misses := 0
	for _, p := range []int64{3, 4, 5, 1, 2} {
		if _, ok := c.Get(key(p)); !ok {
			misses++
			c.Insert(key(p), page(byte(p)), false)
		}
	}
	if misses != 2 {
		t.Fatalf("SLEDs-ordered pass misses = %d, want 2", misses)
	}
}

// Property: under any access sequence, Len never exceeds capacity and a
// Get immediately after an Insert of the same key succeeds with the same
// data.
func TestCacheInvariantsProperty(t *testing.T) {
	for _, pol := range []Policy{LRU, Clock, FIFO} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			f := func(ops []uint8) bool {
				c := New(4, pol, nil)
				for _, op := range ops {
					p := int64(op % 16)
					if op%3 == 0 {
						c.Insert(key(p), page(byte(p)), op%5 == 0)
						if d, ok := c.Get(key(p)); !ok || d[0] != byte(p) {
							return false
						}
					} else {
						c.Get(key(p))
					}
					if c.Len() > c.Cap() {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: the eviction callback fires exactly once per page that leaves,
// and pages reported resident by RecencyTrace equal Len.
func TestEvictionAccountingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		evicted := 0
		c := New(3, LRU, func(Key, []byte, bool) { evicted++ })
		inserts := 0
		seen := map[Key]bool{}
		for _, op := range ops {
			k := key(int64(op % 10))
			if !seen[k] || !c.Contains(k) {
				if !c.Contains(k) {
					c.Insert(k, page(byte(op)), false)
					inserts++
					seen[k] = true
				}
			} else {
				c.Get(k)
			}
		}
		return inserts-evicted == c.Len() && len(c.AppendRecencyTrace(nil)) == c.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRecencyTraceOrder(t *testing.T) {
	c := New(3, LRU, nil)
	c.Insert(key(1), page(1), false)
	c.Insert(key(2), page(2), false)
	c.Insert(key(3), page(3), false)
	c.Get(key(1))
	trace := c.AppendRecencyTrace(nil)
	want := []int64{1, 3, 2}
	for i, k := range trace {
		if k.Page != want[i] {
			t.Fatalf("trace = %v, want pages %v", trace, want)
		}
	}
}

func TestClockEventuallyEvicts(t *testing.T) {
	// Even with all reference bits set, CLOCK must terminate and evict.
	c := New(3, Clock, nil)
	for p := int64(1); p <= 3; p++ {
		c.Insert(key(p), page(byte(p)), false)
		c.Get(key(p))
	}
	c.Insert(key(4), page(4), false)
	if c.Len() != 3 {
		t.Fatalf("len = %d after insert over full referenced cache", c.Len())
	}
}

func TestManyFilesInterleaved(t *testing.T) {
	c := New(64, LRU, nil)
	for f := uint64(1); f <= 8; f++ {
		for p := int64(0); p < 16; p++ {
			c.Insert(Key{File: f, Page: p}, page(byte(p)), false)
		}
	}
	if c.Len() != 64 {
		t.Fatalf("len = %d, want 64", c.Len())
	}
	// Files 1-4 fully evicted by 5-8.
	for f := uint64(1); f <= 4; f++ {
		if got := c.ResidentRuns(f); len(got) != 0 {
			t.Fatalf("file %d has resident runs %v, want none", f, got)
		}
	}
	for f := uint64(5); f <= 8; f++ {
		if got, want := c.ResidentRuns(f), []Run{{0, 16}}; !slices.Equal(got, want) {
			t.Fatalf("file %d has resident runs %v, want %v", f, got, want)
		}
	}
}

func ExampleCache_AppendRecencyTrace() {
	c := New(3, LRU, nil)
	for p := int64(1); p <= 5; p++ { // one linear pass, 3-frame cache
		c.Insert(Key{File: 1, Page: p}, nil, false)
	}
	for _, k := range c.AppendRecencyTrace(nil) {
		fmt.Print(k.Page, " ")
	}
	// Output: 5 4 3
}
