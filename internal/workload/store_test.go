package workload

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"sleds/internal/splitmix"
)

const storePage = 64

// testRNG is a SplitMix64 stream for the seeded operation sequences.
type testRNG uint64

func (r *testRNG) Uint64() uint64 { return splitmix.Next((*uint64)(r)) }

// Int64n returns a value in [0, n); n must be positive.
func (r *testRNG) Int64n(n int64) int64 { return int64(r.Uint64() % uint64(n)) }

// countingGen is content that differs by file, page and position, and
// counts how often each page is generated.
type countingGen struct {
	id    int64
	calls map[int64]int
}

func newCountingGen(id int64) *countingGen { return &countingGen{id: id, calls: map[int64]int{}} }

func (g *countingGen) gen(page int64, buf []byte) {
	g.calls[page]++
	for i := range buf {
		buf[i] = 1 + byte((g.id*131+page*31+int64(i)*7)%255)
	}
}

// leaveBudget leases all of the store's budget but keep pages to a ballast
// content, which is how a test gets a small store without a knob. The
// ballast is keyed: after a Reset it claims its lease again.
func leaveBudget(s *Store, keep int64) {
	ballast := NewKeyed(Key{Gen: "ballast", PageSize: storePage}, StoreBudget-keep*storePage, newCountingGen(0).gen)
	ballast.KeepIn(s)
	ballast.ReadPage(0, make([]byte, storePage))
}

// countKey keys a countingGen's output: equal ids generate equal pages.
func countKey(id int64) Key { return Key{Gen: "count", Seed: uint64(id), PageSize: storePage} }

// TestStoreDifferential drives one content that keeps its pages and one
// that does not through the same seeded interleaving of reads, writes,
// resizes and splices, at a store budget of nothing, three pages and the
// whole file, and compares every byte of every step. The store is reused
// across trials, so each starts on a slab the one before left dirty. Keyed,
// trials 2k and 2k+1 share a key, as the two modes of a grid point's pair
// do, and four keys take turns: where the store keeps anything, trials claim
// leases an earlier trial took, wrote and spliced over, before a Reset.
func TestStoreDifferential(t *testing.T) {
	for _, keyed := range []bool{false, true} {
		for _, keep := range []int64{0, 3, -1} {
			keyed, keep := keyed, keep
			name := fmt.Sprintf("keep=%d", keep)
			if keyed {
				name = "keyed-" + name
			}
			t.Run(name, func(t *testing.T) {
				store, claims := new(Store), 0
				for seed := uint64(1); seed <= 60; seed++ {
					store.Reset()
					if keep >= 0 {
						leaveBudget(store, keep)
					}
					if runStoreTrial(t, store, seed, keyed) {
						claims++
					}
				}
				if keyed && keep != 0 && claims == 0 {
					t.Error("no keyed trial claimed an earlier trial's lease")
				}
			})
		}
	}
}

// runStoreTrial reports whether the kept content claimed a lease that was
// in the store before the trial.
func runStoreTrial(t *testing.T, store *Store, seed uint64, keyed bool) (claimed bool) {
	before := slices.Clone(store.leases)
	rng := testRNG(seed)
	id := int64(seed)
	if keyed {
		id = int64(seed / 2 % 4)
		rng = testRNG(id + 100) // one size per key, so its leases are claimed
	}
	size := (2+rng.Int64n(9))*storePage + rng.Int64n(storePage)
	rng = testRNG(seed)
	plain := New(size, storePage, newCountingGen(id).gen)
	kept := New(size, storePage, newCountingGen(id).gen)
	if keyed {
		kept = NewKeyed(countKey(id), size, newCountingGen(id).gen)
	}
	kept.KeepIn(store)

	a, b := make([]byte, storePage), make([]byte, storePage)
	readBoth := func(what string, page int64) {
		t.Helper()
		// Different garbage in each buffer: a byte ReadPage leaves alone
		// cannot compare equal.
		for i := range a {
			a[i], b[i] = 0xAA, 0x55
		}
		plain.ReadPage(page, a)
		kept.ReadPage(page, b)
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d %s: page %d differs with the store\nplain %x\nkept  %x", seed, what, page, a, b)
		}
	}
	for op := 0; op < 200; op++ {
		what := fmt.Sprintf("op %d", op)
		if plain.Size() != kept.Size() || plain.Pages() != kept.Pages() {
			t.Fatalf("seed %d %s: size %d/%d pages %d/%d", seed, what, plain.Size(), kept.Size(), plain.Pages(), kept.Pages())
		}
		pages := plain.Pages()
		switch kind := rng.Int64n(16); {
		case kind < 8:
			if pages > 0 {
				readBoth(what, rng.Int64n(pages))
			}
		case kind < 11: // overwrite, or extend by up to two pages
			page := rng.Int64n(pages + 2)
			data := make([]byte, storePage)
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			plain.WritePage(page, data)
			kept.WritePage(page, data)
		case kind < 13: // shrink, look, grow back past the old size
			small := rng.Int64n(plain.Size() + 1)
			plain.Resize(small)
			kept.Resize(small)
			if p := plain.Pages(); p > 0 {
				readBoth(what+" (shrunk)", p-1)
			}
			grown := small + rng.Int64n(4*storePage)
			plain.Resize(grown)
			kept.Resize(grown)
		default: // splice a fragment over pages that may already be kept
			if plain.Size() < 8 {
				continue
			}
			n := 1 + rng.Int64n(min(plain.Size(), 2*storePage))
			off := rng.Int64n(plain.Size() - n + 1)
			frag := bytes.Repeat([]byte{byte(0xC0 + op%32)}, int(n))
			errA, errB := plain.TryInsertAt(off, frag), kept.TryInsertAt(off, frag)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("seed %d %s: TryInsertAt(%d, %d bytes) = %v without the store, %v with", seed, what, off, n, errA, errB)
			}
		}
		if op%20 == 19 {
			for p := int64(0); p < plain.Pages(); p++ {
				readBoth(what+" (sweep)", p)
			}
		}
	}
	if !bytes.Equal(plain.ReadAll(), kept.ReadAll()) {
		t.Fatalf("seed %d: ReadAll differs with the store", seed)
	}
	return slices.Contains(before, kept.lease)
}

// TestStoreGeneratesOnce is what the store is for: a kept page is generated
// on its first read and copied ever after, a page past the budget is
// generated every time, and a splice planted after the first read still
// shows.
func TestStoreGeneratesOnce(t *testing.T) {
	const pages = 8
	store := new(Store)
	leaveBudget(store, 3)
	g := newCountingGen(1)
	c := New(pages*storePage, storePage, g.gen)
	want := New(pages*storePage, storePage, newCountingGen(1).gen)
	c.KeepIn(store)

	buf := make([]byte, storePage)
	for pass := 0; pass < 4; pass++ {
		for p := int64(0); p < pages; p++ {
			c.ReadPage(p, buf)
		}
		if pass == 0 {
			frag := []byte("planted after the first read")
			if err := c.TryInsertAt(storePage+5, frag); err != nil {
				t.Fatal(err)
			}
			if err := want.TryInsertAt(storePage+5, frag); err != nil {
				t.Fatal(err)
			}
		}
	}
	for p := int64(0); p < pages; p++ {
		if n, kept := g.calls[p], p < 3; kept && n != 1 || !kept && n != 4 {
			t.Errorf("page %d generated %d times over 4 passes (kept: %v)", p, n, kept)
		}
	}
	if !bytes.Equal(c.ReadAll(), want.ReadAll()) {
		t.Error("content read through the store differs from the same content without one")
	}
}

// TestStoreLeaseEndsAtReset: a content that outlives its store's Reset goes
// back to generating, whatever the next leaseholder wrote over its slots,
// and a content that was never read before the Reset takes no lease after.
func TestStoreLeaseEndsAtReset(t *testing.T) {
	const pages = 6
	store := new(Store)
	old, unread := newCountingGen(1), newCountingGen(2)
	c := New(pages*storePage, storePage, old.gen)
	u := New(pages*storePage, storePage, unread.gen)
	c.KeepIn(store)
	u.KeepIn(store)
	want := c.ReadAll() // fills every slot

	store.Reset()
	next := New(pages*storePage, storePage, newCountingGen(3).gen)
	next.KeepIn(store)
	nextWant := next.ReadAll() // the same slots, other bytes

	if got := c.ReadAll(); !bytes.Equal(got, want) {
		t.Fatal("content read after its store was Reset returned another content's pages")
	}
	if got := next.ReadAll(); !bytes.Equal(got, nextWant) {
		t.Fatal("the new leaseholder's pages changed when the old content was read")
	}
	for p := int64(0); p < pages; p++ {
		if old.calls[p] != 2 {
			t.Errorf("page %d of the outlived content generated %d times, want 2 (once kept, once after Reset)", p, old.calls[p])
		}
	}
	u.ReadAll()
	u.ReadAll()
	if unread.calls[0] != 2 {
		t.Errorf("content first read after the Reset generated page 0 %d times in 2 reads: it must not lease from an epoch it was not created in", unread.calls[0])
	}
}

// TestStoreKeyedLeaseOutlivesReset: a content created after a Reset with
// the key of an earlier one generates none of the pages the earlier one
// generated, and reads its own splices, not the earlier one's splices or
// writes.
func TestStoreKeyedLeaseOutlivesReset(t *testing.T) {
	const pages = 6
	store := new(Store)
	earlier, later := newCountingGen(1), newCountingGen(1)
	a := NewKeyed(countKey(1), pages*storePage, earlier.gen)
	a.KeepIn(store)
	for p := int64(0); p < pages-1; p++ { // all but the last page
		a.ReadPage(p, make([]byte, storePage))
	}
	if err := a.TryInsertAt(storePage+3, []byte("earlier splice")); err != nil {
		t.Fatal(err)
	}
	a.WritePage(2, bytes.Repeat([]byte{'w'}, storePage))

	store.Reset()
	b := NewKeyed(countKey(1), pages*storePage, later.gen)
	b.KeepIn(store)
	if err := b.TryInsertAt(4*storePage+1, []byte("later splice")); err != nil {
		t.Fatal(err)
	}
	want := New(pages*storePage, storePage, newCountingGen(1).gen)
	if err := want.TryInsertAt(4*storePage+1, []byte("later splice")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.ReadAll(), want.ReadAll()) {
		t.Fatal("content that claimed a lease reads other bytes than the same content without a store")
	}
	for p, n := range later.calls {
		if p < pages-1 || n != 1 {
			t.Errorf("page %d generated %d times after the Reset, want only the page the earlier content never read, once", p, n)
		}
	}
}

// TestStoreKeysAreExact: contents that differ only in key never share slots:
// after a Reset, each claims its own lease and none of the others'.
func TestStoreKeysAreExact(t *testing.T) {
	const size = 5 * storePage
	keys := []Key{
		countKey(1),
		{Gen: "other", Seed: 1, PageSize: storePage},
		{Gen: "count", Seed: 1, PageSize: storePage, Shape: [5]int64{1}},
		{Gen: "count", Seed: 2, PageSize: storePage},
	}
	store := new(Store)
	for round := 0; round < 2; round++ {
		store.Reset()
		for i, key := range keys {
			g := newCountingGen(int64(10 + i))
			c := NewKeyed(key, size, g.gen)
			c.KeepIn(store)
			if !bytes.Equal(c.ReadAll(), New(size, storePage, newCountingGen(int64(10+i)).gen).ReadAll()) {
				t.Fatalf("round %d: key %+v reads another key's pages", round, key)
			}
			if want := 1 - round; len(g.calls) != 5*want {
				t.Errorf("round %d: key %+v generated %d pages, want %d", round, key, len(g.calls), 5*want)
			}
		}
	}
}

// TestStoreDropsUnclaimedLeases: a lease nothing claimed since the Reset
// makes room for a new file, and neither the content that held it nor one
// that would have claimed it reads the new file's bytes from its old slots:
// both generate again.
func TestStoreDropsUnclaimedLeases(t *testing.T) {
	const pages = StoreBudget / storePage / 2
	store := new(Store)
	firstGen := newCountingGen(1)
	first := NewKeyed(countKey(1), pages*storePage, firstGen.gen)
	first.KeepIn(store)
	want := first.ReadAll()
	store.Reset()
	for id := int64(2); id <= 3; id++ { // together they need the first's room
		c := NewKeyed(countKey(id), pages*storePage, newCountingGen(id).gen)
		c.KeepIn(store)
		c.ReadAll()
	}
	if got := store.Held(); got != StoreBudget {
		t.Fatalf("store holds %d bytes, want the %d-byte budget", got, StoreBudget)
	}
	if !bytes.Equal(first.ReadAll(), want) || firstGen.calls[0] != 2 {
		t.Fatalf("content read after its lease was dropped did not generate its own bytes (page 0 generated %d times)", firstGen.calls[0])
	}
	again := newCountingGen(1)
	c := NewKeyed(countKey(1), pages*storePage, again.gen)
	c.KeepIn(store)
	if !bytes.Equal(c.ReadAll(), New(pages*storePage, storePage, newCountingGen(1).gen).ReadAll()) {
		t.Fatal("content whose lease was dropped reads another content's bytes")
	}
	if len(again.calls) != pages {
		t.Errorf("content whose lease was dropped generated %d of %d pages", len(again.calls), pages)
	}
	store.Reset()
	later := newCountingGen(3)
	c = NewKeyed(countKey(3), pages*storePage, later.gen)
	c.KeepIn(store)
	c.ReadAll()
	if len(later.calls) != 0 {
		t.Errorf("the lease taken after the drop was not kept: %d pages generated", len(later.calls))
	}
}

// TestStoreMovesClaimedLeases: making room moves a lease claimed since the
// Reset to the front of the slab, bytes and all, so its content reads on
// without generating, and the new lease does not overlap it.
func TestStoreMovesClaimedLeases(t *testing.T) {
	const quarter = StoreBudget / storePage / 4
	store := new(Store)
	for id := int64(1); id <= 2; id++ { // the first lease ends up dropped, the second moved
		c := NewKeyed(countKey(id), quarter*storePage, newCountingGen(id).gen)
		c.KeepIn(store)
		c.ReadAll()
	}
	store.Reset()
	movedGen := newCountingGen(2)
	moved := NewKeyed(countKey(2), quarter*storePage, movedGen.gen)
	moved.KeepIn(store)
	moved.ReadPage(0, make([]byte, storePage)) // claims
	big := NewKeyed(countKey(3), 3*quarter*storePage, newCountingGen(3).gen)
	big.KeepIn(store)
	big.ReadAll()
	if !bytes.Equal(moved.ReadAll(), New(quarter*storePage, storePage, newCountingGen(2).gen).ReadAll()) {
		t.Fatal("a lease moved to make room reads other bytes")
	}
	if len(movedGen.calls) != 0 {
		t.Errorf("a lease moved to make room generated %d pages", len(movedGen.calls))
	}
	if !bytes.Equal(big.ReadAll(), New(3*quarter*storePage, storePage, newCountingGen(3).gen).ReadAll()) {
		t.Fatal("the lease made room for reads other bytes")
	}
}

// TestStoreIsLazyAndBounded: nothing is held before the first generated
// read, content without a generator never takes any, and the slab stops at
// the budget however much is read through it.
func TestStoreIsLazyAndBounded(t *testing.T) {
	store := new(Store)
	buf := make([]byte, storePage)
	c := New(4*storePage, storePage, newCountingGen(1).gen)
	c.KeepIn(store)
	zero := New(4*storePage, storePage, nil)
	zero.KeepIn(store)
	zero.ReadPage(0, buf)
	lit := NewBytes([]byte("literal bytes"), storePage)
	lit.KeepIn(store)
	lit.ReadPage(0, buf)
	if store.Held() != 0 {
		t.Fatalf("store holds %d bytes before any generated page was read", store.Held())
	}
	c.ReadPage(0, buf)
	if got := store.Held(); got != 4*storePage {
		t.Fatalf("store holds %d bytes after a 4-page file was first read, want %d", got, 4*storePage)
	}
	for i := 0; i < 3; i++ {
		big := New(StoreBudget, storePage, newCountingGen(2).gen)
		big.KeepIn(store)
		big.ReadPage(big.Pages()-1, buf)
		big.ReadPage(0, buf)
	}
	if got := store.Held(); got != StoreBudget {
		t.Fatalf("store holds %d bytes after three budget-sized files, want exactly the %d-byte budget", got, StoreBudget)
	}
}

// TestStoreGrowthKeepsLeases: the slab grows under a point's second and third
// files without disturbing what the first already keeps there.
func TestStoreGrowthKeepsLeases(t *testing.T) {
	store := new(Store)
	var gens []*countingGen
	var files []*Content
	var want [][]byte
	for i, pages := range []int64{3, 20, 200} {
		g := newCountingGen(int64(i + 1))
		c := New(pages*storePage, storePage, g.gen)
		want = append(want, New(pages*storePage, storePage, newCountingGen(int64(i+1)).gen).ReadAll())
		c.KeepIn(store)
		c.ReadAll() // leases, growing the slab past the files before it
		gens, files = append(gens, g), append(files, c)
	}
	for i, c := range files {
		if !bytes.Equal(c.ReadAll(), want[i]) {
			t.Errorf("file %d reads differently after the slab grew under later files", i)
		}
		for p, n := range gens[i].calls {
			if n != 1 {
				t.Errorf("file %d page %d generated %d times, want once", i, p, n)
			}
		}
	}
}

var storedSink byte

// BenchmarkReadPageStored is a ReadPage served from the store: a copy where
// BenchmarkTextGen/fast is a generation. 0 allocs/op.
func BenchmarkReadPageStored(b *testing.B) {
	const ps, pages = 4096, 256
	store := new(Store)
	c := NewText(7, pages*ps, ps)
	c.KeepIn(store)
	buf := make([]byte, ps)
	for p := int64(0); p < pages; p++ {
		c.ReadPage(p, buf)
	}
	b.SetBytes(ps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ReadPage(int64(i%pages), buf)
	}
	storedSink = buf[0]
}

// TestReleaseLendsWrittenPages: the pages a released content wrote go to
// the next content that writes through the same store, across a Reset,
// and the released content no longer sees them: it reads its generated
// base, a generated page and zeros past the generated extent.
func TestReleaseLendsWrittenPages(t *testing.T) {
	var s Store
	old := New(storePage, storePage, newCountingGen(3).gen)
	old.KeepIn(&s)
	mine := bytes.Repeat([]byte{'o'}, storePage)
	old.WritePage(0, mine)
	old.WritePage(2, mine)
	lent := map[*byte]bool{&old.written[0][0]: true, &old.written[2][0]: true}
	old.Release()
	s.Reset()
	next := New(0, storePage, nil)
	next.KeepIn(&s)
	theirs := bytes.Repeat([]byte{'n'}, storePage)
	next.WritePage(0, theirs)
	next.WritePage(1, theirs)
	if !lent[&next.written[0][0]] || !lent[&next.written[1][0]] {
		t.Fatal("the next content's written pages are new, not the released ones")
	}
	buf := make([]byte, storePage)
	old.ReadPage(0, buf)
	if want := New(storePage, storePage, newCountingGen(3).gen).ReadAll(); !bytes.Equal(buf, want) {
		t.Fatalf("released content reads %q, want its generated page", buf[:8])
	}
	old.ReadPage(2, buf)
	if !bytes.Equal(buf, make([]byte, storePage)) {
		t.Fatalf("released content reads %q past its generated extent, want zeros", buf[:8])
	}
	for p := int64(0); p < 2; p++ {
		if next.ReadPage(p, buf); !bytes.Equal(buf, theirs) {
			t.Fatalf("page %d reads %q", p, buf[:8])
		}
	}
}
