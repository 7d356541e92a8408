package workload

import (
	"bytes"
	"fmt"
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
// content, which is how a test gets a small store without a knob.
func leaveBudget(s *Store, keep int64) {
	ballast := New(StoreBudget-keep*storePage, storePage, newCountingGen(0).gen)
	ballast.KeepIn(s)
	ballast.ReadPage(0, make([]byte, storePage))
}

// TestStoreDifferential drives one content that keeps its pages and one
// that does not through the same seeded interleaving of reads, writes,
// resizes and splices, at a store budget of nothing, three pages and the
// whole file, and compares every byte of every step. The store is reused
// across trials, so each starts on a slab the one before left dirty.
func TestStoreDifferential(t *testing.T) {
	for _, keep := range []int64{0, 3, -1} {
		keep := keep
		t.Run(fmt.Sprintf("keep=%d", keep), func(t *testing.T) {
			store := new(Store)
			for seed := uint64(1); seed <= 60; seed++ {
				store.Reset()
				if keep >= 0 {
					leaveBudget(store, keep)
				}
				//sledlint:allow seedflow -- differential test: trials are numbered 1..60 and each number is its op stream's seed
				runStoreTrial(t, store, seed)
			}
		})
	}
}

func runStoreTrial(t *testing.T, store *Store, seed uint64) {
	rng := testRNG(seed)
	size := (2+rng.Int64n(9))*storePage + rng.Int64n(storePage)
	plain := New(size, storePage, newCountingGen(int64(seed)).gen)
	kept := New(size, storePage, newCountingGen(int64(seed)).gen)
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
