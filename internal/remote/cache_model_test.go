package remote

import (
	"fmt"
	"testing"

	"sleds/internal/device"
	"sleds/internal/simclock"
)

// A model check of the server's buffer cache (index-linked frames behind an
// open-addressed slot table) against the obvious LRU: a slice of pages,
// most recent first. Seeded random ReadThrough / CachedBytes / insert
// sequences run on both; after every operation the server's recency list
// must equal the slice (residency and eviction order in one comparison),
// every page must be found or not found through the slot table as the
// slice says, and a read must charge exactly what the model's hits and
// misses cost on a twin disk and memory.

// modelLRU is the reference: resident pages, MRU first.
type modelLRU struct {
	pages    []int64
	capacity int
}

func (m *modelLRU) find(page int64) int {
	for i, p := range m.pages {
		if p == page {
			return i
		}
	}
	return -1
}

// touch moves a resident page to the front and reports whether it was
// resident.
func (m *modelLRU) touch(page int64) bool {
	i := m.find(page)
	if i < 0 {
		return false
	}
	copy(m.pages[1:i+1], m.pages[:i])
	m.pages[0] = page
	return true
}

// insert makes page the most recent, dropping the last page when full.
func (m *modelLRU) insert(page int64) {
	if m.touch(page) {
		return
	}
	if len(m.pages) == m.capacity {
		m.pages = m.pages[:len(m.pages)-1]
	}
	m.pages = append([]int64{page}, m.pages...)
}

// recency walks the server's list from MRU to LRU.
func (s *Server) recency() []int64 {
	var out []int64
	for f := s.frames[head].next; f != head; f = s.frames[f].next {
		out = append(out, s.frames[f].page)
	}
	return out
}

// lcg is a small seeded generator, so a failure names its seed.
type lcg uint64

func (g *lcg) intn(n int) int {
	*g = lcg(uint64(*g)*6364136223846793005 + 1442695040888963407)
	return int(uint64(*g) >> 33 % uint64(n))
}

func TestServerCacheMatchesModelLRU(t *testing.T) {
	const ps = testPage
	for _, capacity := range []int{1, 2, 3, 7, 64} {
		for seed := 0; seed < 40; seed++ {
			cfg := DefaultConfig()
			cfg.ServerCachePages = capacity
			srv, err := NewServer(cfg, ps)
			if err != nil {
				t.Fatal(err)
			}
			model := &modelLRU{capacity: capacity}
			twinDisk, twinMem := device.NewDisk(cfg.ServerDisk), device.NewMem(cfg.ServerMem)
			got, want := simclock.New(), simclock.New()
			diskPages := cfg.ServerDisk.Size / ps

			g := lcg(uint64(seed)*2654435761 + uint64(capacity))
			// Pages come from a dense neighbourhood (one file's worth), from
			// strides that are multiples of every table size in use, and
			// from anywhere on the disk.
			pick := func() int64 {
				switch g.intn(3) {
				case 0:
					return int64(g.intn(3 * capacity))
				case 1:
					return int64(g.intn(8)) << 14
				default:
					return int64(g.intn(int(diskPages - 8)))
				}
			}
			tag := func(step int, what string) string {
				return fmt.Sprintf("capacity %d seed %d step %d (%s)", capacity, seed, step, what)
			}
			for step := 0; step < 300; step++ {
				switch g.intn(4) {
				case 0: // a bare insert, as a write-allocate would
					p := pick()
					srv.insert(p)
					model.insert(p)
				case 1: // a residency probe: must not touch recency
					p, n := pick(), 1+g.intn(5)
					off, length := p*ps+int64(g.intn(ps)), int64(n)*ps-int64(g.intn(ps))
					var cached int64
					for cur := off; cur < off+length; {
						stop := (cur/ps + 1) * ps
						if stop > off+length {
							stop = off + length
						}
						if model.find(cur/ps) >= 0 {
							cached += stop - cur
						}
						cur = stop
					}
					if c := srv.CachedBytes(off, length); c != cached {
						t.Fatalf("%s: CachedBytes(%d,%d) = %d, model %d", tag(step, "probe"), off, length, c, cached)
					}
				default: // a read: hits refresh, misses go to disk and are cached
					p, n := pick(), 1+g.intn(5)
					off, length := p*ps+int64(g.intn(ps)), int64(n)*ps-int64(g.intn(ps))
					want.Advance(cfg.RTT)
					for cur := off; cur < off+length; {
						stop := (cur/ps + 1) * ps
						if stop > off+length {
							stop = off + length
						}
						if model.touch(cur / ps) {
							twinMem.Read(want, cur, stop-cur)
						} else {
							twinDisk.Read(want, cur, stop-cur)
							model.insert(cur / ps)
						}
						cur = stop
					}
					want.Advance(simclock.TransferTime(length, cfg.WireBandwidth))
					if err := srv.ReadThrough(got, off, length); err != nil {
						t.Fatalf("%s: %v", tag(step, "read"), err)
					}
					if got.Now() != want.Now() {
						t.Fatalf("%s: charged %v, model %v", tag(step, "read"), got.Now(), want.Now())
					}
				}
				if r := srv.recency(); fmt.Sprint(r) != fmt.Sprint(model.pages) {
					t.Fatalf("%s: recency MRU→LRU\n got %v\nwant %v", tag(step, "order"), r, model.pages)
				}
				if srv.CachedPages() != len(model.pages) {
					t.Fatalf("%s: %d pages cached, model %d", tag(step, "count"), srv.CachedPages(), len(model.pages))
				}
				for _, p := range model.pages {
					if !srv.has(p, false) {
						t.Fatalf("%s: resident page %d not reachable through the slot table", tag(step, "slots"), p)
					}
				}
				if p := pick(); srv.has(p, false) != (model.find(p) >= 0) {
					t.Fatalf("%s: page %d residency disagrees with the model", tag(step, "slots"), p)
				}
			}
		}
	}
}
