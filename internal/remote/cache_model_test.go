package remote

import (
	"fmt"
	"slices"
	"testing"

	"sleds/internal/cache"
	"sleds/internal/device"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
)

// A model check of the server's buffer cache (a cache.Cache holding one
// file of server-disk pages) against the obvious LRU: a slice of pages,
// most recent first. Seeded random ReadThrough / CachedBytes / insert
// sequences run on a mount's server and on the model; after every
// operation the cache's recency list must equal the slice (residency and
// eviction order in one comparison), CachedPages its length, and the
// mount must route a page to its fast or slow device as the slice says. A
// read must charge exactly what the model's hits and misses cost on a
// twin disk and memory.

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
			mem := device.NewMem(device.DefaultMemConfig(0))
			k := vfs.NewKernel(vfs.Config{PageSize: ps, CachePages: 8, MemDevice: mem})
			k.AttachDevice(mem)
			m, err := NewMount(k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv := m.Server()
			model := &modelLRU{capacity: capacity}
			diskCfg := device.DefaultDiskConfig(m.Device())
			twinDisk, twinMem := device.NewDisk(diskCfg), device.NewMem(device.DefaultMemConfig(0))
			got, want := simclock.New(), simclock.New()
			diskPages := diskCfg.Size / ps
			var keys []cache.Key

			g := lcg(uint64(seed)*2654435761 + uint64(capacity))
			// Pages come from a dense neighbourhood (one file's worth) and
			// from anywhere on the disk, which grows the cache's page table
			// to the largest a server holds.
			pick := func() int64 {
				if g.intn(2) == 0 {
					return int64(g.intn(3 * capacity))
				}
				return int64(g.intn(int(diskPages - 8)))
			}
			tag := func(step int, what string) string {
				return fmt.Sprintf("capacity %d seed %d step %d (%s)", capacity, seed, step, what)
			}
			for step := 0; step < 300; step++ {
				switch g.intn(4) {
				case 0: // a bare insert: refreshes a resident page, else evicts
					p := pick()
					if err := srv.cache.Insert(cache.Key{Page: p}, nil, false); err != nil {
						t.Fatalf("%s: %v", tag(step, "insert"), err)
					}
					model.insert(p)
				case 1: // a residency probe: must not touch recency
					p, n := pick(), 1+g.intn(5)
					off, length := p*ps+int64(g.intn(ps)), int64(n)*ps-int64(g.intn(ps))
					var cached int64
					for cur := off; cur < off+length; {
						stop := min((cur/ps+1)*ps, off+length)
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
					want.Advance(RTT)
					for cur := off; cur < off+length; {
						stop := min((cur/ps+1)*ps, off+length)
						if model.touch(cur / ps) {
							twinMem.Read(want, cur, stop-cur)
						} else {
							twinDisk.Read(want, cur, stop-cur)
							model.insert(cur / ps)
						}
						cur = stop
					}
					want.Advance(simclock.TransferTime(length, wireBandwidth))
					if err := srv.ReadThrough(got, off, length); err != nil {
						t.Fatalf("%s: %v", tag(step, "read"), err)
					}
					if got.Now() != want.Now() {
						t.Fatalf("%s: charged %v, model %v", tag(step, "read"), got.Now(), want.Now())
					}
				}
				keys = srv.cache.AppendRecencyTrace(keys[:0])
				order := make([]int64, len(keys))
				for i, key := range keys {
					order[i] = key.Page
				}
				if !slices.Equal(order, model.pages) {
					t.Fatalf("%s: recency MRU→LRU\n got %v\nwant %v", tag(step, "order"), order, model.pages)
				}
				if srv.CachedPages() != len(model.pages) {
					t.Fatalf("%s: %d pages cached, model %d", tag(step, "count"), srv.CachedPages(), len(model.pages))
				}
				for _, p := range model.pages {
					if dev := m.DeviceFor(nil, p*ps); dev != m.fastID {
						t.Fatalf("%s: resident page %d routed to device %d, not the fast path", tag(step, "route"), p, dev)
					}
				}
				p := pick()
				wantDev := m.slowID
				if model.find(p) >= 0 {
					wantDev = m.fastID
				}
				if dev := m.DeviceFor(nil, p*ps+int64(g.intn(ps))); dev != wantDev {
					t.Fatalf("%s: page %d routed to device %d, model says %d", tag(step, "route"), p, dev, wantDev)
				}
			}
		}
	}
}
