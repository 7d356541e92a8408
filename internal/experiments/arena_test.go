package experiments

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"sync"
	"testing"

	"sleds/internal/apps/fitsapp"
	"sleds/internal/apps/wcapp"
	"sleds/internal/device"
	"sleds/internal/fits"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// pointRecord is everything a point can show for itself: measured virtual
// seconds and fault counts, the kernel's last run stats and clock, and a
// digest of bytes read back through the kernel.
type pointRecord struct {
	elapsed, faults []float64
	stats           vfs.RunStats
	now             int64
	digest          [sha256.Size]byte
}

func (r pointRecord) String() string {
	return fmt.Sprintf("elapsed %v faults %v stats %+v now %d digest %x", r.elapsed, r.faults, r.stats, r.now, r.digest[:6])
}

// digestFile reads path through the kernel, uncached, and hashes it.
func digestFile(k *vfs.Kernel, path string) ([sha256.Size]byte, error) {
	k.DropCaches()
	f, err := k.Open(path)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return [sha256.Size]byte{}, err
	}
	return [sha256.Size]byte(h.Sum(nil)), nil
}

// arenaPoints are point shapes that use an arena differently: text scanned
// by wc, a FITS image read three times and written out by fimhisto, and a
// trace replay over generated files under the engine.
var arenaPoints = []struct {
	name string
	run  func(cfg Config) (string, error)
}{
	{"wc", func(cfg Config) (string, error) {
		size := cfg.Sizes[len(cfg.Sizes)-1]
		m, err := BootMachine(cfg.forPoint("arena-wc", 0), ProfileUnix)
		if err != nil {
			return "", err
		}
		c, err := textFileOn(m, "ext2", fileSeed(cfg, "arena-wc", 0), size, cfg.PageSize)
		if err != nil {
			return "", err
		}
		workload.PlantMatch(c, size/2, needleBase)
		elapsed, faults, err := measured(cfg, m, func(int) error {
			_, err := wcapp.Run(m.Env(true, cfg.BufSize), "/data/testfile")
			return err
		})
		if err != nil {
			return "", err
		}
		rec := pointRecord{elapsed: elapsed.Values(), faults: faults.Values(), stats: m.K.RunStats(), now: int64(m.K.Clock.Now())}
		rec.digest, err = digestFile(m.K, "/data/testfile")
		return rec.String(), err
	}},
	{"fimhisto", func(cfg Config) (string, error) {
		im, err := imageForSize(cfg.Sizes[2])
		if err != nil {
			return "", err
		}
		m, err := BootMachine(cfg.forPoint("arena-fim", 0), ProfileLHEA)
		if err != nil {
			return "", err
		}
		if _, err := m.K.Create("/data/img.fits", m.Disk, fits.NewContent(im, fileSeed(cfg, "arena-fim", 0), cfg.PageSize)); err != nil {
			return "", err
		}
		elapsed, faults, err := measured(cfg, m, func(run int) error {
			if run >= 0 {
				if err := m.K.Remove("/data/out.fits"); err != nil {
					return err
				}
			}
			_, err := fitsapp.Fimhisto(m.Env(run%2 == 0, cfg.BufSize), "/data/img.fits", "/data/out.fits", 64, m.Disk)
			return err
		})
		if err != nil {
			return "", err
		}
		rec := pointRecord{elapsed: elapsed.Values(), faults: faults.Values(), stats: m.K.RunStats(), now: int64(m.K.Clock.Now())}
		rec.digest, err = digestFile(m.K, "/data/out.fits")
		return rec.String(), err
	}},
	{"etrace-mixed", func(cfg Config) (string, error) {
		cell, err := etracePoint(cfg.forPoint("arena-trace", 0), cfg, 1, "mixed", "sstf", true, workload.TextGen(uint64(cfg.Seed)))
		return fmt.Sprintf("%+v", cell), err
	}},
	{"two-kernels", func(cfg Config) (string, error) {
		// The eremote and efleet shape: a second kernel alive beside the
		// first inside one point, reading interleaved.
		var recs [2]pointRecord
		var ks [2]*vfs.Kernel
		var fs [2]*vfs.File
		for i := range ks {
			pcfg := cfg.forPoint("arena-two", i)
			pcfg.CachePages = cfg.CachePages / (i + 1)
			k, _ := newKernel(pcfg, device.Table2MemConfig(0))
			disk := k.AttachDevice(device.NewDisk(device.Table2DiskConfig(1)))
			if _, err := k.Create("/f", disk, workload.NewText(fileSeed(cfg, "arena-two", i), cfg.Sizes[1], cfg.PageSize)); err != nil {
				return "", err
			}
			f, err := k.Open("/f")
			if err != nil {
				return "", err
			}
			ks[i], fs[i] = k, f
		}
		hs := [2]hash.Hash{sha256.New(), sha256.New()}
		buf := make([]byte, cfg.BufSize)
		for pass := 0; pass < 2; pass++ {
			for off := int64(0); off < cfg.Sizes[1]; off += cfg.BufSize {
				for i, f := range fs {
					n, err := f.ReadAt(buf, off)
					if eofOK(err) != nil {
						return "", err
					}
					hs[i].Write(buf[:n])
				}
			}
		}
		for i, k := range ks {
			recs[i] = pointRecord{stats: k.RunStats(), now: int64(k.Clock.Now()), digest: [sha256.Size]byte(hs[i].Sum(nil))}
		}
		return recs[0].String() + " | " + recs[1].String(), nil
	}},
}

// TestPointOnDirtyArena: every point shape gives the same bytes, run stats
// and virtual time on an arena of its own and on one that every other
// shape — other content, other file sizes, other page size — used first.
func TestPointOnDirtyArena(t *testing.T) {
	cfg := tinyConfig()
	fresh := make([]string, len(arenaPoints))
	for i, p := range arenaPoints {
		pcfg := cfg
		pcfg.mem = new(vfs.HostMem)
		var err error
		if fresh[i], err = p.run(pcfg); err != nil {
			t.Fatalf("%s on a fresh arena: %v", p.name, err)
		}
		if got, err := p.run(cfg); err != nil || got != fresh[i] {
			t.Errorf("%s with no arena given: %v\n got  %s\n want %s", p.name, err, got, fresh[i])
		}
	}
	hm := new(vfs.HostMem)
	odd := cfg
	odd.PageSize, odd.CachePages, odd.mem = 8192, 40, hm
	for round := 0; round < 2; round++ {
		for i := len(arenaPoints) - 1; i >= 0; i-- {
			p := arenaPoints[i]
			hm.Reset()
			pcfg := cfg
			pcfg.mem = hm
			got, err := p.run(pcfg)
			if err != nil {
				t.Fatalf("%s on the shared arena: %v", p.name, err)
			}
			if got != fresh[i] {
				t.Errorf("round %d: %s differs on an arena other points dirtied\n got  %s\n want %s", round, p.name, got, fresh[i])
			}
			if i == 2 { // a point of another page size in between
				hm.Reset()
				if _, err := arenaPoints[0].run(odd); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestArenaBounded: after a sweep, each worker's arena holds no more than
// one point ever had out at once — page buffers for the caches' frames and
// the page in flight, and frame arenas for the caches alive together — and
// a store within its budget.
func TestArenaBounded(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = 2
	var mu sync.Mutex
	arenas := map[*vfs.HostMem]int{}
	n := 3 * len(arenaPoints)
	_, err := RunGrid(cfg, n, func(cfg Config, i int) (string, error) {
		mu.Lock()
		arenas[cfg.mem]++
		mu.Unlock()
		pcfg := cfg
		pcfg.Sizes = cfg.Sizes[i%3:] // other file sizes from point to point
		return arenaPoints[i%len(arenaPoints)].run(pcfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(arenas) == 0 || len(arenas) > cfg.Workers {
		t.Fatalf("%d arenas for %d workers", len(arenas), cfg.Workers)
	}
	points := 0
	for hm, served := range arenas {
		points += served
		bufs, frames, store := hm.Held()
		// two-kernels boots caches of CachePages and CachePages/2 frames.
		if most := cfg.CachePages + cfg.CachePages/2 + 2; bufs > most {
			t.Errorf("arena holds %d page buffers after %d points, want <= %d", bufs, served, most)
		}
		// Each cache's arena has a sentinel slot beside its frames.
		if most := (cfg.CachePages + 1) + (cfg.CachePages/2 + 1); frames > most {
			t.Errorf("arena holds %d cache frames after %d points, want <= %d", frames, served, most)
		}
		if store > workload.StoreBudget {
			t.Errorf("arena holds %d bytes of store, budget %d", store, workload.StoreBudget)
		}
	}
	if points != n {
		t.Errorf("arenas served %d points, want %d", points, n)
	}
}

var bootSink *Machine

// BenchmarkBootMachineArena boots a quick-scale machine and takes the first
// miss of a 1 MiB text file: on an arena of its own, as before, and on one
// an earlier point already grew. What is left on the reused arena is the
// boot itself (kernel, devices, calibration) and the file's bitmap; the page
// buffer, the cache's frames and page table, and the store slab are the
// arena's.
func BenchmarkBootMachineArena(b *testing.B) {
	cfg := QuickConfig()
	buf := make([]byte, cfg.PageSize)
	boot := func(b *testing.B, cfg Config) {
		m, err := BootMachine(cfg, ProfileUnix)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := textFileOn(m, "ext2", 7, 1<<20, cfg.PageSize); err != nil {
			b.Fatal(err)
		}
		f, err := m.K.Open("/data/testfile")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.ReadAt(buf, 0); err != nil {
			b.Fatal(err)
		}
		bootSink = m
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			boot(b, cfg)
		}
	})
	b.Run("reused", func(b *testing.B) {
		cfg.mem = new(vfs.HostMem)
		boot(b, cfg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg.mem.Reset()
			boot(b, cfg)
		}
	})
}
