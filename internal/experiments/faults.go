package experiments

import (
	"errors"
	"fmt"
	"strings"

	"sleds/internal/apps/grepapp"
	"sleds/internal/core"
	"sleds/internal/faults"
	"sleds/internal/simclock"
	"sleds/internal/sledlib"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// The efaults experiment measures degraded-mode SLEDs: a machine holds the
// same needle in two places — a small file on NFS and a file
// efaultsDiskFactor times larger on the local disk — and a grep -q wants
// either copy. Healthy, the NFS copy is the cheaper read (its transfer is
// a fraction of the big disk scan) and every mode reads it. Then the NFS
// server degrades: a deterministic injector fails a quarter of its
// requests with full RPC timeouts. A blind reader still goes to NFS first
// and absorbs the retry tail; a SLED-guided reader sees the fault-inflated
// NFS estimates (the kernel's retry loop feeds every observed fault into
// the table's health state) and routes to the healthy disk copy instead.

const (
	// efaultsDiskFactor sizes the disk copy relative to the NFS copy. It
	// must exceed bwDisk/bwNFS * (1 + latNFS/size) so the healthy NFS
	// estimate wins at every sweep size — 16x does, for both the paper
	// and quick scales, with Table 2's ~9 MB/s disk and 1 MB/s NFS.
	efaultsDiskFactor = 16
	// efaultsPFault / efaultsMaxConsecutive parameterise the degraded NFS
	// injector: a quarter of fresh requests start a fault episode of at
	// most 3 failed attempts — strictly under the kernel's 5 attempts per
	// request, so the experiment completes without EIO by construction.
	efaultsPFault         = 0.25
	efaultsMaxConsecutive = 3
	// efaultsHalfLife stretches the health-penalty decay for this
	// experiment: it models a server that stays degraded for the whole
	// sweep, so the penalty the burn-in built must survive the measured
	// runs (which, routed to the disk, never touch NFS and would
	// otherwise let the default 60 s half-life erase it). Decay itself is
	// exercised by internal/core's tests.
	efaultsHalfLife = 1800 * simclock.Second
	// efaultsNeedleFrac places the needle (numerator/denominator percent
	// of the file) far enough in that the retry tail dominates a blind
	// degraded read.
	efaultsNeedleFrac = 55
)

// efaultsSizes returns the NFS-copy size sweep: the first four sizes of
// the configured sweep (the disk copy is efaultsDiskFactor larger).
func efaultsSizes(cfg Config) []int64 {
	n := 4
	if len(cfg.Sizes) < n {
		n = len(cfg.Sizes)
	}
	return cfg.Sizes[:n]
}

// FaultsCounters is the per-run fault accounting of one degraded cell.
type FaultsCounters struct {
	SizeMB       float64
	Mode         string // "blind" or "sleds"
	DeviceFaults int64
	Retries      int64
	RetryWaitSec float64
	EIOs         int64
}

// FaultsReport is the efaults experiment's product: the four-way sweep
// figure, fault accounting for the degraded cells, and a serial demo of
// the degradation-aware SLED surface (gmc-style panels plus pruning).
type FaultsReport struct {
	Figure   Figure
	Counters []FaultsCounters

	// HealthyPanel / DegradedPanel are the SLED vectors of the same NFS
	// file before and after the server degrades, one SLED per line.
	HealthyPanel  []string
	DegradedPanel []string
	// Kept / Pruned is sledlib.PruneDegraded's split of the demo file set.
	Kept, Pruned []string
}

// efaultsNames are the columns of a size's row: (healthy, degraded) x (blind, sleds).
var efaultsNames = []string{"healthy blind", "healthy with SLEDs", "degraded blind", "degraded with SLEDs"}

// efaultsCell is one cell's plotted point and, in a degraded cell, the
// fault accounting of its last measured run.
type efaultsCell struct {
	pt       Point
	counters []FaultsCounters
}

// efaultsPoint runs the cell in column col of size sizeIdx's row. Both
// file contents and the injector's fault schedule derive from the base
// seed and the size index only, so all four cells of a row search
// byte-identical files and both degraded cells face the identical fault
// pattern.
func efaultsPoint(cfg Config, sizeIdx, col int) (efaultsCell, error) {
	degraded, useSLEDs := col >= 2, col%2 == 1
	m, err := BootMachine(cfg.forPoint("efaults", sizeIdx, col), ProfileUnix)
	if err != nil {
		return efaultsCell{}, err
	}
	size := efaultsSizes(cfg)[sizeIdx]
	diskSize := efaultsDiskFactor * size

	nfsC := workload.NewText(fileSeed(cfg, "efaults-nfs", sizeIdx), size, cfg.PageSize)
	if _, err := m.K.Create("/data/remote.log", m.NFS, nfsC); err != nil {
		return efaultsCell{}, err
	}
	workload.PlantMatch(nfsC, size*efaultsNeedleFrac/100, needleBase)
	diskC := workload.NewText(fileSeed(cfg, "efaults-disk", sizeIdx), diskSize, cfg.PageSize)
	if _, err := m.K.Create("/data/local.log", m.Disk, diskC); err != nil {
		return efaultsCell{}, err
	}
	workload.PlantMatch(diskC, diskSize*efaultsNeedleFrac/100, needleBase)

	m.Table.SetHealthHalfLife(efaultsHalfLife)
	if degraded {
		injectFaults(m.K, m.NFS, faults.Config{
			Seed:           PointSeed(cfg.Seed, "efaults-inj", sizeIdx),
			PFault:         efaultsPFault,
			MaxConsecutive: efaultsMaxConsecutive,
		})
		// Burn-in: one full pass over the NFS copy observes the server's
		// fault pattern — every retried timeout feeds Table.ObserveFault
		// through the kernel's fault observer — and builds the health
		// penalty the SLED-guided runs then route on. Blind runs get the
		// same burn-in, so the modes differ only in what they do with the
		// knowledge.
		if err := burnIn(m, "/data/remote.log", size, cfg.BufSize); err != nil {
			return efaultsCell{}, err
		}
	}

	paths := []string{"/data/remote.log", "/data/local.log"}
	env := m.Env(useSLEDs, cfg.BufSize)
	counters := FaultsCounters{SizeMB: mbOf(size), Mode: "blind"}
	if useSLEDs {
		counters.Mode = "sleds"
	}
	elapsed, _, err := measured(cfg, m, func(int) error {
		// Every run starts cache-cold: the measurement is the routing
		// decision and its I/O consequence, not cache carryover (which
		// would let run 2+ of every mode read the needle from RAM).
		m.K.DropCaches()
		order := paths
		if useSLEDs {
			var err error
			if order, err = fileSetOrder(m, paths, core.PlanLinear); err != nil {
				return err
			}
		}
		found := false
		for _, p := range order {
			got, err := grepapp.Run(env, p, needleBase, grepapp.Options{FirstOnly: true})
			if errors.Is(err, vfs.ErrIO) {
				// The retry policy gave up on this file (possible when a
				// global -faults profile stacks a second injector over the
				// experiment's own): do what grep does — report nothing
				// for it and move to the next file. The EIO is already in
				// RunStats.
				continue
			}
			if err != nil {
				return err
			}
			if len(got) > 0 {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("efaults: needle %q not found in %v", needleBase, order)
		}
		rs := m.K.RunStats()
		counters.DeviceFaults, counters.Retries = rs.DeviceFaults, rs.Retries
		counters.RetryWaitSec, counters.EIOs = rs.RetryWait.Seconds(), rs.EIOs
		return nil
	})
	if err != nil {
		return efaultsCell{}, err
	}
	cell := efaultsCell{pt: pointFrom(mbOf(size), elapsed.Summarize())}
	if degraded {
		cell.counters = []FaultsCounters{counters}
	}
	return cell, nil
}

// burnIn reads the whole file in bufSize chunks, the request granularity
// of an ordinary consumer. Chunked reads matter: each chunk is its own
// device request and its own fault opportunity, so the burn-in samples
// the injector's fault rate instead of issuing one giant request.
func burnIn(m *Machine, path string, size, bufSize int64) error {
	f, err := m.K.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, bufSize)
	for off := int64(0); off < size; off += bufSize {
		if _, err := f.ReadAt(buf[:min(bufSize, size-off)], off); err != nil {
			if errors.Is(err, vfs.ErrIO) {
				continue // unreadable chunk; the fault is observed either way
			}
			return fmt.Errorf("efaults: burn-in at %d: %w", off, err)
		}
	}
	return nil
}

// efaultsDemo fills in the report's serial demo: the same NFS file's SLED
// vector before and after the server degrades, and PruneDegraded's verdict
// on the two-file set. Run after the grid (it is one small machine).
func efaultsDemo(cfg Config, r *FaultsReport) error {
	m, err := BootMachine(cfg.forPoint("efaults-demo"), ProfileUnix)
	if err != nil {
		return err
	}
	size := efaultsSizes(cfg)[0]
	if _, err := m.K.Create("/data/remote.log", m.NFS,
		workload.NewText(fileSeed(cfg, "efaults-demo-nfs", 0), size, cfg.PageSize)); err != nil {
		return err
	}
	if _, err := m.K.Create("/data/local.log", m.Disk,
		workload.NewText(fileSeed(cfg, "efaults-demo-disk", 0), size, cfg.PageSize)); err != nil {
		return err
	}
	m.Table.SetHealthHalfLife(efaultsHalfLife)

	panel := func(path string) ([]string, error) {
		n, err := m.K.Stat(path)
		if err != nil {
			return nil, err
		}
		sleds, err := core.Query(m.K, m.Table, n)
		if err != nil {
			return nil, err
		}
		out := make([]string, len(sleds))
		for i, s := range sleds {
			out[i] = s.String()
		}
		return out, nil
	}
	if r.HealthyPanel, err = panel("/data/remote.log"); err != nil {
		return err
	}

	injectFaults(m.K, m.NFS, faults.Config{
		Seed:           PointSeed(cfg.Seed, "efaults-demo-inj", 0),
		PFault:         efaultsPFault,
		MaxConsecutive: efaultsMaxConsecutive,
	})
	if err := burnIn(m, "/data/remote.log", size, cfg.BufSize); err != nil {
		return err
	}
	m.K.DropCaches()

	if r.DegradedPanel, err = panel("/data/remote.log"); err != nil {
		return err
	}
	r.Kept, r.Pruned = sledlib.PruneDegraded(m.K, m.Table,
		[]string{"/data/remote.log", "/data/local.log"}, 0.5)
	return nil
}

// EFaults regenerates the degraded-mode sweep: grep -q time for blind and
// SLED-guided file-set orders, on a healthy machine and on one whose NFS
// server times out a quarter of its requests.
func EFaults(cfg Config) (FaultsReport, error) {
	cells, err := RunGrid(cfg, []int{len(efaultsSizes(cfg)), len(efaultsNames)}, func(cfg Config, at []int) (efaultsCell, error) {
		return efaultsPoint(cfg, at[0], at[1])
	})
	if err != nil {
		return FaultsReport{}, err
	}
	points := make([]Point, len(cells))
	var counters []FaultsCounters
	for i, c := range cells {
		points[i], counters = c.pt, append(counters, c.counters...)
	}
	r := FaultsReport{
		Figure: Figure{
			ID:     "efaults",
			Title:  "grep -q with the needle on NFS and (16x larger) on disk, healthy vs degraded NFS",
			XLabel: "NFS MB",
			YLabel: "seconds",
			Series: columns(points, efaultsNames),
			Notes: "degraded NFS times out 25% of requests; blind readers go to NFS first and absorb the " +
				"retry tail, SLED-guided readers see the fault-inflated estimates and route to the disk copy",
		},
		Counters: counters,
	}
	if err := efaultsDemo(cfg, &r); err != nil {
		return FaultsReport{}, err
	}
	return r, nil
}

// Render draws the report as the deterministic text block sledsbench
// prints (and the determinism CI diffs across worker counts).
func (r FaultsReport) Render() string {
	var b strings.Builder
	b.WriteString(r.Figure.Render())
	b.WriteString("fault accounting, degraded cells (last measured run):\n")
	fmt.Fprintf(&b, "  %8s %6s %8s %8s %12s %6s\n", "NFS MB", "mode", "faults", "retries", "retry wait s", "EIOs")
	for _, c := range r.Counters {
		fmt.Fprintf(&b, "  %8.4g %6s %8d %8d %12.4g %6d\n",
			c.SizeMB, c.Mode, c.DeviceFaults, c.Retries, c.RetryWaitSec, c.EIOs)
	}
	b.WriteString("NFS file SLEDs before degradation:\n")
	for _, s := range r.HealthyPanel {
		b.WriteString("  " + s + "\n")
	}
	b.WriteString("NFS file SLEDs after degradation (latency includes health penalty):\n")
	for _, s := range r.DegradedPanel {
		b.WriteString("  " + s + "\n")
	}
	fmt.Fprintf(&b, "PruneDegraded(min confidence 0.5): keep %v, degraded %v\n", r.Kept, r.Pruned)
	return b.String()
}
