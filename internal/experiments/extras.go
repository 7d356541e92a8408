package experiments

import (
	"fmt"
	"strings"

	"sleds/internal/apps/appenv"
	"sleds/internal/apps/findapp"
	"sleds/internal/apps/gmcapp"
	"sleds/internal/apps/grepapp"
	"sleds/internal/cache"
	"sleds/internal/core"
	"sleds/internal/hsm"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// Fig3Trace reproduces the paper's Figure 3 as a textual trace: the cache
// contents before, during and after two linear passes over a five-block
// file through a three-frame LRU cache, followed by a SLEDs-ordered second
// pass for contrast.
func Fig3Trace() string {
	var b strings.Builder
	b.WriteString("== fig3: movement of data among storage levels during two linear passes ==\n")
	b.WriteString("five-block file, three-frame LRU cache; rows are cache contents (MRU first)\n\n")

	c := cache.New(3, cache.LRU, nil)
	var trace []cache.Key // snapshot scratch, one per render point
	render := func(label string) {
		fmt.Fprintf(&b, "%-24s [", label)
		trace = c.AppendRecencyTrace(trace[:0])
		for i := 0; i < 3; i++ {
			if i < len(trace) {
				fmt.Fprintf(&b, " %d", trace[i].Page)
			} else {
				b.WriteString(" e")
			}
		}
		b.WriteString(" ]\n")
	}
	access := func(p int64) (missed bool) {
		if _, ok := c.Get(cache.Key{File: 1, Page: p}); !ok {
			c.Insert(cache.Key{File: 1, Page: p}, nil, false)
			return true
		}
		return false
	}

	render("before first pass")
	misses := 0
	for p := int64(1); p <= 5; p++ {
		if access(p) {
			misses++
		}
	}
	render("after first pass")
	fmt.Fprintf(&b, "%-24s %d of 5 blocks fetched\n\n", "first pass:", misses)

	misses = 0
	for p := int64(1); p <= 5; p++ {
		if access(p) {
			misses++
		}
	}
	render("after second linear pass")
	fmt.Fprintf(&b, "%-24s %d of 5 blocks fetched (no reuse: the Figure 3 pathology)\n\n", "second pass:", misses)

	// Rebuild the post-first-pass state, then run the SLEDs order.
	c = cache.New(3, cache.LRU, nil)
	for p := int64(1); p <= 5; p++ {
		access(p)
	}
	misses = 0
	for _, p := range []int64{3, 4, 5, 1, 2} {
		if access(p) {
			misses++
		}
	}
	render("after SLEDs-ordered pass")
	fmt.Fprintf(&b, "%-24s %d of 5 blocks fetched (cached tail read first)\n", "SLEDs pass:", misses)
	return b.String()
}

// FindReport is the E-FIND experiment's product.
type FindReport struct {
	Cheap     []findapp.Result // -latency under the threshold
	Expensive []findapp.Result // -latency over the threshold
	Threshold string
	Figure    Figure
}

// EFind demonstrates §5.2's find -latency pruning on a tree spanning
// disk, NFS and tape, with one file warmed into RAM: the cheap set must
// be exactly the cached file, and the expensive set must include all
// tape-resident data.
func EFind(cfg Config) (FindReport, error) {
	m, err := BootMachine(cfg.forPoint("efind"), ProfileUnix)
	if err != nil {
		return FindReport{}, err
	}
	size := cfg.Sizes[0]
	for _, dir := range []string{"/data/src", "/data/archive"} {
		if err := m.K.MkdirAll(dir); err != nil {
			return FindReport{}, err
		}
	}
	mk := func(path, fs string, seed uint64) error {
		dev, err := deviceByName(m, fs)
		if err != nil {
			return err
		}
		_, err = m.K.Create(path, dev, workload.NewText(seed, size, cfg.PageSize))
		return err
	}
	files := []struct {
		path, fs string
	}{
		{"/data/src/hot.c", "ext2"},
		{"/data/src/cold.c", "ext2"},
		{"/data/src/remote.c", "nfs"},
		{"/data/archive/run1.dat", "tape"},
		{"/data/archive/run2.dat", "tape"},
	}
	for i, f := range files {
		if err := mk(f.path, f.fs, fileSeed(cfg, "efind", i)); err != nil {
			return FindReport{}, err
		}
	}
	// Warm hot.c fully into RAM.
	if err := warmRange(m.K, "/data/src/hot.c", 0, size, (*vfs.File).PageIn); err != nil {
		return FindReport{}, err
	}

	// Threshold: midway between the estimated delivery time of a fully
	// cached file of this size and of a disk-resident one, so the split
	// is scale-independent.
	memE, _ := m.Table.Memory()
	diskE, _ := m.Table.Device(m.Disk)
	cachedEst := memE.Latency + float64(size)/memE.Bandwidth
	diskEst := diskE.Latency + float64(size)/diskE.Bandwidth
	thresholdSec := (cachedEst + diskEst) / 2
	threshold := fmt.Sprintf("under %.3gs", thresholdSec)
	cheapPred := findapp.LatencyPred{Op: findapp.OpLess, Seconds: thresholdSec, Unit: 1}
	expensivePred := findapp.LatencyPred{Op: findapp.OpMore, Seconds: thresholdSec, Unit: 1}
	env := m.Env(true, cfg.BufSize)
	cheap, err := findapp.Run(env, "/data", findapp.Options{Latency: &cheapPred, Plan: core.PlanLinear, FilesOnly: true})
	if err != nil {
		return FindReport{}, err
	}
	expensive, err := findapp.Run(env, "/data", findapp.Options{Latency: &expensivePred, Plan: core.PlanLinear, FilesOnly: true})
	if err != nil {
		return FindReport{}, err
	}

	fig := Figure{
		ID: "efind", Title: "find -latency pruning across disk, NFS and tape",
		XLabel: "file", YLabel: "estimated delivery seconds",
	}
	var pts []Point
	for i, r := range expensive {
		pts = append(pts, Point{X: float64(i), Mean: r.Seconds})
	}
	fig.Series = []Series{{Name: "estimated delivery (expensive set)", Points: pts}}
	return FindReport{Cheap: cheap, Expensive: expensive, Threshold: threshold, Figure: fig}, nil
}

// Render draws the two sets as the text block sledsbench prints.
func (r FindReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== efind: find -latency pruning (threshold %s) ==\n", r.Threshold)
	b.WriteString("cheap (worth reading now):\n")
	for _, f := range r.Cheap {
		fmt.Fprintf(&b, "  %-28s %10.4g s\n", f.Path, f.Seconds)
	}
	b.WriteString("expensive (pruned):\n")
	for _, f := range r.Expensive {
		fmt.Fprintf(&b, "  %-28s %10.4g s\n", f.Path, f.Seconds)
	}
	return b.String()
}

// EGmc produces the gmc properties panel for a half-cached file — the
// report-latency use of SLEDs (§3.3, Figure 6).
func EGmc(cfg Config) (gmcapp.Report, error) {
	m, err := BootMachine(cfg.forPoint("egmc"), ProfileUnix)
	if err != nil {
		return gmcapp.Report{}, err
	}
	size := cfg.Sizes[len(cfg.Sizes)/2]
	if _, err := textFileOn(m, "ext2", fileSeed(cfg, "egmc", 0), size, cfg.PageSize); err != nil {
		return gmcapp.Report{}, err
	}
	// Read the second half so its pages are resident.
	if err := warmRange(m.K, "/data/testfile", size/2, size/2, (*vfs.File).PageIn); err != nil {
		return gmcapp.Report{}, err
	}
	return gmcapp.Properties(m.Env(true, cfg.BufSize), "/data/testfile")
}

// EHSMResult carries a two-mode grep -q comparison: the HSM and the
// remote-mount extension experiments.
type EHSMResult struct {
	WithoutSeconds float64
	WithSeconds    float64
	Speedup        float64
	Figure         Figure
	heading        string // Render's "== ... ==" line
}

// Render draws the comparison as the text block sledsbench prints.
func (r EHSMResult) Render() string {
	return fmt.Sprintf("== %s ==\nwithout SLEDs: %8.4g s\nwith SLEDs:    %8.4g s\nspeedup:       %8.4g x\n",
		r.heading, r.WithoutSeconds, r.WithSeconds, r.Speedup)
}

// grepFirstSpeedup measures a tail-cached grep -q in both modes — boot
// sets the scenario up for a mode and returns the application environment
// and the file to search — and packages the pair; notes is the figure
// note's format, taking the speedup.
func grepFirstSpeedup(cfg Config, id, heading, title, notes string,
	boot func(cfg Config, mode int) (*appenv.Env, string, error)) (EHSMResult, error) {
	fig, err := twoModeFigure(cfg, id, title, "", func(cfg Config, mode int) (float64, error) {
		env, path, err := boot(cfg, mode)
		if err != nil {
			return 0, err
		}
		env.K.ResetDeviceState()
		return elapsedSeconds(env.K, func() error {
			got, err := grepapp.Run(env, path, needleBase, grepapp.Options{FirstOnly: true})
			if err == nil && len(got) != 1 {
				err = fmt.Errorf("%s: found %d matches", id, len(got))
			}
			return err
		})
	})
	if err != nil {
		return EHSMResult{}, err
	}
	pts := fig.Series[0].Points
	res := EHSMResult{heading: heading, WithoutSeconds: pts[0].Mean, WithSeconds: pts[1].Mean, Speedup: pts[0].Mean / pts[1].Mean}
	fig.Notes = fmt.Sprintf(notes, res.Speedup)
	res.Figure = fig
	return res, nil
}

// EHSM measures the paper's prediction that SLEDs gains are much larger
// on hierarchical storage: grep -q over a tape-resident file whose tail
// has been staged to disk and partially cached in RAM. Without SLEDs the
// search reads linearly from the tape head; with SLEDs it reads the
// RAM/disk-staged tail first and finds the match without touching tape.
func EHSM(cfg Config) (EHSMResult, error) {
	size := cfg.Sizes[len(cfg.Sizes)/2-1]
	return grepFirstSpeedup(cfg, "ehsm", "ehsm: grep -q on HSM (staged tail)",
		"grep -q on a tape-resident file with a staged tail (HSM extension)",
		"x=0 without SLEDs, x=1 with SLEDs; speedup %.0fx — the HSM regime the paper predicts",
		func(cfg Config, mode int) (*appenv.Env, string, error) {
			m, err := BootMachine(cfg.forPoint("ehsm", 0, mode), ProfileUnix) // size index 0: one size
			if err != nil {
				return nil, "", err
			}
			if _, err := hsm.New(m.K, hsm.Config{
				Tape:     m.Tape,
				Disk:     m.Disk,
				Capacity: size, // stage can hold the whole file
			}); err != nil {
				return nil, "", err
			}
			c, err := textFileOn(m, "tape", fileSeed(cfg, "ehsm", 0), size, cfg.PageSize)
			if err != nil {
				return nil, "", err
			}
			// The match sits in the tail, which a previous consumer staged
			// and cached.
			workload.PlantMatch(c, size-size/4, needleBase)
			return m.Env(mode == 1, cfg.BufSize), "/data/testfile",
				warmRange(m.K, "/data/testfile", size/2, size/2, (*vfs.File).PageIn)
		})
}
