// Package experiments regenerates every table and figure in the paper's
// evaluation (§5) against the simulated storage stack, following the
// paper's methodology: warm caches, one discarded warm-up run, twelve
// measured runs per point, means with 90% confidence intervals.
//
// Each experiment builds a fresh machine per (file size, mode) point,
// carries cache state between consecutive runs of the same mode (the
// paper: "the second run of grep without SLEDs found the file system
// buffer cache in the state that the first run had left it"), and reports
// virtual-time elapsed seconds and hard page-fault counts.
package experiments

import (
	"fmt"

	"sleds/internal/cache"
	"sleds/internal/faults"
	"sleds/internal/vfs"
)

// MB is 2^20 bytes.
const MB = int64(1 << 20)

// Config scales an experiment. PaperConfig reproduces the paper's setup;
// QuickConfig shrinks everything ~16x for tests and testing.B benches
// while preserving the cache-to-file-size ratios that give the figures
// their shape.
type Config struct {
	PageSize   int
	CachePages int     // page frames available for file data
	Sizes      []int64 // file sizes to sweep
	Runs       int     // measured runs per point (after 1 discarded warm-up)
	CDFRuns    int     // runs for the Figure 13 CDF
	BufSize    int64   // application read-chunk size
	Seed       int64
	JitterFrac float64 // background-activity perturbation of I/O times

	// Workers sizes the parallel experiment runner's pool (see runner.go);
	// <= 0 selects GOMAXPROCS. Any value produces byte-identical output.
	Workers int

	// FaultProfile, when set to a profile from internal/faults ("light",
	// "heavy"), wraps every non-memory device of every booted machine in a
	// deterministic fault injector after calibration. "" and "off" disable
	// injection. The efaults experiment ignores this and does its own
	// targeted injection; the knob exists for whole-suite robustness runs
	// (make faults-smoke).
	FaultProfile string

	// Ablation knobs (zero values reproduce the paper's setup).
	Policy         cache.Policy // page replacement (default LRU)
	ReadaheadPages int          // demand-fault readahead (default 0)
	// mem is the worker's arena, set by RunGrid for one point; nil elsewhere.
	mem *vfs.HostMem
}

// PaperConfig is the full-scale configuration: 4 KiB pages, a 64 MB
// machine with ~44 MB of file cache, file sizes 8..128 MB in steps of 8,
// twelve measured runs (90% CIs), as in §5.1.
func PaperConfig() Config {
	var sizes []int64
	for mb := int64(8); mb <= 128; mb += 8 {
		sizes = append(sizes, mb*MB)
	}
	return Config{
		PageSize:   4096,
		CachePages: 44 * int(MB) / 4096,
		Sizes:      sizes,
		Runs:       12,
		CDFRuns:    36,
		BufSize:    64 << 10,
		Seed:       20000923, // OSDI 2000
		JitterFrac: 0.02,
	}
}

// LHEASizes returns the paper's LHEASOFT sweep (§5.3: "only for file
// sizes up to 64 MB") scaled to the given config: the first half of the
// size sweep.
func (c Config) LHEASizes() []int64 {
	n := len(c.Sizes) / 2
	if n == 0 {
		n = len(c.Sizes)
	}
	return c.Sizes[:n]
}

// QuickConfig is a ~16x-scaled configuration with the same shape: ~2.75 MB
// of cache, file sizes 0.5..8 MB, fewer runs. It exists so the test suite
// and testing.B benches can regenerate every figure in seconds.
func QuickConfig() Config {
	var sizes []int64
	for kb := int64(512); kb <= 8192; kb += 512 {
		sizes = append(sizes, kb<<10)
	}
	return Config{
		PageSize:   4096,
		CachePages: int(2816 << 10 / 4096), // 2.75 MB
		Sizes:      sizes,
		Runs:       5,
		CDFRuns:    12,
		BufSize:    16 << 10,
		Seed:       20000923,
		JitterFrac: 0.02,
	}
}

// validate panics on nonsensical configurations; experiments are driver
// code, so misconfiguration is a programming error.
func (c Config) validate() {
	if c.PageSize <= 0 || c.CachePages <= 0 || c.Runs <= 0 || len(c.Sizes) == 0 {
		panic(fmt.Sprintf("experiments: invalid config %+v", c))
	}
	if c.FaultProfile != "" {
		if _, ok := faults.ProfileConfig(c.FaultProfile, 0); !ok {
			panic(fmt.Sprintf("experiments: unknown fault profile %q", c.FaultProfile))
		}
	}
}

// CacheBytes returns the file-cache capacity in bytes.
func (c Config) CacheBytes() int64 { return int64(c.CachePages) * int64(c.PageSize) }
