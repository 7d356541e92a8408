package experiments

// The experiment grids are embarrassingly parallel: every (experiment,
// file-size, mode) point boots its own Machine with its own virtual clock
// and its own deterministically derived seed, so points share no state and
// can run on any number of workers without changing a single output byte.
//
// Invariant: cross-run cache-state carryover (the paper's "the second run
// found the buffer cache in the state that the first run had left it")
// stays strictly serial *within* a point — `measured` runs its warm-up and
// measured runs back to back on the point's machine. Only whole points
// parallelize. Anything that would share a Machine, a Kernel, or a Clock
// across goroutines is a bug: the simulator is single-threaded by design.
//
// Determinism follows from two rules enforced here:
//
//  1. Every point's seed is a pure function of the base seed and the
//     point's coordinates (PointSeed) — never of execution order or of
//     RNG state left behind by another point.
//  2. Results are reduced in point-index order (RunGrid writes result i
//     into slot i), so rendered tables and figures are byte-identical
//     between -workers 1 and -workers N.

import (
	"fmt"
	"runtime"
	"sync"

	"sleds/internal/splitmix"
	"sleds/internal/vfs"
)

// Runner fans independent experiment points out to a fixed pool of
// workers. The zero value runs points serially on one worker.
type Runner struct {
	// Workers is the pool size; <= 0 selects GOMAXPROCS(0).
	Workers int
}

// runner builds the Runner an experiment configuration asks for.
func (c Config) runner() Runner { return Runner{Workers: c.Workers} }

// poolSize clamps the configured worker count to [1, n].
func (r Runner) poolSize(n int) int {
	w := r.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes point(i, mem) for every i in [0, n) on the worker pool and
// returns the error of the lowest-indexed failing point (so the reported
// failure does not depend on scheduling). mem is the worker goroutine's
// arena, Reset before every point: the one thing a worker's points share,
// and no byte of it is read across a Reset (vfs.HostMem). A panicking point
// is captured and surfaced as that point's error rather than crashing or
// hanging the sweep. All points are attempted even after a failure; they
// are independent and cheap relative to debugging a half-run grid.
func (r Runner) Run(n int, point func(i int, mem *vfs.HostMem) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < r.poolSize(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mem := new(vfs.HostMem)
			for i := range idx {
				mem.Reset()
				errs[i] = runPoint(i, mem, point)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runPoint invokes point(i, mem), converting a panic into an error so one
// bad point fails the sweep instead of killing the process mid-grid.
func runPoint(i int, mem *vfs.HostMem, point func(int, *vfs.HostMem) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiments: point %d panicked: %v", i, p)
		}
	}()
	return point(i, mem)
}

// RunGrid runs point over [0, n) on cfg's worker pool and collects the
// results in index order, which is what keeps parallel output identical
// to serial output: workers may finish in any order, but slot i always
// holds point i. A point's cfg is the sweep's on its worker's arena.
func RunGrid[T any](cfg Config, n int, point func(cfg Config, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := cfg.runner().Run(n, func(i int, mem *vfs.HostMem) error {
		pcfg := cfg
		pcfg.mem = mem
		v, err := point(pcfg, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PointSeed derives the RNG seed for one grid point from the base
// configuration seed, the experiment id, and the point's coordinates
// (typically size index and mode). It is a pure function — same inputs,
// same seed, on every run, at every worker count — and mixes every input
// through SplitMix64 so nearby points get unrelated seeds instead of the
// correlated streams that base+offset arithmetic produces.
//
// This is the declared root of the repository's seed-derivation chains:
// seedflow accepts any seed that traces here.
//
//sledlint:seed
func PointSeed(base int64, exp string, idxs ...int) int64 {
	h := splitmix.Mix(uint64(base) ^ splitmix.Gamma)
	for i := 0; i < len(exp); i++ {
		h = splitmix.Mix(h ^ uint64(exp[i]))
	}
	h = splitmix.Mix(h ^ uint64(len(exp)))
	for _, v := range idxs {
		h = splitmix.Mix(h ^ uint64(uint32(v)))
	}
	h = splitmix.Mix(h ^ uint64(len(idxs)))
	return int64(h)
}

// forPoint returns cfg with Seed replaced by the point's derived seed;
// the machine booted from the result gets point-local jitter.
func (c Config) forPoint(exp string, idxs ...int) Config {
	c.Seed = PointSeed(c.Seed, exp, idxs...)
	return c
}

// fileSeed is the workload-content seed for a sweep point. It mixes the
// experiment id and size index but deliberately NOT the mode, so the
// with-SLEDs and without-SLEDs halves of a pair read the byte-identical
// test file, as the paper's paired measurements do.
func fileSeed(cfg Config, exp string, sizeIdx int) uint64 {
	return uint64(PointSeed(cfg.Seed, exp, sizeIdx))
}
