package experiments

// Every sweep is one RunGrid over declared axes. A point is a function of
// the sweep's Config and its coordinates alone: it boots its own Machine
// with its own virtual clock and derived seed, and returns everything it
// measured for the sweep to reduce. Points share no state, so they run on
// any number of workers without changing a single output byte.
//
// Invariant: cross-run cache-state carryover (the paper's "the second run
// found the buffer cache in the state that the first run had left it")
// stays strictly serial *within* a point — `measured` runs its warm-up and
// measured runs back to back on the point's machine. Only whole points
// parallelize, and a point runs no grid of its own. Anything that would
// share a Machine, a Kernel, or a Clock across goroutines is a bug: the
// simulator is single-threaded by design.
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
	"errors"
	"fmt"
	"runtime"
	"sync"

	"sleds/internal/splitmix"
	"sleds/internal/vfs"
)

// poolSize clamps the configured worker count (<= 0 selects GOMAXPROCS)
// to [1, n].
func poolSize(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// RunGrid runs point at every coordinate tuple of the grid whose axis
// lengths are dims — at[i] is the i-th coordinate, the last axis varies
// fastest — on a pool of cfg.Workers workers, and returns the results in
// that order: workers may finish in any order, but slot i always holds
// point i, which is what keeps parallel output identical to serial
// output. A point's cfg is the sweep's on its worker's arena (vfs.HostMem),
// Reset before every point; it is the one thing a worker's points share,
// and no byte of it is read across a Reset.
//
// A panicking point becomes its error, naming its coordinates, rather than
// crashing or hanging the sweep; every point is attempted, and the error
// returned is the lowest-indexed point's, whatever the scheduling. A point
// may not run a grid of its own: RunGrid refuses a cfg that already
// carries a worker's arena.
func RunGrid[T any](cfg Config, dims []int, point func(cfg Config, at []int) (T, error)) ([]T, error) {
	if cfg.mem != nil {
		return nil, errors.New("experiments: RunGrid called from inside a grid point")
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	out := make([]T, n)
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < poolSize(cfg.Workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pcfg := cfg
			pcfg.mem = new(vfs.HostMem)
			for i := range idx {
				pcfg.mem.Reset()
				out[i], errs[i] = runPoint(pcfg, dims, i, point)
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
			return nil, err
		}
	}
	return out, nil
}

// runPoint runs the point at grid index i, converting a panic into an
// error that names its coordinates, so one bad point fails the sweep
// instead of killing the process mid-grid, and can be re-run by hand.
func runPoint[T any](cfg Config, dims []int, i int, point func(Config, []int) (T, error)) (v T, err error) {
	at := make([]int, len(dims))
	for k := len(dims) - 1; k >= 0; k-- {
		at[k], i = i%dims[k], i/dims[k]
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiments: point %v panicked: %v", at, p)
		}
	}()
	return point(cfg, at)
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
