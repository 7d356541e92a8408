// Pipeline: composing the two information flows of the paper's Figure 1.
//
// A processing loop re-reads a warm file larger than the cache while
// doing per-chunk computation. Four strategies run head-to-head:
//
//	plain        demand paging, file order
//	hints        disclose upcoming reads (I/O overlaps compute)
//	sleds        pick-library reordering (exploits leftover cache state)
//	sleds+hints  both: reorder, and disclose the reordered schedule
//
// Hints can only help within the run; SLEDs exploit what previous runs
// left behind; together they compose.
//
//	go run ./examples/pipeline
package main

import (
	"errors"
	"fmt"
	"io"
	"log"

	"sleds"
	"sleds/internal/simclock"
)

const (
	cacheBytes = int64(16 << 20)
	fileBytes  = 2 * cacheBytes
	chunk      = int64(64 << 10)
	// computeRate models the pipeline's per-byte processing cost.
	computeRate = 20 * float64(1<<20)
	hintDepth   = 8
)

func main() {
	fmt.Printf("second pass over a warm %d MB file, %d MB cache, computing at %.0f MB/s:\n\n",
		fileBytes>>20, cacheBytes>>20, computeRate/(1<<20))
	for _, strat := range []struct {
		name            string
		useSLEDs, hints bool
	}{
		{"plain", false, false},
		{"hints", false, true},
		{"sleds", true, false},
		{"sleds+hints", true, true},
	} {
		sec, faults, err := run(strat.useSLEDs, strat.hints)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %8.2fs elapsed  %6d faults\n", strat.name, sec, faults)
	}
}

// run boots a fresh machine, warms the file with one pass, and times the
// processing pass under the chosen strategy.
func run(useSLEDs, useHints bool) (float64, int64, error) {
	sys, err := sleds.NewSystem(sleds.Config{CacheBytes: cacheBytes})
	if err != nil {
		return 0, 0, err
	}
	const path = "/data/input"
	if err := sys.CreateTextFile(path, sleds.OnDisk, 42, fileBytes); err != nil {
		return 0, 0, err
	}
	f, err := sys.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	if _, err := io.Copy(io.Discard, f); err != nil { // warm pass
		return 0, 0, err
	}
	sys.ResetStats()
	start := sys.Now()

	// Build the read plan: file order, or the picker's advice.
	type span struct{ off, n int64 }
	var plan []span
	if useSLEDs {
		p, err := sys.NewPicker(f, sleds.PickOptions{BufSize: chunk})
		if err != nil {
			return 0, 0, err
		}
		for {
			off, n, err := p.NextRead()
			if errors.Is(err, sleds.ErrPickFinished) {
				break
			}
			if err != nil {
				return 0, 0, err
			}
			plan = append(plan, span{off, n})
		}
		p.Finish()
	} else {
		for off := int64(0); off < fileBytes; off += chunk {
			plan = append(plan, span{off, min(chunk, fileBytes-off)})
		}
	}

	buf := make([]byte, chunk)
	for i, s := range plan {
		if useHints {
			for d := 1; d <= hintDepth && i+d < len(plan); d++ {
				sys.WillNeed(f, plan[i+d].off, plan[i+d].n)
			}
		}
		if _, err := f.ReadAt(buf[:s.n], s.off); err != nil && err != io.EOF {
			return 0, 0, err
		}
		sys.Kernel().ChargeCPUBytes(s.n, computeRate) // "process" the chunk
	}
	elapsed := float64(sys.Now()-start) / float64(simclock.Second)
	return elapsed, sys.Stats().Faults, nil
}
