package iosched

// Queueing theory as an outside truth for the engine: results that hold
// for any correct single-server queue, so the engine is checked against
// something it was not written from, not against its own reference.

import (
	"math"
	"slices"
	"testing"

	"sleds/internal/simclock"
	"sleds/internal/splitmix"
)

// TestConservationLaw checks Kleinrock's conservation law on an open
// queue: with equal service times, every work-conserving order empties the
// queue at the same instants, so FCFS, SSTF and Deadline must give the
// same sorted departures, and those are the FCFS recursion
// d_i = max(a_i, d_{i-1}) + S over the arrivals. Each arrival is its own
// stream, started at a Poisson instant, making one DevRead of a random
// page on a constant-service device. The check is exact: no tolerance.
func TestConservationLaw(t *testing.T) {
	const (
		arrivals = 20000
		service  = simclock.Millisecond
		pages    = 1 << 18
	)
	for _, rho := range []float64{0.5, 0.95} {
		state := uint64(rho * 1000)
		starts := make([]simclock.Duration, arrivals)
		offs := make([]int64, arrivals)
		at := 0.0
		for i := range starts {
			u := float64(splitmix.Next(&state)>>11) / (1 << 53)
			at += -math.Log1p(-u) * float64(service) / rho
			starts[i] = simclock.Duration(at)
			offs[i] = int64(splitmix.Next(&state)%pages) * 4096
		}
		want := make([]simclock.Duration, arrivals)
		var last simclock.Duration
		for i, a := range starts {
			last = max(a, last) + service
			want[i] = last
		}
		for _, name := range []string{"fcfs", "sstf", "deadline"} {
			k, _, id := testKernel(t, service)
			e := NewEngine(k)
			e.Queue(id, NewScheduler(name))
			for i, start := range starts {
				e.AddStream(start, devReadProg(id, offs[i]))
			}
			if err := e.Run(); err != nil {
				t.Fatalf("rho %v %s: %v", rho, name, err)
			}
			got := make([]simclock.Duration, arrivals)
			var sum simclock.Duration
			for i := range got {
				got[i] = e.FinishTime(StreamID(i)) - e.Base()
				sum += got[i] - starts[i]
			}
			slices.Sort(got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("rho %v %s: departure %d at %v, want %v", rho, name, i, got[i], want[i])
				}
			}
			t.Logf("rho %v %s: mean response %v", rho, name, sum/arrivals)
		}
	}
}
