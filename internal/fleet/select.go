package fleet

import (
	"fmt"

	"sleds/internal/core"
	"sleds/internal/remote"
	"sleds/internal/simclock"
)

// Selection policy. A replica whose estimate carries confidence below
// confidenceFloor is demoted out of the candidate set. The hedge deadline
// is hedgeMult times the baseline candidate's estimated delivery, and no
// less than minHedgeDelay.
const (
	confidenceFloor = 0.5
	hedgeMult       = 3
	minHedgeDelay   = 2 * simclock.Millisecond
)

// estimate is one replica's candidacy for a read: the expected delivery
// time in seconds and the confidence FSLEDS_GET stamped on the estimate.
type estimate struct {
	sec  float64
	conf float64
	ok   bool // false when the replica is excluded (budget exhausted)
}

// Selection is the selector's verdict for one read.
type Selection struct {
	// Primary is the replica index to issue the read against; Secondary
	// is the hedge target (-1 when no second candidate exists).
	Primary, Secondary int
	// HedgeDelay is the virtual-time hedge deadline derived from the
	// SLED estimate: hedgeMult x the expected delivery of the baseline
	// candidate, floored at minHedgeDelay.
	HedgeDelay simclock.Duration
	// Probe marks a selection that deliberately routed to a demoted
	// replica to rediscover it.
	Probe bool
	// Degraded marks a selection made with every candidate below the
	// confidence floor (the confidence-weighted fallback).
	Degraded bool
	// Est and Conf are the primary's estimated delivery (seconds) and
	// confidence.
	Est, Conf float64
}

// estimateReplica computes the expected delivery time of reading
// [off, off+n) of the replicated file from replica r at the kernel's
// current virtual time (the instant core.QueryAppend samples load and
// health at).
//
// The base is core.RangeDelivery over the replica's SLED vector
// (core.QueryAppend on the replica's copy of the file), whose latencies
// already fold in queue depth, in-flight remainder and decayed fault
// penalty; its confidence is exactly what FSLEDS_GET reports to an
// application.
//
// On top of the SLED base the client folds in what it knows of the
// replica's server cache: the server-cached fraction of the region skips
// the server disk's positioning, so the base sheds that fraction of the
// device's unloaded service latency down to the wire RTT. Queue wait,
// health penalty, and transfer time are unaffected — a cached byte still
// waits in the same queue and crosses the same wire.
//
// The per-pick QueryAppend is served by the table's skeleton memo when
// the replica's residency and the table config are unchanged (the common
// case between faults): only the O(devices) dynamic overlay re-runs, so
// estimating all replicas stays cheap even on heavily fragmented files.
//
//sledlint:hotpath
func (f *Fleet) estimateReplica(r *Replica, off, n int64) (estimate, error) {
	sleds, err := core.QueryAppend(f.scratch, f.k, f.tab, r.inode)
	if err != nil {
		return estimate{}, err
	}
	f.scratch = sleds
	sec, conf, ok := core.RangeDelivery(sleds, off, n)
	if !ok {
		return estimate{}, fmt.Errorf("fleet: read [%d,%d) outside the replicated file", off, off+n)
	}
	// Server-cache adjustment: the cached fraction of the region avoids
	// the disk's unloaded service latency, paying only the wire RTT.
	if cached := r.srv.CachedBytes(r.inode.Extent()+off, n); cached > 0 {
		if e, ok := f.tab.Device(r.Dev); ok {
			rtt := remote.RTT.Seconds()
			if save := e.Latency - rtt; save > 0 {
				sec -= float64(cached) / float64(n) * save
				if sec < rtt {
					sec = rtt
				}
			}
		}
	}
	return estimate{sec: sec, conf: conf, ok: true}, nil
}

// Select picks the replica(s) for one read of [off, off+n), consulting
// every replica's SLED estimate. See selectFrom for the policy; Select
// considers all replicas eligible.
//
// now is ignored: estimates are taken at the client kernel's clock
// (k.Clock.Now(), the instant core.QueryAppend samples load and health
// at), which is the calling stream's clock under an engine. The parameter
// stays because callers outside this module are compiled against it.
func (f *Fleet) Select(off, n int64, now simclock.Duration) (Selection, error) {
	return f.selectFrom(nil, off, n)
}

// selectFrom is Select restricted to replicas with retry budget left:
// attempts[i] counts what replica i has consumed of the current read's
// budget (nil means none has consumed any), and a replica at
// retryAttempts is excluded.
//
// Policy: replicas at or above the confidence floor compete on estimated
// delivery; the cheapest wins, the runner-up becomes the hedge target.
// When every eligible replica is below the floor no estimate is worth
// trusting outright, so the fallback weights estimates by confidence
// (score = est/conf) — a barely-degraded replica with a good estimate
// beats a collapsed one with a suspiciously cheap number. Every
// ProbeEvery-th selection with demotions outstanding routes to a demoted
// replica (round-robin) instead, keeping the hedge on the best healthy
// candidate, so a recovered server is rediscovered within a bounded
// number of selections. All tie-breaks are by ascending replica index:
// selection is a pure function of (estimates, pick counter), so
// schedules are deterministic.
//
//sledlint:hotpath
func (f *Fleet) selectFrom(attempts []int, off, n int64) (Selection, error) {
	nr := len(f.replicas)
	// Estimate every eligible replica, counting the healthy (at or above
	// the floor) and the demoted (eligible but below it).
	healthyCount, demoted := 0, 0
	for i, r := range f.replicas {
		if attempts != nil && attempts[i] >= retryAttempts {
			f.ests[i] = estimate{}
			continue
		}
		est, err := f.estimateReplica(r, off, n)
		if err != nil {
			return Selection{}, err
		}
		f.ests[i] = est
		if est.conf >= confidenceFloor {
			healthyCount++
		} else {
			demoted++
		}
	}
	if healthyCount+demoted == 0 {
		return Selection{}, fmt.Errorf("fleet: no eligible replica")
	}

	// Partition: healthy replicas compete on est; if none, everyone
	// competes on est/conf.
	best, second := -1, -1
	degraded := healthyCount == 0
	score := func(i int) float64 {
		if !degraded {
			return f.ests[i].sec
		}
		c := f.ests[i].conf
		if c < 1e-9 {
			c = 1e-9
		}
		return f.ests[i].sec / c
	}
	inPool := func(i int) bool {
		if !f.ests[i].ok {
			return false
		}
		return degraded || f.ests[i].conf >= confidenceFloor
	}
	for i := 0; i < nr; i++ {
		if !inPool(i) {
			continue
		}
		switch {
		case best < 0 || score(i) < score(best):
			second = best
			best = i
		case second < 0 || score(i) < score(second):
			second = i
		}
	}

	sel := Selection{Primary: best, Secondary: second, Degraded: degraded}
	f.picks++

	// Probe cadence: divert this pick to a demoted replica when due — the
	// (probeRR mod demoted)-th of them in index order. The cursor advances
	// on every due pick that finds a replica outside the healthy pool,
	// whether demoted or merely out of budget.
	if !degraded && healthyCount < nr && f.cfg.ProbeEvery > 0 && f.picks%int64(f.cfg.ProbeEvery) == 0 {
		k := f.probeRR
		f.probeRR++
		if demoted > 0 {
			skip := k % demoted
			for i := 0; i < nr; i++ {
				if !f.ests[i].ok || f.ests[i].conf >= confidenceFloor {
					continue
				}
				if skip == 0 {
					sel.Secondary = sel.Primary // hedge covers the probe
					sel.Primary = i
					sel.Probe = true
					f.replicas[i].Probes++
					break
				}
				skip--
			}
		}
	}

	sel.Est = f.ests[sel.Primary].sec
	sel.Conf = f.ests[sel.Primary].conf

	// Hedge deadline from the baseline candidate: the primary's estimate
	// normally, the healthy secondary's when the primary is a probe (the
	// probe's own estimate carries the penalty being probed).
	base := sel.Est
	if sel.Probe && sel.Secondary >= 0 {
		base = f.ests[sel.Secondary].sec
	}
	sel.HedgeDelay = max(simclock.Duration(hedgeMult*base*float64(simclock.Second)), minHedgeDelay)
	return sel, nil
}
