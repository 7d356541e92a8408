package experiments

import (
	"fmt"
	"strings"

	"sleds/internal/device"
	"sleds/internal/faults"
	"sleds/internal/fleet"
	"sleds/internal/iosched"
	"sleds/internal/lmbench"
	"sleds/internal/simclock"
	"sleds/internal/trace"
)

// The efleet experiment measures the fleet tier: N replicated file
// servers behind the client-side SLED selector, under three fleet-scale
// scenarios, each driven by rr (blind round-robin), sled (SLED-guided
// selection with demotion and probe-back), and hedge (sled plus hedged
// reads). Every cell of a scenario replays the identical per-stream read
// schedule on an identically seeded machine — only the routing policy
// differs — and reports the per-read virtual-time latency distribution.
//
//   - hotspot: Zipf-skewed reads over the replicated file. The replicas'
//     server caches individually hold a fraction of the file, but the
//     fleet in aggregate holds all of it — if each region's reads keep
//     landing on the replica that already cached it. SLED selection does
//     exactly that (the estimate folds in the server-cached fraction);
//     blind rotation scatters each region over all replicas and pays the
//     server disk again and again.
//   - degraded: one replica times out on every request (the paper's NFS
//     timeout class, 1.1 s). Rotation keeps feeding it — a quarter of
//     blind traffic eats the timeout and convoys behind it. SLED demotes
//     the replica on the first observed fault and routes around it,
//     paying only the probe-back cadence; hedged reads mask even the
//     probes, so the timeout disappears from the latency tail entirely.
//   - flashcrowd: every stream arrives almost at once, hammering a hot
//     region that one replica has cached. Affinity alone would melt that
//     replica; the load term in the SLED estimate (queue depth at
//     selection time) spills the crowd across the fleet as the favorite's
//     queue builds.

// efleetScenarios lists the scenarios in render order.
var efleetScenarios = []string{"hotspot", "degraded", "flashcrowd"}

// efleetPolicies lists the routing policies every scenario compares.
var efleetPolicies = []fleet.Policy{fleet.PolicyRR, fleet.PolicySLED, fleet.PolicySLEDHedge}

// Fleet shape: 4 replicas; each server caches serverCachePages pages —
// a quarter of the replicated file, so the fleet in aggregate can hold
// all of it but no single replica can.
const (
	efleetReplicas         = 4
	efleetServerCachePages = 64
	efleetFilePages        = 256
	efleetRecordPages      = 4 // one read = 4 pages
	efleetReadsPerStream   = 4
	efleetProbeEvery       = 64
)

// efleetStreams scales the stream population with the configuration:
// paper scale exercises the selector at fleet population (thousands of
// concurrent Program streams); quick scale keeps CI and the test gates
// fast with the same dynamics.
func efleetStreams(cfg Config) int {
	if cfg.CacheBytes() >= 8*MB {
		return 2000
	}
	return 400
}

// efleetFleetConfig is the fleet the experiment boots: defaults, with
// the experiment's server cache sizing and probe cadence. replicas <= 0
// selects the default fleet width.
func efleetFleetConfig(replicas int) fleet.Config {
	fc := fleet.DefaultConfig()
	if replicas <= 0 {
		replicas = efleetReplicas
	}
	fc.Replicas = replicas
	fc.Server.ServerCachePages = efleetServerCachePages
	fc.ProbeEvery = efleetProbeEvery
	return fc
}

// efleetScenario is one scenario's shape: stream arrival stagger, think
// time between a stream's reads, the record-index distribution, and the
// perturbation (fault injection, cache pre-warm) it applies.
type efleetScenario struct {
	name    string
	stagger simclock.Duration // interarrival of stream starts
	think   simclock.Duration // think time between a stream's reads
	// records draws the per-read record indexes for all streams.
	records func(rng *trace.RNG, streams int) [][]int
	// injectReplica0, when set, wraps replica 0's registered device in a
	// fault injector (under the engine queue) with this config.
	injectReplica0 *faults.Config
	// warmReplica0Records pre-warms replica 0's server cache with the
	// first n records of the file before the run.
	warmReplica0Records int
}

// efleetScenarioSpec returns the named scenario's shape. The fault seed
// varies per point via cfg.
func efleetScenarioSpec(name string, pcfg Config) efleetScenario {
	records := efleetFilePages / efleetRecordPages
	switch name {
	case "hotspot":
		return efleetScenario{
			name:    name,
			stagger: 2 * simclock.Millisecond,
			think:   5 * simclock.Millisecond,
			records: func(rng *trace.RNG, streams int) [][]int {
				z := trace.NewZipf(records, 1.1)
				return efleetDraw(rng, streams, func(r *trace.RNG) int { return z.Sample(r) })
			},
		}
	case "degraded":
		return efleetScenario{
			name:    name,
			stagger: 5 * simclock.Millisecond,
			think:   10 * simclock.Millisecond,
			records: func(rng *trace.RNG, streams int) [][]int {
				return efleetDraw(rng, streams, func(r *trace.RNG) int { return int(r.Int64n(int64(records))) })
			},
			injectReplica0: &faults.Config{
				Seed:           PointSeed(pcfg.Seed, "efleet-inj"),
				PFault:         1,
				MaxConsecutive: 1,
			},
		}
	case "flashcrowd":
		hot := 8
		return efleetScenario{
			name:    name,
			stagger: 50 * simclock.Microsecond,
			think:   simclock.Millisecond,
			records: func(rng *trace.RNG, streams int) [][]int {
				z := trace.NewZipf(hot, 0.8)
				return efleetDraw(rng, streams, func(r *trace.RNG) int { return z.Sample(r) })
			},
			warmReplica0Records: hot,
		}
	default:
		panic(fmt.Sprintf("experiments: unknown efleet scenario %q", name))
	}
}

// efleetDraw fills the per-stream, per-read record table from one draw
// function on one seeded stream.
func efleetDraw(rng *trace.RNG, streams int, draw func(*trace.RNG) int) [][]int {
	out := make([][]int, streams)
	for s := range out {
		recs := make([]int, efleetReadsPerStream)
		for r := range recs {
			recs[r] = draw(rng)
		}
		out[s] = recs
	}
	return out
}

// efleetCell is the measurement of one (scenario, policy) point.
type efleetCell struct {
	meanMs, p50Ms, p99Ms float64
	faults               int // faulted completions absorbed by failover
	hedged               int // reads whose hedge deadline fired
	probes               int64
	errs                 int // reads that exhausted their retry budget
}

// EFleetRow is one rendered row: a scenario under one policy.
type EFleetRow struct {
	Scenario string
	Policy   string
	Cell     efleetCell
}

// EFleetReport is the efleet experiment's product.
type EFleetReport struct {
	Replicas int
	Streams  int
	Rows     []EFleetRow
}

// efleetStream drives one stream's reads as a Program: BeginRead/Step
// per logical read on the stream's one fleet.Read, a think-time sleep
// between reads, latency recorded per read.
type efleetStream struct {
	f       *fleet.Fleet
	policy  fleet.Policy
	offs    []int64
	readLen int64
	think   simclock.Duration

	cur      int
	rd       fleet.Read // the read in flight while reading is set
	reading  bool
	started  simclock.Duration
	thinking bool

	lats           []float64 // per-read latency, ms
	faults, hedged int
	errs           int
}

// Step implements iosched.Program.
func (s *efleetStream) Step(h *iosched.Handle, prev iosched.Result) iosched.Op {
	for {
		if !s.reading {
			if s.cur >= len(s.offs) {
				return iosched.Exit(nil)
			}
			if s.think > 0 && s.cur > 0 && !s.thinking {
				s.thinking = true
				return iosched.Sleep(s.think)
			}
			s.thinking = false
			s.f.BeginRead(&s.rd, s.policy, s.offs[s.cur], s.readLen)
			s.reading = true
			s.started = h.Now()
			prev = iosched.Result{}
		}
		op, done := s.rd.Step(h, prev)
		if !done {
			return op
		}
		s.lats = append(s.lats, float64(h.Now()-s.started)/float64(simclock.Millisecond))
		s.faults += s.rd.Failed
		if s.rd.Hedged {
			s.hedged++
		}
		if s.rd.Err != nil {
			s.errs++
		}
		s.cur++
		s.reading = false
	}
}

// efleetPoint boots one machine + fleet, replays the scenario's read
// schedule under the policy, and reduces the latencies. records is the
// scenario's precomputed per-stream record table, shared read-only by
// the scenario's three policy cells (the paired-measurement contract).
func efleetPoint(pcfg Config, scen efleetScenario, policy fleet.Policy, replicas int, records [][]int) (efleetCell, error) {
	k, mem := newKernel(pcfg, device.DefaultMemConfig(0))
	fl, err := fleet.New(k, efleetFleetConfig(replicas))
	if err != nil {
		return efleetCell{}, err
	}
	tab, err := lmbench.Calibrate(k.Clock, mem, k.Devices.All())
	if err != nil {
		return efleetCell{}, err
	}
	fl.SetTable(tab)
	// Like BootMachine, -faults wraps the replicas after calibration; the
	// degraded scenario's own injector stacks over replica 0's.
	for i := 0; i < fl.Replicas(); i++ {
		if err := injectProfile(k, pcfg, fl.Replica(i).Dev); err != nil {
			return efleetCell{}, err
		}
	}
	ps := int64(pcfg.PageSize)
	recLen := efleetRecordPages * ps
	if err := fl.CreateFile("/fleet", fileSeed(pcfg, "efleet-file", 0), efleetFilePages*ps); err != nil {
		return efleetCell{}, err
	}
	if n := scen.warmReplica0Records; n > 0 {
		r0 := fl.Replica(0)
		if err := r0.Server().ReadThrough(k.Clock, r0.Inode().Extent(), int64(n)*recLen); err != nil {
			return efleetCell{}, err
		}
	}
	k.ResetDeviceState()
	if fc := scen.injectReplica0; fc != nil {
		injectFaults(k, fl.Replica(0).Dev, *fc)
	}

	e := iosched.NewEngine(k)
	for i := 0; i < fl.Replicas(); i++ {
		e.Queue(fl.Replica(i).Dev, iosched.NewFCFS())
	}
	tab.SetLoad(e)
	fl.ObserveLateFaults(e)
	// The streams, their read offsets and their latency records are each
	// one block, a stream owning its slice of it: a cell sets up thousands
	// of streams, and three allocations per stream were most of what a
	// cell allocated. A stream records one latency per read, so once Run
	// returns the latency block is every stream's record back to back.
	reads := 0
	for _, recs := range records {
		reads += len(recs)
	}
	streams := make([]efleetStream, len(records))
	offs := make([]int64, 0, reads)
	lats := make([]float64, reads)
	for i, recs := range records {
		first := len(offs)
		for _, rec := range recs {
			offs = append(offs, int64(rec)*recLen)
		}
		streams[i] = efleetStream{f: fl, policy: policy, offs: offs[first:], readLen: recLen, think: scen.think,
			lats: lats[first:first:len(offs)]}
		e.AddStream(simclock.Duration(i)*scen.stagger, &streams[i])
	}
	if err := e.Run(); err != nil {
		return efleetCell{}, err
	}

	var cell efleetCell
	for i := range streams {
		s := &streams[i]
		cell.faults += s.faults
		cell.hedged += s.hedged
		cell.errs += s.errs
	}
	for i := 0; i < fl.Replicas(); i++ {
		cell.probes += fl.Replica(i).Probes
	}
	cell.meanMs, cell.p50Ms, cell.p99Ms = latencySummary(lats)
	return cell, nil
}

// EFleet runs the fleet grid: every scenario under every policy, on
// identical read schedules and identically seeded machines per scenario.
// replicas overrides the fleet width (sledsbench's -fleet knob); <= 0
// selects the default of 4.
func EFleet(cfg Config, replicas int) (EFleetReport, error) {
	if replicas <= 0 {
		replicas = efleetReplicas
	}
	streams := efleetStreams(cfg)
	// Per-scenario read schedules, drawn once before the grid and read by
	// the scenario's policy cells: the cells are paired measurements.
	schedules := make([][][]int, len(efleetScenarios))
	for si, name := range efleetScenarios {
		pcfg := cfg.forPoint("efleet", si)
		scen := efleetScenarioSpec(name, pcfg)
		schedules[si] = scen.records(trace.NewRNG(fileSeed(cfg, "efleet-sched", si)), streams)
	}
	points, err := RunGrid(cfg, []int{len(efleetScenarios), len(efleetPolicies)}, func(cfg Config, at []int) (efleetCell, error) {
		si := at[0]
		pcfg := cfg.forPoint("efleet", si) // the machine seed is the scenario's alone
		return efleetPoint(pcfg, efleetScenarioSpec(efleetScenarios[si], pcfg), efleetPolicies[at[1]], replicas, schedules[si])
	})
	if err != nil {
		return EFleetReport{}, err
	}
	rep := EFleetReport{Replicas: replicas, Streams: streams}
	for _, name := range efleetScenarios {
		for _, pol := range efleetPolicies {
			// The points are in row order.
			rep.Rows = append(rep.Rows, EFleetRow{Scenario: name, Policy: pol.String(), Cell: points[len(rep.Rows)]})
		}
	}
	return rep, nil
}

// Render draws the report as the deterministic text block sledsbench
// prints (and make fleet-smoke diffs across worker counts).
func (r EFleetReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== efleet: %d-replica fleet, %d scenarios x {rr, sled, hedge}, %d streams x %d reads\n",
		r.Replicas, len(efleetScenarios), r.Streams, efleetReadsPerStream)
	b.WriteString("   per-read virtual-time latency (ms); faults = faulted completions absorbed by failover\n")
	fmt.Fprintf(&b, "  %-10s %-6s %10s %10s %10s %7s %7s %7s %5s\n",
		"scenario", "policy", "mean", "p50", "p99", "faults", "hedged", "probes", "errs")
	for _, row := range r.Rows {
		c := row.Cell
		fmt.Fprintf(&b, "  %-10s %-6s %10.4g %10.4g %10.4g %7d %7d %7d %5d\n",
			row.Scenario, row.Policy, c.meanMs, c.p50Ms, c.p99Ms,
			c.faults, c.hedged, c.probes, c.errs)
	}
	b.WriteString("  hotspot: cache-affinity routing aggregates the fleet's server caches; degraded: demotion\n")
	b.WriteString("  routes around the timeout replica and hedging masks the probes; flashcrowd: the load term\n")
	b.WriteString("  spills a correlated burst off the one warm replica\n")
	return b.String()
}
