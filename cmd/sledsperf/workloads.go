package main

import (
	"fmt"

	"sleds/internal/experiments"
)

// defaultSeed is the seed both experiment configurations carry; the
// committed goldens and expected_digests.json hold only at this seed.
const defaultSeed = 20000923

// output is what one experiment call produced.
type output struct {
	text string             // the rendering sledsbench would print
	sim  map[string]float64 // simulated results the ledger republishes
}

// call is one operation of a pass: one experiment entry point, invoked
// exactly as cmd/sledsbench invokes it.
type call struct {
	name string
	// golden marks a rendering that experiments_quick_scale.txt holds
	// verbatim at the default seed.
	golden bool
	run    func(cfg experiments.Config) (output, error)
}

// workloadDef is one named set of inputs. One pass makes every call once
// per seed, for seeds S, S+1, ..., S+seeds-1.
type workloadDef struct {
	name  string
	why   string
	paper bool // PaperConfig rather than QuickConfig
	seeds int
	calls []call
	// smokeSeeds and smokeCalls replace seeds and calls under -smoke.
	smokeSeeds int
	smokeCalls []call
}

// config builds the pass configuration: the scale the workload names,
// one worker, and under -smoke the two smallest sizes with one run each.
func (w workloadDef) config(seed int64, smoke bool) experiments.Config {
	cfg := experiments.QuickConfig()
	if w.paper && !smoke {
		cfg = experiments.PaperConfig()
	}
	cfg.Seed = seed
	cfg.Workers = 1
	if smoke {
		cfg.Sizes = cfg.Sizes[:2]
		cfg.Runs = 1
		cfg.CDFRuns = 2
	}
	return cfg
}

// plan returns the seeds-per-pass and the calls for the mode.
func (w workloadDef) plan(smoke bool) (int, []call) {
	if smoke {
		seeds, calls := w.smokeSeeds, w.smokeCalls
		if seeds == 0 {
			seeds = w.seeds
		}
		if calls == nil {
			calls = w.calls
		}
		return seeds, calls
	}
	return w.seeds, w.calls
}

// figure shape-checks and renders what an experiment returned. The
// check comes first: Render indexes every series by the first one's
// length, so a ragged figure must be a counted failure, not a panic.
func figure(f experiments.Figure, err error) (output, error) {
	if err == nil {
		err = checkFigure(f)
	}
	if err != nil {
		return output{}, err
	}
	return output{text: f.Render()}, nil
}

// figurePair is figure for the experiments that return two figures from
// one sweep; sledsbench prints them with a blank line between.
func figurePair(a, b experiments.Figure, err error) (output, error) {
	first, err := figure(a, err)
	second, err := figure(b, err)
	return output{text: first.text + "\n" + second.text}, err
}

// seriesMax is the largest mean of a series.
func seriesMax(s experiments.Series) float64 {
	max := 0.0
	for _, p := range s.Points {
		if p.Mean > max {
			max = p.Mean
		}
	}
	return max
}

// traceCall replays the selected classes (none = all five).
func traceCall(classes ...string) call {
	return call{name: "ETrace", run: func(cfg experiments.Config) (output, error) {
		r, err := experiments.ETrace(cfg, classes...)
		if want := 3 * len(r.Classes); err == nil && len(r.Rows) != want {
			err = fmt.Errorf("etrace rendered %d rows, want %d (3 schedulers x %d classes)", len(r.Rows), want, len(r.Classes))
		}
		out := output{text: r.Render(), sim: map[string]float64{}}
		for _, row := range r.Rows {
			if row.Class == "olap" && row.Sched == "sstf" {
				out.sim["experiments.etrace_olap_speedup"] = row.Speedup
			}
		}
		return out, err
	}}
}

func fleetCall(replicas int) call {
	return call{name: "EFleet", run: func(cfg experiments.Config) (output, error) {
		r, err := experiments.EFleet(cfg, replicas)
		if err == nil && len(r.Rows) != 9 {
			err = fmt.Errorf("efleet rendered %d rows, want 9 (3 scenarios x 3 policies)", len(r.Rows))
		}
		return output{text: r.Render()}, err
	}}
}

// workloads lists the five workloads in the order every report uses.
// The names are fixed: later issues refer to them.
var workloads = []workloadDef{
	{
		name:  "figs",
		why:   "single-stream wc/grep that inspect every byte: text generation, apps, cache and sync vfs do the work; iosched, trace and fleet are idle",
		seeds: 1,
		calls: []call{
			{name: "Fig7And8", golden: true, run: func(cfg experiments.Config) (output, error) {
				f7, f8, err := experiments.Fig7And8(cfg)
				out, err := figurePair(f7, f8, err)
				if err == nil {
					out.sim = map[string]float64{"experiments.fig8_speedup_peak": seriesMax(f8.Series[0])}
				}
				return out, err
			}},
			{name: "Fig9", golden: true, run: func(cfg experiments.Config) (output, error) {
				f, err := experiments.Fig9(cfg)
				out, err := figure(f, err)
				if err == nil {
					// Series are {with, without}; the reduction is read at
					// the largest size, where the cache holds least of the file.
					with, without := f.Series[0].Points, f.Series[1].Points
					last := len(with) - 1
					if with[last].Mean > 0 {
						out.sim = map[string]float64{"experiments.fig9_fault_reduction": without[last].Mean / with[last].Mean}
					}
				}
				return out, err
			}},
			{name: "Fig10", golden: true, run: func(cfg experiments.Config) (output, error) {
				return figure(experiments.Fig10(cfg))
			}},
			{name: "Fig11And12", golden: true, run: func(cfg experiments.Config) (output, error) {
				return figurePair(experiments.Fig11And12(cfg))
			}},
			{name: "Fig13", golden: true, run: func(cfg experiments.Config) (output, error) {
				return figure(experiments.Fig13(cfg))
			}},
		},
	},
	{
		name:  "lhea",
		why:   "fimhisto/fimgbin read FITS content and write output files: dirty pages, write-back and app compute, the cache and vfs layers used for writes",
		seeds: 2,
		calls: []call{
			{name: "Fig14", golden: true, run: func(cfg experiments.Config) (output, error) {
				return figure(experiments.Fig14(cfg))
			}},
			{name: "Fig15x4", golden: true, run: func(cfg experiments.Config) (output, error) {
				return figure(experiments.Fig15Factor(cfg, 4))
			}},
			{name: "Fig15x16", golden: true, run: func(cfg experiments.Config) (output, error) {
				return figure(experiments.Fig15Factor(cfg, 16))
			}},
		},
	},
	{
		name:  "scale",
		why:   "up to 10,000 Program streams over 24 queued disks: iosched engine, vfs IOStep continuations and per-miss page buffers, for programs that never look at a byte",
		seeds: 2,
		calls: []call{
			{name: "EScale", run: func(cfg experiments.Config) (output, error) {
				return figure(experiments.EScale(cfg))
			}},
		},
		// EScale's stream sweep is fixed, so the smoke pass renders the
		// rebuilt point at 100 streams instead.
		smokeCalls: []call{
			{name: "scalePoint", run: func(cfg experiments.Config) (output, error) {
				return figure(smokeScaleFigure(cfg))
			}},
		},
	},
	{
		name:       "trace",
		why:        "trace generation and replay of five classes under three schedulers, blind and SLED-guided: core memoised queries and the gather window, with content that is generated but never read",
		paper:      true,
		seeds:      3,
		calls:      []call{traceCall()},
		smokeSeeds: 2,
		smokeCalls: []call{traceCall("olap")},
	},
	{
		name:       "fleet",
		why:        "2,000 streams over a 16-replica fleet: fleet.Select over core.QueryAppend, server caches, hedging and fault demotion on raw device reads, with no page content at all",
		paper:      true,
		seeds:      32,
		calls:      []call{fleetCall(16)},
		smokeSeeds: 2,
		smokeCalls: []call{fleetCall(4)},
	},
}

// workloadByName finds a workload; ok is false for an unknown name.
func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
