package experiments

import (
	"fmt"
	"slices"
	"strings"
)

// The registry is the one place an experiment id is spelled. sledsbench's
// dispatch, -list, -exp help text, unknown-id error and -csv, the registry
// and doc-drift tests, and the `== id` order of the committed goldens are
// all read from it.

// group classifies a registry entry: the paper's own tables and figures,
// the extension experiments, and the design-choice ablations.
type group string

const (
	groupPaper     group = "paper"
	groupExtension group = "extension"
	groupAblation  group = "ablation"
)

// The two group selectors -exp accepts beside experiment ids.
const (
	SelectAll       = "all"       // every entry with inAll set
	SelectAblations = "ablations" // every groupAblation entry
)

// Artifact is one rendered product of a sweep: the text block sledsbench
// prints for the experiment id, and the Figure behind it when there is one
// to export as CSV.
type Artifact struct {
	ID     string
	Text   string
	Figure *Figure
}

// Entry declares one sweep.
type Entry struct {
	// IDs are the experiment ids the sweep serves, in print order; Run
	// returns one artifact per id. Two ids share an entry when one sweep
	// produces both (Figures 7 and 8, 11 and 12).
	IDs   []string
	group group
	// inAll is false for the sweeps that measure an extension layer
	// rather than the paper's claims; they run only when named, as CI's
	// scale-, trace- and fleet-smoke targets do, and the quick- and
	// paper-scale goldens never include them.
	inAll bool
	// Run regenerates the sweep. classes and replicas are sledsbench's
	// -classes and -fleet values, read by etrace and efleet alone.
	Run func(cfg Config, classes []string, replicas int) ([]Artifact, error)
}

// single declares a one-id sweep whose product renders itself.
func single(id string, g group, inAll bool, run func(cfg Config, classes []string, replicas int) (string, *Figure, error)) Entry {
	return Entry{IDs: []string{id}, group: g, inAll: inAll,
		Run: func(cfg Config, classes []string, replicas int) ([]Artifact, error) {
			text, fig, err := run(cfg, classes, replicas)
			if err != nil {
				return nil, err
			}
			return []Artifact{{ID: id, Text: text, Figure: fig}}, nil
		}}
}

// figure declares a one-id sweep that yields a Figure.
func figure(id string, g group, inAll bool, run func(Config) (Figure, error)) Entry {
	return single(id, g, inAll, func(cfg Config, _ []string, _ int) (string, *Figure, error) {
		f, err := run(cfg)
		return f.Render(), &f, err
	})
}

// pair declares a sweep that yields two figures under two ids.
func pair(idA, idB string, run func(Config) (Figure, Figure, error)) Entry {
	return Entry{IDs: []string{idA, idB}, group: groupPaper, inAll: true,
		Run: func(cfg Config, _ []string, _ int) ([]Artifact, error) {
			a, b, err := run(cfg)
			if err != nil {
				return nil, err
			}
			return []Artifact{{idA, a.Render(), &a}, {idB, b.Render(), &b}}, nil
		}}
}

// renderer is a report type with a text form.
type renderer interface{ Render() string }

// report adapts a Config-only experiment whose product has no Figure.
func report[T renderer](run func(Config) (T, error)) func(Config, []string, int) (string, *Figure, error) {
	return func(cfg Config, _ []string, _ int) (string, *Figure, error) {
		r, err := run(cfg)
		return r.Render(), nil, err
	}
}

// registry lists every sweep in print order. It is built on demand, not
// at package initialisation: a program that imports the package for a few
// experiments (cmd/sledsperf) links and initialises only those.
func registry() []Entry {
	return []Entry{
		single("t2", groupPaper, true, report(Table2)),
		single("t3", groupPaper, true, report(Table3)),
		single("t4", groupPaper, true, report(func(Config) (CodeTable, error) { return Table4() })),
		single("f3", groupPaper, true, func(Config, []string, int) (string, *Figure, error) { return Fig3Trace(), nil, nil }),
		pair("f7", "f8", Fig7And8),
		figure("f9", groupPaper, true, Fig9),
		figure("f10", groupPaper, true, Fig10),
		pair("f11", "f12", Fig11And12),
		figure("f13", groupPaper, true, Fig13),
		figure("f14", groupPaper, true, Fig14),
		figure("f15", groupPaper, true, func(c Config) (Figure, error) { return Fig15Factor(c, 4) }),
		figure("f15x16", groupPaper, true, func(c Config) (Figure, error) { return Fig15Factor(c, 16) }),
		single("efind", groupExtension, true, func(c Config, _ []string, _ int) (string, *Figure, error) {
			r, err := EFind(c)
			return r.Render(), &r.Figure, err
		}),
		single("egmc", groupExtension, true, func(c Config, _ []string, _ int) (string, *Figure, error) {
			r, err := EGmc(c)
			return "== egmc: gmc file-properties SLEDs panel (half-cached file) ==\n" + r.Render(), nil, err
		}),
		single("ehsm", groupExtension, true, func(c Config, _ []string, _ int) (string, *Figure, error) {
			r, err := EHSM(c)
			return r.Render(), &r.Figure, err
		}),
		single("eremote", groupExtension, true, func(c Config, _ []string, _ int) (string, *Figure, error) {
			r, err := ERemote(c)
			return r.Render(), &r.Figure, err
		}),
		figure("ehints", groupExtension, true, EHints),
		figure("etreegrep", groupExtension, true, ETreeGrep),
		figure("eaccuracy", groupExtension, true, EAccuracy),
		figure("econtend", groupExtension, true, EContention),
		figure("eloadsled", groupExtension, true, ELoadSLED),
		single("efaults", groupExtension, true, func(c Config, _ []string, _ int) (string, *Figure, error) {
			r, err := EFaults(c)
			return r.Render(), &r.Figure, err
		}),
		figure("escale", groupExtension, false, EScale),
		single("etrace", groupExtension, false, func(c Config, classes []string, _ int) (string, *Figure, error) {
			r, err := ETrace(c, classes...)
			return r.Render(), nil, err
		}),
		single("efleet", groupExtension, false, func(c Config, _ []string, replicas int) (string, *Figure, error) {
			r, err := EFleet(c, replicas)
			return r.Render(), nil, err
		}),
		figure("ablation-policy", groupAblation, true, AblationPolicy),
		figure("ablation-pickorder", groupAblation, true, AblationPickOrder),
		figure("ablation-refresh", groupAblation, true, AblationRefresh),
		figure("ablation-readahead", groupAblation, true, AblationReadahead),
		figure("ablation-mmap", groupAblation, true, AblationMmap),
		figure("ablation-zones", groupAblation, true, AblationZones),
	}
}

// IDs returns everything -exp accepts: the two group selectors, then every
// experiment id in registry order.
func IDs() []string {
	ids := []string{SelectAll, SelectAblations}
	for _, e := range registry() {
		ids = append(ids, e.IDs...)
	}
	return ids
}

// Select resolves a comma-separated -exp value to the entries to run, in
// registry order, and the artifact ids to print: a named id selects its
// own artifact only (f8 runs the shared f7+f8 sweep and prints fig8), a
// group selector all of its entries' artifacts. An unknown id or an empty
// selection is an error — never a silently empty run.
func Select(spec string) (run []Entry, wanted map[string]bool, err error) {
	valid := IDs()
	named := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if !slices.Contains(valid, id) {
			slices.Sort(valid)
			return nil, nil, fmt.Errorf("unknown experiment id %q (valid: %s)", id, strings.Join(valid, ", "))
		}
		named[id] = true
	}
	if len(named) == 0 {
		return nil, nil, fmt.Errorf("no experiments selected")
	}
	wanted = map[string]bool{}
	for _, e := range registry() {
		whole := named[SelectAll] && e.inAll || named[SelectAblations] && e.group == groupAblation
		selected := false
		for _, id := range e.IDs {
			if whole || named[id] {
				wanted[id], selected = true, true
			}
		}
		if selected {
			run = append(run, e)
		}
	}
	return run, wanted, nil
}
