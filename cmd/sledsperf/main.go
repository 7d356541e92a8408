// Command sledsperf is the repository's benchmark: host seconds and host
// allocation to regenerate an experiment, over five workloads, with a
// per-layer ledger that says where the seconds go. README.md has the
// definitions; BENCHMARK.json at the repository root names the metrics.
//
// Usage (from this directory, or `go run -C cmd/sledsperf .` from the root):
//
//	sledsperf                        # 3 rounds of all five workloads, then the traced passes
//	sledsperf -passes 1 -trace 0     # one round, end-to-end metrics only
//	sledsperf -aa                    # two full sets back to back, compared against the bounds
//	sledsperf -workload scale -seed 7 -seconds 8 -trace 0   # one workload, one result line
//
// With -workload the last line of stdout is one JSON object with the keys
// correct, attempted, failed and metrics (the end-to-end metrics at
// -trace 0, the per-layer ones at -trace 1). Without it stdout is one
// JSON document for all workloads. The human table goes to stderr.
//
// Every pass runs in a fresh child process (this binary re-executed with
// -child), one child at a time: that is what a user pays per sledsbench
// run, and it keeps one workload's heap from pacing another's GC.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// setupSamples is how many extra set-up-only children a set starts per
// workload. Set-up is a few milliseconds of exec, runtime start and file
// loading, so one reading per pass is too few to take a median of.
const setupSamples = 24

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	passes   int
	trace    int
	aa       bool
	smoke    bool
	child    string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("sledsperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload ("+strings.Join(workloadNames(), ", ")+") and print one result line; empty runs all")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed; workloads that take several use seed, seed+1, ...")
	fs.Float64Var(&o.seconds, "seconds", 0, "measure whole passes of each workload until this many seconds are measured (0 = use -passes)")
	fs.IntVar(&o.passes, "passes", 3, "rounds of untraced passes when -seconds is 0")
	fs.IntVar(&o.trace, "trace", 1, "1 = also make the traced pass and report the per-layer ledger; 0 = end-to-end metrics only")
	fs.BoolVar(&o.aa, "aa", false, "run two sets back to back and compare their medians against the bounds")
	fs.BoolVar(&o.smoke, "smoke", false, "shrunk configurations: a functional check, not a measurement")
	fs.StringVar(&o.child, "child", "", "internal: run as a child process (pass | setup | ledger)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.passes < 1 || o.seconds < 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "sledsperf: bad arguments; see -h")
		return 2
	}
	wls := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "sledsperf: unknown workload %q (valid: %s)\n", o.workload, strings.Join(workloadNames(), ", "))
			return 2
		}
		wls = []workloadDef{w}
	}
	if o.child != "" {
		if len(wls) != 1 {
			fmt.Fprintln(stderr, "sledsperf: -child needs -workload")
			return 2
		}
		return runChild(o, wls[0], stdout, stderr)
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "sledsperf: %v\n", err)
		return 1
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintf(stderr, "sledsperf: %v\n", err)
		return 1
	}
	p := &parent{exe: exe, root: root, opts: o, stderr: stderr}
	if !o.smoke && o.seed == defaultSeed {
		// Only the default seed has recorded digests to drift from.
		if p.expected, err = loadExpectedDigests(root); err != nil {
			fmt.Fprintf(stderr, "(sim_drift not checked: %v)\n", err)
		}
	}
	first, err := p.measureSet(wls, o.trace == 1 && !o.aa)
	if err != nil {
		fmt.Fprintf(stderr, "sledsperf: %v\n", err)
		return 1
	}
	failed := first.failed()
	switch {
	case o.aa:
		second, err := p.measureSet(wls, false)
		if err != nil {
			fmt.Fprintf(stderr, "sledsperf: %v\n", err)
			return 1
		}
		failed += second.failed()
		cmp := compareSets(first, second)
		printAA(stderr, cmp)
		writeJSON(stdout, map[string]any{"env": p.env(), "aa": cmp}, true)
		for _, c := range cmp {
			if !c.Within {
				failed++
			}
		}
	case o.workload != "":
		printTable(stderr, first, o.trace == 1)
		writeJSON(stdout, first[0].contractLine(o.trace == 1), false)
	default:
		printTable(stderr, first, o.trace == 1)
		writeJSON(stdout, report{Env: p.env(), EndToEnd: endToEnd, PerLayer: perLayer, Workloads: first}, true)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func writeJSON(w io.Writer, v any, indent bool) {
	var data []byte
	var err error
	if indent {
		data, err = json.MarshalIndent(v, "", "  ")
	} else {
		data, err = json.Marshal(v)
	}
	if err != nil {
		panic(err) // every value written here is a plain struct of strings and finite numbers
	}
	fmt.Fprintf(w, "%s\n", data)
}

// parent runs children and folds their results.
type parent struct {
	exe      string
	root     string
	opts     options
	stderr   io.Writer
	expected map[string]string // workload -> the seed commit's sim_digest; nil when no comparison applies
}

// env is the report's environment block.
type env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Passes     int     `json:"passes"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
}

func (p *parent) env() env {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = p.root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return env{
		NProc: runtime.NumCPU(), GOMAXPROCS: procs(), GoVersion: runtime.Version(), Commit: commit,
		Seed: p.opts.seed, Passes: p.opts.passes, Seconds: p.opts.seconds, Smoke: p.opts.smoke,
	}
}

// spawn runs one child to completion and decodes the JSON it printed.
// It returns the wall-clock instant just before the child was started,
// the zero point of setup_s.
func (p *parent) spawn(mode string, w workloadDef, into any) (time.Time, error) {
	args := []string{"-child", mode, "-workload", w.name, "-seed", strconv.FormatInt(p.opts.seed, 10)}
	if p.opts.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(p.exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = p.stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return start, fmt.Errorf("%s %s: %w", mode, w.name, err)
	}
	if err := cmd.Wait(); err != nil {
		return start, fmt.Errorf("%s %s: %w", mode, w.name, err)
	}
	if err := json.Unmarshal(out.Bytes(), into); err != nil {
		return start, fmt.Errorf("%s %s: child printed %q: %w", mode, w.name, out.String(), err)
	}
	return start, nil
}

// setupSeconds is parent's cmd.Start() to the child's first experiment call.
func setupSeconds(start time.Time, r passResult) float64 {
	return float64(r.FirstCallUnixNs-start.UnixNano()) / 1e9
}

// measureSet runs one set: untraced passes round-robin over the
// workloads, the extra set-up samples, and with traced the ledger child
// of each workload.
func (p *parent) measureSet(wls []workloadDef, traced bool) (set, error) {
	type acc struct {
		passes []passResult
		setups []float64
		hostS  float64
	}
	accs := make([]acc, len(wls))
	more := func(a acc) bool {
		if p.opts.seconds > 0 {
			return a.hostS < p.opts.seconds
		}
		return len(a.passes) < p.opts.passes
	}
	for progressed := true; progressed; {
		progressed = false
		for i, w := range wls {
			if !more(accs[i]) {
				continue
			}
			progressed = true
			var r passResult
			start, err := p.spawn("pass", w, &r)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(p.stderr, "(%s pass %d: %.2f s host, %d/%d ops ok)\n", w.name, len(accs[i].passes)+1, r.HostS, r.Attempted-r.Failed, r.Attempted)
			accs[i].passes = append(accs[i].passes, r)
			accs[i].setups = append(accs[i].setups, setupSeconds(start, r))
			accs[i].hostS += r.HostS
		}
	}
	out := make(set, len(wls))
	for i, w := range wls {
		for s := 0; s < setupSamples; s++ {
			var r passResult
			start, err := p.spawn("setup", w, &r)
			if err != nil {
				return nil, err
			}
			accs[i].setups = append(accs[i].setups, setupSeconds(start, r))
		}
		var led *ledgerResult
		if traced {
			led = new(ledgerResult)
			if _, err := p.spawn("ledger", w, led); err != nil {
				return nil, err
			}
			fmt.Fprintf(p.stderr, "(%s traced pass: ledger in %s)\n", w.name, led.TracePath)
		}
		out[i] = summarize(w, accs[i].passes, accs[i].setups, led, p.expected[w.name])
	}
	return out, nil
}

// workloadReport is one workload's results in one set.
type workloadReport struct {
	Name         string           `json:"name"`
	Why          string           `json:"why"`
	Passes       int              `json:"passes"`
	SetupSamples int              `json:"setup_samples"`
	OpsAttempted int              `json:"ops_attempted"`
	OpsFailed    int              `json:"ops_failed"`
	Failures     []string         `json:"failures,omitempty"`
	SimDigest    string           `json:"sim_digest"`
	EndToEnd     map[string]value `json:"end_to_end"`
	PerLayer     map[string]value `json:"per_layer,omitempty"`
	Trace        string           `json:"trace,omitempty"`
}

type set []workloadReport

func (s set) failed() int {
	n := 0
	for _, w := range s {
		n += w.OpsFailed
	}
	return n
}

// report is the full-mode JSON document.
type report struct {
	Env       env          `json:"env"`
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
	Workloads set          `json:"workloads"`
}

// summarize folds one workload's passes into medians, adds the
// cross-pass determinism check, and merges the ledger.
func summarize(w workloadDef, passes []passResult, setups []float64, led *ledgerResult, expected string) workloadReport {
	rep := workloadReport{Name: w.name, Why: w.why, Passes: len(passes), SetupSamples: len(setups), SimDigest: passes[0].Digest}
	col := func(f func(passResult) float64) float64 {
		vals := make([]float64, len(passes))
		for i, p := range passes {
			vals[i] = f(p)
		}
		return median(vals)
	}
	for i, p := range passes {
		rep.OpsAttempted += p.Attempted
		rep.OpsFailed += p.Failed
		rep.Failures = append(rep.Failures, p.Failures...)
		// The same seed must render the same bytes in every pass.
		if p.Digest != passes[0].Digest {
			rep.OpsFailed++
			rep.Failures = append(rep.Failures, fmt.Sprintf("pass %d rendered digest %s, pass 1 rendered %s", i+1, p.Digest, passes[0].Digest))
		}
	}
	rep.EndToEnd = valuesOf(endToEnd, map[string]float64{
		"host_s":    col(func(p passResult) float64 { return p.HostS }),
		"alloc_mb":  col(func(p passResult) float64 { return p.AllocMB }),
		"mallocs_k": col(func(p passResult) float64 { return p.MallocsK }),
		"setup_s":   median(setups),
	})
	if led == nil {
		return rep
	}
	rep.OpsAttempted += led.Attempted
	rep.OpsFailed += led.Failed
	rep.Failures = append(rep.Failures, led.Failures...)
	rep.Trace = led.TracePath
	m := led.Metrics
	for k, v := range passes[0].Sim {
		m[k] = v
	}
	m["runtime.gc_cycles"] = col(func(p passResult) float64 { return p.GCCycles })
	m["runtime.gc_pause_ms"] = col(func(p passResult) float64 { return p.GCPauseMs })
	m["runtime.rss_peak_mb"] = col(func(p passResult) float64 { return p.RSSPeakMB })
	if expected != "" && expected != rep.SimDigest {
		m["experiments.sim_drift"] = 1
	}
	rep.PerLayer = valuesOf(perLayer, m)
	return rep
}

// contractLine is the one-workload result object.
func (w workloadReport) contractLine(perLayer bool) map[string]any {
	metrics := w.EndToEnd
	if perLayer {
		metrics = w.PerLayer
	}
	return map[string]any{"correct": w.OpsFailed == 0, "attempted": w.OpsAttempted, "failed": w.OpsFailed, "metrics": metrics}
}

func printTable(out io.Writer, s set, layers bool) {
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "\nworkload\tmetric\tmedian\tunit\tsamples\t")
	for _, w := range s {
		for _, spec := range endToEnd {
			n := w.Passes
			if spec.Name == "setup_s" {
				n = w.SetupSamples
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%d\t\n", w.Name, spec.Name, w.EndToEnd[spec.Name].Value, spec.Unit, n)
		}
		fmt.Fprintf(tw, "%s\tops_attempted\t%d\tcount\t\t\n", w.Name, w.OpsAttempted)
		fmt.Fprintf(tw, "%s\tops_failed\t%d\tcount\t\t\n", w.Name, w.OpsFailed)
		fmt.Fprintf(tw, "%s\tsim_digest\t%s\t\t\t\n", w.Name, w.SimDigest)
	}
	tw.Flush()
	for _, w := range s {
		for _, f := range w.Failures {
			fmt.Fprintf(out, "FAILED %s: %s\n", w.Name, f)
		}
	}
	if !layers {
		return
	}
	tw = tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprint(tw, "\nper-layer metric\tunit\t")
	for _, w := range s {
		fmt.Fprintf(tw, "%s\t", w.Name)
	}
	fmt.Fprintln(tw)
	for _, spec := range perLayer {
		fmt.Fprintf(tw, "%s\t%s\t", spec.Name, spec.Unit)
		for _, w := range s {
			fmt.Fprintf(tw, "%.5g\t", w.PerLayer[spec.Name].Value)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// aaRow compares one end-to-end metric of one workload across two sets
// of runs of the same code.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	RelDiff  float64 `json:"rel_diff"` // |second - first| / first
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

func compareSets(a, b set) []aaRow {
	var rows []aaRow
	for i, w := range a {
		for _, spec := range endToEnd {
			x, y := w.EndToEnd[spec.Name].Value, b[i].EndToEnd[spec.Name].Value
			d := y - x
			if d < 0 {
				d = -d
			}
			row := aaRow{Workload: w.Name, Metric: spec.Name, Unit: spec.Unit, First: x, Second: y, Bound: spec.Bound}
			if x > 0 {
				row.RelDiff = d / x
			}
			row.Within = row.RelDiff <= spec.Bound
			rows = append(rows, row)
		}
	}
	return rows
}

func printAA(out io.Writer, rows []aaRow) {
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "\nworkload\tmetric\tfirst\tsecond\tunit\trel diff\tbound\t\t")
	for _, r := range rows {
		verdict := "ok"
		if !r.Within {
			verdict = "DISAGREE"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%.2f%%\t%.0f%%\t%s\t\n", r.Workload, r.Metric, r.First, r.Second, r.Unit, 100*r.RelDiff, 100*r.Bound, verdict)
	}
	tw.Flush()
}
