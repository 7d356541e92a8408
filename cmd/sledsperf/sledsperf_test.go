package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"sleds/internal/device"
	"sleds/internal/experiments"
)

// childPass runs one smoke pass child in-process and decodes its result.
func childPass(t *testing.T, name string) passResult {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-child", "pass", "-smoke", "-workload", name}, &stdout, &stderr); code != 0 {
		t.Fatalf("%s: smoke pass exited %d: %s", name, code, stderr.String())
	}
	var r passResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		t.Fatalf("%s: smoke pass printed %q: %v", name, stdout.String(), err)
	}
	return r
}

func TestSmokePassVerifiesAndRepeats(t *testing.T) {
	for _, w := range workloads {
		first, second := childPass(t, w.name), childPass(t, w.name)
		if first.Attempted == 0 || first.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, first.Failed, first.Attempted, first.Failures)
		}
		if first.Digest == "" || first.Digest != second.Digest {
			t.Errorf("%s: two passes at one seed rendered digests %q and %q", w.name, first.Digest, second.Digest)
		}
		if first.HostS <= 0 || first.AllocMB <= 0 || first.MallocsK <= 0 || first.FirstCallUnixNs == 0 {
			t.Errorf("%s: pass reported a zero end-to-end reading: %+v", w.name, first)
		}
	}
}

func TestInterposersAreTransparent(t *testing.T) {
	for _, w := range workloads {
		plain, err := runPoint(w, nil, defaultSeed, true)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		rec := newRecorder()
		traced, err := runPoint(w, rec, defaultSeed, true)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if len(plain.Sim) == 0 || !reflect.DeepEqual(plain.Sim, traced.Sim) {
			t.Errorf("%s: virtual-time results differ:\nuntraced %v\ntraced   %v", w.name, plain.Sim, traced.Sim)
		}
		if len(plain.Runs) == 0 || !reflect.DeepEqual(plain.Runs, traced.Runs) {
			t.Errorf("%s: vfs.RunStats differ:\nuntraced %+v\ntraced   %+v", w.name, plain.Runs, traced.Runs)
		}
		if plain.Cache != traced.Cache || plain.Memo != traced.Memo || plain.Events != traced.Events || plain.Faults != traced.Faults {
			t.Errorf("%s: public counters differ between the untraced and the traced point", w.name)
		}
		if len(rec.open) != 0 {
			t.Errorf("%s: %d spans left open", w.name, len(rec.open))
		}
		led := rec.aggregate(w.name, defaultSeed, 1)
		gens, _, _ := led.total(spanGen)
		devs, _, _ := led.total(spanDevice)
		if devs == 0 {
			t.Errorf("%s: no device span recorded", w.name)
		}
		// fleet reads raw devices and generates no page; every other
		// workload's misses each generate one.
		if (w.name == "fleet") != (gens == 0) {
			t.Errorf("%s: %d workload.gen spans", w.name, gens)
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	rec := &recorder{spans: []span{
		{name: spanPoint, parent: -1, start: 0, end: 100},
		{name: spanApp, parent: 0, start: 10, end: 70},
		{name: spanGen, parent: 1, start: 20, end: 30},
		{name: spanGen, parent: 1, start: 40, end: 55},
		{name: spanDevice, parent: 1, start: 60, end: 65},
	}}
	led := rec.aggregate("t", 1, 100e-9)
	_, total, self := led.total(spanApp)
	if got, want := math.Round(total*1e9), 60.0; got != want {
		t.Errorf("apps.run total %v ns, want %v", got, want)
	}
	if got, want := math.Round(self*1e9), 30.0; got != want {
		t.Errorf("apps.run self %v ns, want %v (60 minus children 10+15+5)", got, want)
	}
	n, total, _ := led.total(spanGen)
	if n != 2 || math.Round(total*1e9) != 25 {
		t.Errorf("workload.gen: %d spans, %v s", n, total)
	}
	var sum float64
	for _, l := range led.Layers {
		sum += l.SelfShare
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("self shares sum to %v, want 1: every nanosecond of the root belongs to one layer", sum)
	}
}

func TestTimedDeviceKeepsMarkers(t *testing.T) {
	rec := newRecorder()
	cases := []struct {
		dev               device.Device
		chunked, readOnly bool
	}{
		{device.NewDisk(device.Table2DiskConfig(1)), false, false},
		{device.NewCDROM(device.DefaultCDROMConfig(2)), false, true},
		{device.NewTapeLibrary(device.DefaultTapeLibraryConfig(4)), true, false},
	}
	for _, c := range cases {
		w := wrapDevice(rec, c.dev)
		_, isChunked := w.(interface{ ChunkSize() int64 })
		_, isRO := w.(interface{ ReadOnly() bool })
		if isChunked != c.chunked || isRO != c.readOnly {
			t.Errorf("%s: wrapped device has ChunkSize=%v ReadOnly=%v, raw has %v %v", c.dev.Info().Name, isChunked, isRO, c.chunked, c.readOnly)
		}
		if _, ok := w.(device.FallibleDevice); !ok {
			t.Errorf("%s: wrapped device lost the fallible path", c.dev.Info().Name)
		}
	}
}

func TestVerifyRejectsBadOutput(t *testing.T) {
	good := func() experiments.Figure {
		return experiments.Figure{ID: "f", Series: []experiments.Series{
			{Name: "a", Points: []experiments.Point{{X: 1, Mean: 2}, {X: 2, Mean: 3}}},
			{Name: "b", Points: []experiments.Point{{X: 1, Mean: 0}, {X: 2, Mean: 1, CI90: 0.1}}},
		}}
	}
	c := call{name: "f", golden: true}
	out, err := figure(good(), nil)
	if err != nil {
		t.Fatalf("good figure rejected: %v", err)
	}
	if err := verify(c, out, "header\n"+out.text+"\ntrailer\n"); err != nil {
		t.Fatalf("good output rejected: %v", err)
	}
	if err := verify(c, out, "another rendering"); err == nil {
		t.Error("render absent from the golden file accepted")
	}
	bad := func(name string, mutate func(f *experiments.Figure)) {
		f := good()
		mutate(&f)
		if _, err := figure(f, nil); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	bad("NaN value", func(f *experiments.Figure) { f.Series[0].Points[1].Mean = math.NaN() })
	bad("infinite value", func(f *experiments.Figure) { f.Series[1].Points[0].Mean = math.Inf(1) })
	bad("negative value", func(f *experiments.Figure) { f.Series[0].Points[0].Mean = -1 })
	bad("missing row", func(f *experiments.Figure) { f.Series[1].Points = f.Series[1].Points[:1] })
	bad("missing series", func(f *experiments.Figure) { f.Series = nil })
	if _, err := figurePair(good(), experiments.Figure{ID: "g"}, nil); err == nil {
		t.Error("pair with an empty second figure accepted")
	}

	if err := verify(call{name: "r"}, output{text: "  olap sstf 1.5 NaN 3\n"}, ""); err == nil {
		t.Error("report with a NaN cell accepted")
	}
	if err := verify(call{name: "r"}, output{}, ""); err == nil {
		t.Error("empty render accepted")
	}
}

func TestDigestMismatchAcrossPassesFails(t *testing.T) {
	w := workloads[0]
	same := []passResult{{Attempted: 5, Digest: "aa"}, {Attempted: 5, Digest: "aa"}}
	if rep := summarize(w, same, []float64{0.01}, nil, ""); rep.OpsFailed != 0 || rep.OpsAttempted != 10 {
		t.Errorf("equal digests: %d of %d failed", rep.OpsFailed, rep.OpsAttempted)
	}
	diff := []passResult{{Attempted: 5, Digest: "aa"}, {Attempted: 5, Digest: "bb"}}
	if rep := summarize(w, diff, []float64{0.01}, nil, ""); rep.OpsFailed != 1 {
		t.Errorf("different digests at one seed: %d failed, want 1", rep.OpsFailed)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func TestPrintedNamesMatchBenchmarkJSON(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}

	// What the command prints for one workload, from a pass and a ledger
	// that measured nothing: every metric must still be there.
	rep := summarize(workloads[0], []passResult{{Attempted: 1, Digest: "d"}}, []float64{0.01}, &ledgerResult{Metrics: map[string]float64{}}, "")
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, listed []metricSpec, perLayer bool) {
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]value
		}
		var buf bytes.Buffer
		writeJSON(&buf, rep.contractLine(perLayer), false)
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
			t.Fatalf("%s result line %q: %v", kind, buf.String(), err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("%s result line: %s", kind, buf.String())
		}
		want := map[string]metricSpec{}
		for _, s := range listed {
			if _, dup := want[s.Name]; dup {
				t.Errorf("BENCHMARK.json lists %s metric %s twice", kind, s.Name)
			}
			want[s.Name] = s
		}
		for name, v := range line.Metrics {
			if !nameRE.MatchString(name) || !unitRE.MatchString(v.Unit) {
				t.Errorf("%s metric %q (unit %q) is outside the allowed characters", kind, name, v.Unit)
			}
			s, ok := want[name]
			if !ok {
				t.Errorf("%s metric %s is printed but not listed in BENCHMARK.json", kind, name)
			} else if s.Unit != v.Unit {
				t.Errorf("%s metric %s: printed unit %q, BENCHMARK.json says %q", kind, name, v.Unit, s.Unit)
			}
			delete(want, name)
		}
		for name := range want {
			t.Errorf("%s metric %s is listed in BENCHMARK.json but not printed", kind, name)
		}
	}
	check("end-to-end", bf.EndToEnd, false)
	check("per-layer", bf.PerLayer, true)

	// Direction and bound are the benchmark's own; the file must not drift.
	for i, s := range endToEnd {
		if got := bf.EndToEnd[i]; got.Name != s.Name || got.Better != s.Better || got.Bound != s.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, metrics.go has %+v", i, got, s)
		}
	}
	for i, s := range perLayer {
		if got := bf.PerLayer[i]; got.Name != s.Name || got.Better != s.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, metrics.go has %+v", i, got, s)
		}
	}
}

func TestEveryProbeReportsAPositiveCost(t *testing.T) {
	cfg := workloads[0].config(defaultSeed, true)
	got, err := runProbes(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range probes {
		if v := got[pr.name]; !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("probe %s read %v", pr.name, v)
		}
	}
	for _, name := range []string{"iosched.event_ratio_10k_1k", "vfs.step_miss_allocs_page", "vfs.step_miss_bytes_page"} {
		if !(got[name] > 0) {
			t.Errorf("%s read %v", name, got[name])
		}
	}
	listed := map[string]bool{}
	for _, s := range perLayer {
		listed[s.Name] = true
	}
	for name := range got {
		if !listed[name] {
			t.Errorf("probe metric %s is not in the per-layer list", name)
		}
	}
}
