package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// spanName identifies what a span timed. The part before the dot is the
// repository module (layer) the time is charged to.
type spanName uint8

const (
	spanPoint        spanName = iota // one rebuilt experiment point, the root
	spanBoot                         // experiments.BootMachine, or the hand-built boot of scale/fleet
	spanProgram                      // a Step of a Program the experiment itself owns
	spanCreate                       // vfs.Kernel.Create / fleet.CreateFile
	spanWarm                         // cache warm-up reads before the measured run
	spanApp                          // one application run (wc, grep, fimhisto, fimgbin)
	spanEngine                       // iosched.Engine.Run
	spanFleet                        // fleet.New and every fleet.Read.Step
	spanTraceGen                     // trace.Generate
	spanTraceCompile                 // trace.NewReplay
	spanGen                          // one workload.PageGen call
	spanDevice                       // one device.Device Read/Write/ReadErr/WriteErr
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanPoint:        "experiments.point",
	spanBoot:         "experiments.boot",
	spanProgram:      "experiments.program",
	spanCreate:       "vfs.create",
	spanWarm:         "vfs.warm",
	spanApp:          "apps.run",
	spanEngine:       "iosched.run",
	spanFleet:        "fleet.step",
	spanTraceGen:     "trace.generate",
	spanTraceCompile: "trace.compile",
	spanGen:          "workload.gen",
	spanDevice:       "device.model",
}

func (n spanName) String() string { return spanNames[n] }

// layer is the module a span's time is charged to.
func (n spanName) layer() string {
	s := spanNames[n]
	return s[:strings.IndexByte(s, '.')]
}

// span is one timed call: what, when (ns since the recorder started),
// and the span that was open when it began.
type span struct {
	name       spanName
	parent     int32 // index into recorder.spans, -1 for a root
	start, end int64
}

// recorder keeps the spans of one traced point in memory. A point runs
// on one goroutine (Workers = 1), so the stack of open spans is the
// causal chain and needs no locking. A nil recorder records nothing:
// the untraced run of the same point goes through the same code with
// every begin/end a no-op and every interposer absent.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int32
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) begin(n spanName) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{name: n, parent: parent, start: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.spans[id].end = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// edgeAgg sums the spans of one name under one parent name.
type edgeAgg struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent"`
	Count  int64   `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// layerAgg sums the self time of every span charged to one layer.
type layerAgg struct {
	Layer     string  `json:"layer"`
	Count     int64   `json:"count"`
	SelfS     float64 `json:"self_s"`
	SelfShare float64 `json:"self_share"`
}

// ledger is the aggregated trace of one workload's traced point; it is
// what trace-<workload>.json holds.
type ledger struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	WallS    float64    `json:"wall_s"`
	Spans    int        `json:"spans"`
	Layers   []layerAgg `json:"layers"`
	Edges    []edgeAgg  `json:"edges"`
	Head     []headSpan `json:"head"`
}

// headSpan is a raw span as written to the ledger's sample.
type headSpan struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  int32  `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// ledgerHead is how many raw spans the ledger file keeps verbatim; the
// aggregates cover all of them.
const ledgerHead = 64

// aggregate folds the recorder's spans. Self time is a span's duration
// minus the time its direct children cover; wall is the traced point's
// wall-clock seconds, the base of every share.
func (r *recorder) aggregate(workload string, seed int64, wall float64) ledger {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	type edgeKey struct{ name, parent int }
	edges := map[edgeKey]*edgeAgg{}
	layers := map[string]*layerAgg{}
	for i, s := range r.spans {
		pk, pname := -1, ""
		if s.parent >= 0 {
			pk = int(r.spans[s.parent].name)
			pname = r.spans[s.parent].name.String()
		}
		dur := float64(s.end-s.start) / 1e9
		self := float64(s.end-s.start-child[i]) / 1e9
		k := edgeKey{int(s.name), pk}
		e := edges[k]
		if e == nil {
			e = &edgeAgg{Name: s.name.String(), Parent: pname}
			edges[k] = e
		}
		e.Count++
		e.TotalS += dur
		e.SelfS += self
		l := layers[s.name.layer()]
		if l == nil {
			l = &layerAgg{Layer: s.name.layer()}
			layers[s.name.layer()] = l
		}
		l.Count++
		l.SelfS += self
	}
	var edgeRows []edgeAgg
	for _, e := range edges {
		edgeRows = append(edgeRows, *e)
	}
	sort.Slice(edgeRows, func(i, j int) bool {
		a, b := edgeRows[i], edgeRows[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Parent < b.Parent
	})
	var layerRows []layerAgg
	for _, l := range layers {
		if wall > 0 {
			l.SelfShare = l.SelfS / wall
		}
		layerRows = append(layerRows, *l)
	}
	sort.Slice(layerRows, func(i, j int) bool { return layerRows[i].Layer < layerRows[j].Layer })
	out := ledger{Workload: workload, Seed: seed, WallS: wall, Spans: len(r.spans), Layers: layerRows, Edges: edgeRows}
	for i, s := range r.spans {
		if i == ledgerHead {
			break
		}
		out.Head = append(out.Head, headSpan{ID: i, Name: s.name.String(), Parent: s.parent, StartNs: s.start, EndNs: s.end})
	}
	return out
}

// total sums the spans of one name over every parent.
func (l ledger) total(n spanName) (count int64, totalS, selfS float64) {
	for _, e := range l.Edges {
		if e.Name == n.String() {
			count += e.Count
			totalS += e.TotalS
			selfS += e.SelfS
		}
	}
	return count, totalS, selfS
}

// write stores the ledger as <dir>/trace-<workload>.json.
func (l ledger) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+l.Workload+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
