package experiments

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// selectedIDs resolves spec and returns the artifact ids it prints, in
// registry order.
func selectedIDs(t *testing.T, spec string) []string {
	t.Helper()
	run, wanted, err := Select(spec)
	if err != nil {
		t.Fatalf("Select(%q): %v", spec, err)
	}
	var ids []string
	for _, e := range run {
		for _, id := range e.IDs {
			if wanted[id] {
				ids = append(ids, id)
			}
		}
	}
	return ids
}

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range IDs() {
		if seen[id] {
			t.Errorf("id %q is registered twice", id)
		}
		seen[id] = true
	}
	for _, e := range registry() {
		if len(e.IDs) == 0 || e.Run == nil {
			t.Errorf("entry %v declares no id or no run function", e.IDs)
		}
		switch e.group {
		case groupPaper, groupExtension, groupAblation:
		default:
			t.Errorf("entry %v has unknown group %q", e.IDs, e.group)
		}
	}
}

// numbered matches the ids named after the paper's numbering: t2, f10.
var numbered = regexp.MustCompile(`^([tf])(\d+)$`)

// goldenHeader is the `== <id>:` header an experiment id prints under:
// tables and figures are numbered after the paper, everything else prints
// its own id.
func goldenHeader(id string) string {
	switch m := numbered.FindStringSubmatch(id); {
	case id == "f15":
		return "fig15(x4)"
	case id == "f15x16":
		return "fig15(x16)"
	case m != nil && m[1] == "t":
		return "table" + m[2]
	case m != nil:
		return "fig" + m[2]
	}
	return id
}

// TestRegistryOrderMatchesGolden pins print order: what "all" selects, in
// registry order, is the header sequence of the committed quick-scale
// golden.
func TestRegistryOrderMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("../../experiments_quick_scale.txt")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range regexp.MustCompile(`(?m)^== ([^:]+):`).FindAllStringSubmatch(string(golden), -1) {
		want = append(want, m[1])
	}
	var got []string
	for _, id := range selectedIDs(t, SelectAll) {
		got = append(got, goldenHeader(id))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registry order prints\n%v\nthe golden has\n%v", got, want)
	}
}

// TestPaperScaleFirstRows checks the paper-scale golden inside tier-1, at
// the scale only it reaches (a 44 MB cache, 8..128 MB files): each paper
// figure, run at PaperConfig over the first of its sizes, renders the
// golden's header, column line and first row. The point seeds follow the
// size index, so a prefix of the sizes reproduces the golden's rows for it.
// Figure 13 keeps the whole list: it plots one size, the middle one.
func TestPaperScaleFirstRows(t *testing.T) {
	golden, err := os.ReadFile("../../experiments_paper_scale.txt")
	if err != nil {
		t.Fatal(err)
	}
	firstRows := func(text string) string {
		lines := strings.SplitAfterN(text, "\n", 4)
		return strings.Join(lines[:min(3, len(lines))], "")
	}
	paper := PaperConfig()
	// One worker: every worker's arena keeps fig13's 64 MB file for the
	// package's later grids, so a second one adds about 120 MB to the
	// package's peak RSS.
	paper.Workers = 1
	for _, e := range registry() {
		cfg := paper
		switch e.IDs[0] {
		case "f13":
		case "f7", "f9", "f10", "f11", "f14", "f15", "f15x16":
			cfg.Sizes = paper.Sizes[:1]
		default:
			continue
		}
		arts, err := e.Run(cfg, nil, 0)
		if err != nil {
			t.Fatalf("%v: %v", e.IDs, err)
		}
		for _, a := range arts {
			header := "== " + goldenHeader(a.ID) + ":"
			_, section, ok := strings.Cut(string(golden), "\n"+header)
			if !ok {
				t.Fatalf("the paper-scale golden has no %q section", header)
			}
			if got, want := firstRows(a.Text), firstRows(header+section); got != want {
				t.Errorf("%s at paper scale renders\n%sthe golden has\n%s", a.ID, got, want)
			}
		}
	}
}

func TestRegistrySelectors(t *testing.T) {
	var outside []string
	inAll := map[string]bool{}
	for _, id := range selectedIDs(t, SelectAll) {
		inAll[id] = true
	}
	for _, e := range registry() {
		for _, id := range e.IDs {
			if !inAll[id] {
				outside = append(outside, id)
			}
		}
	}
	if want := []string{"escale", "etrace", "efleet"}; !reflect.DeepEqual(outside, want) {
		t.Errorf("ids outside %q: %v, want %v", SelectAll, outside, want)
	}
	wantAblations := []string{"ablation-policy", "ablation-pickorder", "ablation-refresh",
		"ablation-readahead", "ablation-mmap", "ablation-zones"}
	if got := selectedIDs(t, SelectAblations); !reflect.DeepEqual(got, wantAblations) {
		t.Errorf("%q selects %v, want %v", SelectAblations, got, wantAblations)
	}
	// A named id prints its own artifact only, whatever sweep serves it,
	// and joins a group selector rather than replacing it.
	if got := selectedIDs(t, " f8 , efleet,"); !reflect.DeepEqual(got, []string{"f8", "efleet"}) {
		t.Errorf("f8,efleet selects %v", got)
	}
	if got := selectedIDs(t, "efleet,all"); len(got) != len(inAll)+1 {
		t.Errorf("efleet,all selects %d ids, want %d", len(got), len(inAll)+1)
	}
	for _, spec := range []string{"", " , ", "f7,bogus"} {
		if _, _, err := Select(spec); err == nil {
			t.Errorf("Select(%q) succeeded", spec)
		}
	}
}

// TestDocsNameRegisteredIDs is the doc-drift gate: every id the prose
// shows after `-exp` (as in `sledsbench -exp f7,f8`) must be registered.
func TestDocsNameRegisteredIDs(t *testing.T) {
	known := map[string]bool{}
	for _, id := range IDs() {
		known[id] = true
	}
	token := regexp.MustCompile(`-exp ([A-Za-z0-9_-]+(?:,[A-Za-z0-9_-]+)*)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		matches := token.FindAllStringSubmatch(string(text), -1)
		if len(matches) == 0 {
			t.Errorf("%s: no `-exp <id>` token found; has the pattern drifted?", doc)
		}
		for _, m := range matches {
			for _, id := range strings.Split(m[1], ",") {
				if !known[id] {
					t.Errorf("%s names `-exp %s`, which is not a registered id", doc, id)
				}
			}
		}
	}
}

// TestDocsNameExistingBenchmarks is the same gate for the other half of
// DESIGN.md's "regenerated by" column: every Benchmark the documents name
// must be a benchmark function somewhere in the module.
func TestDocsNameExistingBenchmarks(t *testing.T) {
	defined := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range regexp.MustCompile(`Benchmark\w+`).FindAllString(string(text), -1) {
			if !defined[name] {
				t.Errorf("%s names %s, which no _test.go file defines", doc, name)
			}
		}
	}
}
