package experiments

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"sleds/internal/device"
)

// TableRow is one storage level of Tables 2/3.
type TableRow struct {
	Level     string
	Latency   float64 // seconds
	Bandwidth float64 // bytes/sec
}

// DeviceTable is a regenerated Table 2 or Table 3.
type DeviceTable struct {
	ID    string
	Title string
	Rows  []TableRow
}

// Render draws the table in the paper's layout.
func (t DeviceTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&b, "%-12s %14s %14s\n", "level", "latency", "throughput")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s %14s %11.1f MB/s\n", r.Level, fmtLatency(r.Latency), r.Bandwidth/float64(MB))
	}
	return b.String()
}

func fmtLatency(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.1f sec", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.1f msec", s*1e3)
	case s >= 1e-6:
		return fmt.Sprintf("%.1f usec", s*1e6)
	default:
		return fmt.Sprintf("%.0f nsec", s*1e9)
	}
}

// deviceTable measures one machine profile with lmbench and formats the
// rows the way the paper's tables do.
func deviceTable(cfg Config, profile Profile, id, title string, levels []string) (DeviceTable, error) {
	m, err := BootMachine(cfg, profile)
	if err != nil {
		return DeviceTable{}, err
	}
	t := DeviceTable{ID: id, Title: title}
	memE, _ := m.Table.Memory()
	byLevel := map[string]TableRow{
		"memory": {Level: "memory", Latency: memE.Latency, Bandwidth: memE.Bandwidth},
	}
	for _, d := range m.K.Devices.All() {
		info := d.Info()
		if info.Level == device.LevelMemory {
			continue
		}
		e, ok := m.Table.Device(info.ID)
		if !ok {
			continue
		}
		byLevel[info.Level.String()] = TableRow{Level: info.Level.String(), Latency: e.Latency, Bandwidth: e.Bandwidth}
	}
	for _, lvl := range levels {
		row, ok := byLevel[lvl]
		if !ok {
			return DeviceTable{}, fmt.Errorf("experiments: no measurement for level %q", lvl)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table2 regenerates Table 2: the storage levels of the Unix-utilities
// machine, measured by the in-simulation lmbench at boot.
func Table2(cfg Config) (DeviceTable, error) {
	return deviceTable(cfg, ProfileUnix, "table2",
		"storage levels used for measuring Unix utilities",
		[]string{"memory", "hard disk", "CD-ROM", "NFS"})
}

// Table3 regenerates Table 3: the LHEASOFT machine's levels.
func Table3(cfg Config) (DeviceTable, error) {
	return deviceTable(cfg, ProfileLHEA, "table3",
		"storage levels used for measuring LHEASOFT utilities",
		[]string{"memory", "hard disk"})
}

// CodeRow is one application of Table 4.
type CodeRow struct {
	App   string
	Total int // lines of Go in the package
	SLEDs int // lines belonging to SLEDs-specific declarations
}

// CodeTable is the regenerated Table 4: how much of each application is
// SLEDs-specific. The paper reports lines added or modified relative to
// the GNU originals; here, with both code paths in one package, the
// equivalent is the line count of the declarations that exist only for
// the SLEDs path.
type CodeTable struct {
	Rows []CodeRow
}

// Render draws the table.
func (t CodeTable) Render() string {
	var b strings.Builder
	b.WriteString("== table4: lines of code, SLEDs-specific vs total ==\n")
	fmt.Fprintf(&b, "%-10s %10s %10s\n", "app", "sleds", "total")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s %10d %10d\n", r.App, r.SLEDs, r.Total)
	}
	return b.String()
}

// sledsDecls names the SLEDs-specific top-level declarations per package:
// the code that exists only because of the SLEDs port.
var sledsDecls = map[string][]string{
	"wcapp":   {"runSLEDs", "boundaryInfo", "sledsChunkOverhead"},
	"grepapp": {"runSLEDs", "nextPick", "emit", "finishSLEDs", "chunkRec", "merger", "segment", "newMerger", "sledsScanRate", "chunkOverhead"},
	"findapp": {"LatencyPred", "ParseLatencyPredicate", "Op", "OpLess", "OpExactly", "OpMore"},
	"gmcapp":  {"Report", "Properties", "CachedFraction"},
	"fitsapp": {"forEachChunk", "chunkOverhead"},
}

// Table4 regenerates Table 4 by parsing this repository's application
// sources (located relative to this file via runtime.Caller) and counting
// total versus SLEDs-specific lines.
func Table4() (CodeTable, error) {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		return CodeTable{}, fmt.Errorf("experiments: cannot locate source tree")
	}
	appsDir := filepath.Join(filepath.Dir(self), "..", "apps")
	var t CodeTable
	names := make([]string, 0, len(sledsDecls))
	for name := range sledsDecls {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, pkg := range names {
		total, sleds, err := countPackage(filepath.Join(appsDir, pkg), sledsDecls[pkg])
		if err != nil {
			return CodeTable{}, err
		}
		t.Rows = append(t.Rows, CodeRow{App: pkg, Total: total, SLEDs: sleds})
	}
	return t, nil
}

// countPackage parses every non-test Go file in dir, returning the total
// line count and the lines spanned by the named declarations.
func countPackage(dir string, marked []string) (total, sleds int, err error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("experiments: parsing %s: %w", dir, err)
	}
	markedSet := make(map[string]bool, len(marked))
	for _, m := range marked {
		markedSet[m] = true
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			tf := fset.File(file.Pos())
			total += tf.LineCount()
			for _, decl := range file.Decls {
				for _, name := range declNames(decl) {
					if markedSet[name] {
						start := fset.Position(decl.Pos()).Line
						end := fset.Position(decl.End()).Line
						sleds += end - start + 1
						break
					}
				}
			}
		}
	}
	return total, sleds, nil
}

// declNames extracts the names a top-level declaration introduces.
func declNames(decl ast.Decl) []string {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return []string{d.Name.Name}
	case *ast.GenDecl:
		var out []string
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				out = append(out, s.Name.Name)
			case *ast.ValueSpec:
				for _, n := range s.Names {
					out = append(out, n.Name)
				}
			}
		}
		return out
	default:
		return nil
	}
}
