package sleds_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSimulatorHasNoGoroutines pins the ROADMAP scoreboard line "goroutines
// in non-test simulator code: 0": no `go` statement and no channel type in
// any non-test file of the simulator (internal/ plus sleds.go). Simulated
// concurrency is the iosched event heap; determinism at any GOMAXPROCS
// follows from there being nothing to schedule. Outside the fence, by name:
// internal/lint (a host tool, not the simulator) and the host-side worker
// pool that runs independent grid points in parallel.
func TestSimulatorHasNoGoroutines(t *testing.T) {
	const hostPool = "internal/experiments/runner.go"
	files := []string{"sleds.go"}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path == "internal/lint" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") && path != hostPool {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(files, "internal/iosched/engine.go") {
		t.Fatalf("walked %d files and missed the engine: the guard is not looking at the simulator", len(files))
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement in simulator code", fset.Position(n.Pos()))
			case *ast.ChanType:
				t.Errorf("%s: channel type in simulator code", fset.Position(n.Pos()))
			}
			return true
		})
	}
}
