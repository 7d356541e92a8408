package load

import (
	"go/types"
	"os"
	"testing"
)

// TestPackagesTypechecks loads real module packages through the
// two-level importer: sleds/internal/core pulls in module-local deps
// (vfs, device, simclock) and the stdlib through the source importer.
func TestPackagesTypechecks(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, modulePath, err := findModule(wd)
	if err != nil {
		t.Fatal(err)
	}
	if modulePath != "sleds" {
		t.Fatalf("module path = %q, want sleds", modulePath)
	}
	pkgs, fset, err := Packages(root, "./internal/core", "./internal/simclock")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	for _, p := range pkgs {
		if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
			t.Fatalf("%s: incomplete package", p.Path)
		}
	}
	// Packages sorts by path: core first.
	core := pkgs[0]
	if core.Path != "sleds/internal/core" {
		t.Fatalf("pkgs[0] = %s, want sleds/internal/core", core.Path)
	}
	obj := core.Types.Scope().Lookup("Query")
	if obj == nil {
		t.Fatal("core.Query not found in package scope")
	}
	if _, ok := obj.Type().(*types.Signature); !ok {
		t.Fatalf("core.Query is %T, want function", obj.Type())
	}
	if fset == nil {
		t.Fatal("nil fileset")
	}
}

// TestTestsMode pins how test files load: the in-package test files
// are merged into an augmented variant that replaces the pristine
// package in the returned roots, and the external test package loads
// under a "_test"-suffixed path — while import edges keep resolving
// against the pristine build.
func TestTestsMode(t *testing.T) {
	const tinyPath = "sleds/internal/lint/load/testdata/src/tiny"

	pkgs, _, err := Packages("", "./testdata/src/tiny")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("tests load: %d packages, want 2", len(pkgs))
	}
	aug, ext := pkgs[0], pkgs[1] // sorted by path: tiny before tiny_test
	if aug.Path != tinyPath || !aug.Test {
		t.Fatalf("pkgs[0] = %s (Test=%v)", aug.Path, aug.Test)
	}
	if aug.Types.Scope().Lookup("helperAnswer") == nil {
		t.Fatal("augmented package lacks the in-package test symbol")
	}
	if ext.Path != tinyPath+"_test" || !ext.Test {
		t.Fatalf("pkgs[1] = %s (Test=%v)", ext.Path, ext.Test)
	}

	// The external package imports tiny: that edge must be the
	// pristine build, not the augmented one.
	var pristine *types.Package
	for _, d := range ext.Types.Imports() {
		if d.Path() == tinyPath {
			pristine = d
		}
	}
	if pristine == nil {
		t.Fatal("external test package does not import tiny")
	}
	if pristine == aug.Types {
		t.Fatal("import edge resolved to the augmented variant")
	}
	if pristine.Scope().Lookup("helperAnswer") != nil {
		t.Fatal("pristine import sees a test-only symbol")
	}
}

// TestDirSyntheticPath loads a directory under a caller-chosen import
// path — the hook linttest uses to place testdata inside scoped trees.
func TestDirSyntheticPath(t *testing.T) {
	p, _, err := Dir("testdata/src/tiny", "sleds/internal/vfs")
	if err != nil {
		t.Fatal(err)
	}
	if p.Path != "sleds/internal/vfs" {
		t.Fatalf("path = %q", p.Path)
	}
	if p.Types.Scope().Lookup("Answer") == nil {
		t.Fatal("Answer not found")
	}
}
