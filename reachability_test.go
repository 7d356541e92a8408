package sleds_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"sleds/internal/lint/load"
)

// testOnlyKept are the exported simulator functions that only tests call
// but that stay in production code, because the tests of several packages
// share them (Table 4 counts gmcapp's).
var testOnlyKept = map[string]bool{
	"sleds/internal/core.Validate":                       true,
	"sleds/internal/workload.NewBytes":                   true,
	"(*sleds/internal/workload.Content).ReadAll":         true,
	"(*sleds/internal/vfs.Kernel).PageResident":          true,
	"(*sleds/internal/vfs.HostMem).Held":                 true,
	"(sleds/internal/fits.Image).Pixels":                 true,
	"(sleds/internal/apps/gmcapp.Report).CachedFraction": true,
}

// TestEveryExportedFunctionIsReferenced fails on an exported function or
// method of the simulator (sleds.go and internal/, internal/lint aside)
// that nothing references: no code, test, example or command of the
// module, and not the benchmark harness. Such a name is API nobody calls,
// and it is cheaper to delete than to keep correct. It also fails on one
// of internal/ that only _test.go files reference, unless testOnlyKept
// names it or it belongs to the apptest fixture package: such a function
// belongs in its package's export_test.go, or nowhere. The root package is
// the library's API for programs outside the module, so its tests are
// enough.
//
// A reference is a type-checked use of the function's object, so a call
// through an interface does not reach the concrete method; methods are
// exempt when an interface in the module or the harness, error or
// fmt.Stringer names them. cmd/sledsperf is a module of its own, outside
// ./..., so its files are type-checked here against the loaded packages;
// every name it spells, its tests included, counts as production use.
func TestEveryExportedFunctionIsReferenced(t *testing.T) {
	pkgs, fset, err := load.Packages(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]bool) // referenced anywhere
	prod := make(map[string]bool) // referenced outside the module's _test.go files
	ifaceMethods := map[string]bool{"Error": true, "String": true}
	refs := func(files []*ast.File, info *types.Info, harness bool) {
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				name := fn.Origin().FullName()
				used[name] = true
				if harness || !strings.HasSuffix(fset.File(id.Pos()).Name(), "_test.go") {
					prod[name] = true
				}
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					iface := info.TypeOf(it).Underlying().(*types.Interface)
					for i := 0; i < iface.NumMethods(); i++ {
						ifaceMethods[iface.Method(i).Name()] = true
					}
				}
				return true
			})
		}
	}
	for _, p := range pkgs {
		refs(p.Files, p.Info, false)
	}
	files, info, err := checkHarness(pkgs, fset, filepath.Join("cmd", "sledsperf"))
	if err != nil {
		t.Fatal(err)
	}
	refs(files, info, true)

	declared := 0
	for _, p := range pkgs {
		if !isSimulator(p.Path) {
			continue
		}
		for _, f := range p.Files {
			if strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				declared++
				if fd.Recv != nil && ifaceMethods[fd.Name.Name] {
					continue
				}
				name := p.Info.Defs[fd.Name].(*types.Func).FullName()
				switch {
				case !used[name]:
					t.Errorf("%s: %s is referenced nowhere", fset.Position(fd.Pos()), name)
				case !prod[name] && !testOnlyKept[name] && p.Path != "sleds" && !strings.HasSuffix(p.Path, "/apptest"):
					t.Errorf("%s: %s is referenced only by tests", fset.Position(fd.Pos()), name)
				case prod[name] && testOnlyKept[name]:
					t.Errorf("%s: %s has production callers; drop it from testOnlyKept", fset.Position(fd.Pos()), name)
				}
			}
		}
	}
	if declared < 100 {
		t.Fatalf("found only %d exported simulator functions: the scan is not looking at the simulator", declared)
	}
}

// isSimulator reports whether an import path is simulator code in the
// ROADMAP's sense: the root package and internal/, except the linter.
func isSimulator(path string) bool {
	switch {
	case path == "sleds":
		return true
	case strings.HasSuffix(path, "_test"):
		return false
	}
	return strings.HasPrefix(path, "sleds/internal/") && !strings.HasPrefix(path, "sleds/internal/lint/")
}

// checkHarness type-checks the one package in dir, test files included,
// importing the builds the loaded packages import (what an importer sees,
// never a test-augmented variant) and, for anything none of them imports,
// the standard library from source.
func checkHarness(pkgs []*load.Package, fset *token.FileSet, dir string) ([]*ast.File, *types.Info, error) {
	imports := make(map[string]*types.Package)
	var add func(*types.Package)
	add = func(tp *types.Package) {
		for _, dep := range tp.Imports() {
			if imports[dep.Path()] == nil {
				imports[dep.Path()] = dep
				add(dep)
			}
		}
	}
	for _, p := range pkgs {
		add(p.Types)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	std := importer.ForCompiler(fset, "source", nil)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if tp := imports[path]; tp != nil {
			return tp, nil
		}
		return std.Import(path)
	})}
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object), Types: make(map[ast.Expr]types.TypeAndValue)}
	if _, err := conf.Check(dir, fset, files, info); err != nil {
		return nil, nil, fmt.Errorf("type-checking %s: %w", dir, err)
	}
	return files, info, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
