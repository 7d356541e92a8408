package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// markFact is the test fact type: a payload the tests can compare.
type markFact struct{ N int }

func (*markFact) AFact() {}

const factSrcA = `package a

func Seed() uint64 { return 1 }

type T struct{}

func (t *T) M() int { return 0 }

var V = 3
`

const factSrcB = `package b

import "fixture/a"

func Use() uint64 { return a.Seed() }
`

// mapImporter resolves imports from already-checked packages.
type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return nil, &importError{path}
}

type importError struct{ path string }

func (e *importError) Error() string { return "no package " + e.path }

func checkSrc(t *testing.T, fset *token.FileSet, path, src string, deps mapImporter) *types.Package {
	t.Helper()
	f, err := parser.ParseFile(fset, path+".go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	conf := types.Config{Importer: deps}
	pkg, err := conf.Check(path, fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func methodM(t *testing.T, pkg *types.Package) types.Object {
	t.Helper()
	tn := pkg.Scope().Lookup("T")
	if tn == nil {
		t.Fatal("T not found")
	}
	ms := types.NewMethodSet(types.NewPointer(tn.Type()))
	for i := 0; i < ms.Len(); i++ {
		if m := ms.At(i).Obj(); m.Name() == "M" {
			return m
		}
	}
	t.Fatal("T.M not found")
	return nil
}

// TestCrossPackageFactRoundTrip pins what lets the store do without a
// serialized form: with one importer, a function of package a is the same
// object when package b imports a, so a fact exported while analyzing a
// is found from b's side.
func TestCrossPackageFactRoundTrip(t *testing.T) {
	fset := token.NewFileSet()
	a := checkSrc(t, fset, "fixture/a", factSrcA, nil)
	b := checkSrc(t, fset, "fixture/b", factSrcB, mapImporter{"fixture/a": a})

	facts := NewFactSet()
	facts.ExportObjectFact(a.Scope().Lookup("Seed"), &markFact{N: 7})
	facts.ExportObjectFact(methodM(t, a), &markFact{N: 9})

	var got markFact
	if !facts.ImportObjectFact(b.Imports()[0].Scope().Lookup("Seed"), &got) || got.N != 7 {
		t.Fatalf("cross-package import of Seed's fact = %+v, want N=7", got)
	}
	got = markFact{}
	if !facts.ImportObjectFact(methodM(t, b.Imports()[0]), &got) || got.N != 9 {
		t.Fatalf("cross-package import of T.M's fact = %+v, want N=9", got)
	}
	if facts.ImportObjectFact(a.Scope().Lookup("V"), &got) {
		t.Fatal("an object with no exported fact reported one")
	}
}

// TestExportOverwrites pins the FactSet behavior the fixpoint analyzers
// rely on: re-export replaces (the monotone passes re-export until
// stable).
func TestExportOverwrites(t *testing.T) {
	a := checkSrc(t, token.NewFileSet(), "fixture/a", factSrcA, nil)
	seed := a.Scope().Lookup("Seed")

	s := NewFactSet()
	s.ExportObjectFact(seed, &markFact{N: 1})
	s.ExportObjectFact(seed, &markFact{N: 2})
	var got markFact
	if !s.ImportObjectFact(seed, &got) || got.N != 2 {
		t.Fatalf("overwrite failed: %+v", got)
	}
}
