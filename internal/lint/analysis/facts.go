package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// Facts are per-object summaries an analyzer computes in one package
// and reads in another — the mechanism that turns the syntactic
// multichecker into an inter-procedural one. This mirrors
// golang.org/x/tools/go/analysis object facts: a fact type is a
// pointer to a struct implementing AFact, exported on a types.Object
// (here always a *types.Func), and imported by downstream passes.
//
// Because the driver loads the whole module through one importer and
// one FileSet (see internal/lint/load), a function object in package A
// is the *same* *types.Func when package B imports A, so the in-memory
// store keys facts by object identity and no export-data plumbing is
// needed: the driver simply analyzes packages in dependency order, every
// package in one process over one FactSet, so facts have no serialized
// form.

// Fact is a marker interface for analyzer fact types. Implementations
// must be pointers to structs.
type Fact interface{ AFact() }

type factKey struct {
	obj types.Object
	typ reflect.Type
}

// FactSet stores object facts for one driver run, shared by every
// analyzer pass (fact types, not analyzer names, provide namespacing —
// each analyzer declares its own unexported fact structs).
type FactSet struct {
	m map[factKey]Fact
}

// NewFactSet returns an empty store.
func NewFactSet() *FactSet { return &FactSet{m: make(map[factKey]Fact)} }

// ExportObjectFact records fact for obj, overwriting any previous fact
// of the same type. fact must be a non-nil pointer.
func (s *FactSet) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil {
		panic("analysis: ExportObjectFact on nil object")
	}
	v := reflect.ValueOf(fact)
	if v.Kind() != reflect.Ptr || v.IsNil() {
		panic(fmt.Sprintf("analysis: fact %T is not a non-nil pointer", fact))
	}
	s.m[factKey{obj, v.Type()}] = fact
}

// ImportObjectFact copies the fact of ptr's type recorded for obj into
// *ptr and reports whether one was found.
func (s *FactSet) ImportObjectFact(obj types.Object, ptr Fact) bool {
	if obj == nil {
		return false
	}
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Ptr || v.IsNil() {
		panic(fmt.Sprintf("analysis: fact %T is not a non-nil pointer", ptr))
	}
	got, ok := s.m[factKey{obj, v.Type()}]
	if !ok {
		return false
	}
	v.Elem().Set(reflect.ValueOf(got).Elem())
	return true
}
