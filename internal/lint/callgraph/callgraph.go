// Package callgraph builds a deterministic static call graph over
// type-checked packages, the shared substrate for sledlint's
// inter-procedural analyzers (seedflow, errflow).
//
// The graph is intentionally simple: one node per declared function or
// method (*types.Func), one edge per statically resolvable call site.
// Calls through interface values resolve to the interface method's
// *types.Func (which has no body in the graph — analyzers treat it as
// an opaque leaf), and calls through function-typed values resolve to
// nothing. That under-approximation is the right trade for lint rules:
// every edge in the graph is a call that definitely can happen, so a
// diagnostic derived from it never blames an impossible path.
//
// Determinism contract: Callees and Funcs return slices in a fixed
// order (full name, then declaration position) that is identical across
// repeated builds, input file order, and GOMAXPROCS — the driver's
// diagnostic ordering and the fact fixpoints depend on it, and the
// callgraph tests pin it.
package callgraph

import (
	"go/ast"
	"go/types"
	"sort"
)

// Graph maps each declared function to the functions it calls.
type Graph struct {
	callees map[*types.Func][]*types.Func
	funcs   []*types.Func // declared functions with bodies, sorted on demand
	sorted  bool
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{callees: make(map[*types.Func][]*types.Func)}
}

// AddPackage records the call edges of one type-checked package. Calls
// inside function literals are attributed to the enclosing declared
// function — for lint purposes a closure's allocations and taints
// belong to the function that runs it.
func (g *Graph) AddPackage(files []*ast.File, info *types.Info) {
	g.sorted = false
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.funcs = append(g.funcs, fn)
			seen := make(map[*types.Func]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := Callee(info, call)
				if callee == nil || seen[callee] {
					return true
				}
				seen[callee] = true
				g.callees[fn] = append(g.callees[fn], callee)
				return true
			})
		}
	}
}

// Callee resolves a call expression to the *types.Func it statically
// invokes, or nil for dynamic calls (function values), conversions, and
// builtins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// Callees returns fn's statically resolved callees in deterministic
// order. The returned slice is owned by the graph; do not mutate it.
func (g *Graph) Callees(fn *types.Func) []*types.Func {
	g.sortAll()
	return g.callees[fn]
}

// Funcs returns every declared function the graph has seen, in
// deterministic order.
func (g *Graph) Funcs() []*types.Func {
	g.sortAll()
	return g.funcs
}

func (g *Graph) sortAll() {
	if g.sorted {
		return
	}
	g.sorted = true
	sortFuncs(g.funcs)
	for _, cs := range g.callees {
		sortFuncs(cs)
	}
}

// sortFuncs orders by full name (package path + receiver + name), with
// declaration position breaking ties between identically named
// functions in distinct ad-hoc packages.
func sortFuncs(fns []*types.Func) {
	sort.Slice(fns, func(i, j int) bool {
		a, b := fns[i].FullName(), fns[j].FullName()
		if a != b {
			return a < b
		}
		return fns[i].Pos() < fns[j].Pos()
	})
}
