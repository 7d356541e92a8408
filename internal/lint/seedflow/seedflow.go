// Package seedflow taint-tracks RNG seeds across function boundaries.
//
// Every deterministic stream in the repro is seeded from the runner's
// per-point derivation (experiments.PointSeed and the SplitMix64
// chains built on it). A time.Now().UnixNano() laundered through two
// helper functions before it reaches a constructor is as
// non-reproducible as one passed in directly, so seedflow computes
// per-function facts — "this function's result is a derived seed",
// "these integer parameters are seed sinks" — and checks, at every call
// that feeds a seed sink, that the argument traces back to one of:
//
//   - experiments.PointSeed or any other function carrying the
//     //sledlint:seed marker (the declared roots of derivation chains),
//   - a function whose result provably derives from such a root
//     (propagated transitively as a fact),
//   - a declared constant, or
//   - a seed-sink parameter of the enclosing function (the caller was
//     already checked at its own call sites).
//
// Arithmetic (xor, add, shift, …) over tracked values stays tracked —
// that is exactly the SplitMix64 idiom — while any operand that does
// not trace back (host entropy, package state, I/O) is a finding at
// the consuming call site.
//
// Seed sinks are recognized structurally: a module-local function
// parameter of integer type named "seed"/"seedX"/"…Seed", plus the
// stdlib constructors math/rand.NewSource and math/rand/v2.NewPCG.
//
// The process-global math/rand source has no seed to trace: it is
// shared mutable state whose draw order depends on every other caller.
// Any use of its top-level functions (rand.Intn and friends) is a
// finding in its own right, in every package of the module, cmd/ and
// test files included.
package seedflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sleds/internal/lint/analysis"
	"sleds/internal/lint/callgraph"
)

// Analyzer implements the seedflow rule.
var Analyzer = &analysis.Analyzer{
	Name:      "seedflow",
	Doc:       "no global math/rand; seed arguments must derive from PointSeed, a constant, or a //sledlint:seed source",
	Run:       run,
	UsesFacts: true,
	// Test helpers share the reproducibility contract: a test that
	// draws from the global source flakes across go versions.
	Tests: true,
}

// isSeedSource marks a function whose result is a trusted derived
// seed: either annotated //sledlint:seed, or proven by the fixpoint to
// return only tracked values.
type isSeedSource struct{}

func (*isSeedSource) AFact() {}

// seedParams records which parameter positions of a function are seed
// sinks (0-based, receiver excluded).
type seedParams struct{ Positions []int }

func (*seedParams) AFact() {}

// usesEntropy marks a function that (transitively) calls a
// host-entropy source; Source names the first one found, for the
// diagnostic ("derives from host entropy (time.Now)").
type usesEntropy struct{ Source string }

func (*usesEntropy) AFact() {}

// seedParamName reports whether an integer parameter's name declares
// it a seed sink.
func seedParamName(name string) bool {
	return strings.HasPrefix(name, "seed") || strings.HasSuffix(name, "Seed")
}

func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

type funcInfo struct {
	decl *ast.FuncDecl
	fn   *types.Func
	// assigns maps each variable in the function (and the package's
	// top-level vars) to every expression assigned to it; a nil entry
	// means at least one assignment is untrackable (tuple results,
	// range clauses, …).
	assigns map[*types.Var][]ast.Expr
	// sinkParams are this function's own seed-sink parameter objects
	// (including those of func literals inside it): trusted inside the
	// body, because every caller is checked.
	sinkParams map[*types.Var]bool
	// litSinks maps a local variable holding a func literal to the
	// literal's seed-sink parameter positions, so calls through the
	// variable (mk(path, fs, seed)) are checked like named functions.
	litSinks map[*types.Var][]int
}

// globalFuncs are the math/rand (and math/rand/v2) top-level functions
// backed by the shared global source.
var globalFuncs = map[string]bool{
	"ExpFloat64": true, "Float32": true, "Float64": true,
	"Int": true, "Int31": true, "Int31n": true, "Int63": true, "Int63n": true,
	"Intn": true, "NormFloat64": true, "Perm": true, "Read": true,
	"Seed": true, "Shuffle": true, "Uint32": true, "Uint64": true,
	// math/rand/v2 additions.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true, "Int64N": true,
	"N": true, "Uint": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}

// checkGlobalSource reports every use of a global-source function.
func checkGlobalSource(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !globalFuncs[sel.Sel.Name] {
				return true
			}
			if pn := pkgName(pass, sel); pn != nil {
				if path := pn.Imported().Path(); path == "math/rand" || path == "math/rand/v2" {
					pass.Reportf(sel.Pos(), "%s.%s draws from the process-global RNG; pass a *rand.Rand seeded from the runner's per-point derivation", strings.TrimPrefix(path, "math/"), sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// pkgName returns the imported package sel selects from, or nil when
// sel is not a package-qualified name.
func pkgName(pass *analysis.Pass, sel *ast.SelectorExpr) *types.PkgName {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := pass.TypesInfo.Uses[id].(*types.PkgName)
	return pn
}

func run(pass *analysis.Pass) error {
	checkGlobalSource(pass)
	var fns []*funcInfo
	pkgAssigns := collectPackageAssigns(pass)

	// Sub-pass A: declare sinks and annotated roots.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{
				decl:       fd,
				fn:         fn,
				sinkParams: make(map[*types.Var]bool),
				litSinks:   make(map[*types.Var][]int),
			}
			sig := fn.Type().(*types.Signature)
			var positions []int
			for i := 0; i < sig.Params().Len(); i++ {
				p := sig.Params().At(i)
				if isIntegerType(p.Type()) && seedParamName(p.Name()) {
					positions = append(positions, i)
					fi.sinkParams[p] = true
				}
			}
			if len(positions) > 0 {
				pass.ExportObjectFact(fn, &seedParams{Positions: positions})
			}
			collectLitSinks(pass, fd, fi)
			if analysis.HasMarker(fd.Doc, "seed") {
				pass.ExportObjectFact(fn, &isSeedSource{})
			}
			fi.assigns = collectAssigns(pass, fd, pkgAssigns)
			fns = append(fns, fi)
		}
	}

	// Entropy pass: mark functions whose bodies call a host-entropy
	// source, then propagate the mark through the call graph so a
	// time.Now laundered through any number of helpers is still named
	// at the sink. Monotone, hence terminating.
	for _, fi := range fns {
		if src := entropyIn(pass, fi.decl.Body); src != "" {
			pass.ExportObjectFact(fi.fn, &usesEntropy{Source: src})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			var ue usesEntropy
			if pass.ImportObjectFact(fi.fn, &ue) {
				continue
			}
			for _, callee := range pass.Graph.Callees(fi.fn) {
				var cu usesEntropy
				if pass.ImportObjectFact(callee, &cu) {
					pass.ExportObjectFact(fi.fn, &usesEntropy{Source: cu.Source})
					changed = true
					break
				}
			}
		}
	}

	// Sub-pass B: propagate "result is a derived seed" to a fixpoint.
	// Monotone (facts are only added), so this terminates.
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			if pass.ImportObjectFact(fi.fn, &isSeedSource{}) {
				continue
			}
			sig := fi.fn.Type().(*types.Signature)
			if sig.Results().Len() != 1 || !isIntegerType(sig.Results().At(0).Type()) {
				continue
			}
			derived := true
			returns := 0
			ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // a literal's returns are not the function's
				}
				ret, ok := n.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				returns++
				for _, e := range ret.Results {
					if t := track(pass, fi, e, nil); !t.ok {
						derived = false
					}
				}
				return true
			})
			if derived && returns > 0 {
				pass.ExportObjectFact(fi.fn, &isSeedSource{})
				changed = true
			}
		}
	}

	// Sub-pass C: check every sink-feeding call site.
	for _, fi := range fns {
		if pass.ImportObjectFact(fi.fn, &isSeedSource{}) {
			// Roots are where derivation chains begin; their own inputs
			// (PointSeed's base, a marked CLI entry point's flag) are
			// outside the property being checked.
			continue
		}
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := callgraph.Callee(pass.TypesInfo, call)
			if callee == nil {
				// A call through a local func-literal variable: the
				// literal's seed params are sinks too.
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
						checkSinkArgs(pass, fi, call, fi.litSinks[v], id.Name)
					}
				}
				return true
			}
			checkSinkArgs(pass, fi, call, sinkPositions(pass, callee), calleeName(callee))
			return true
		})
	}
	return nil
}

func calleeName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

// checkSinkArgs reports the sink-position arguments of one call that
// do not trace back to a seed root.
func checkSinkArgs(pass *analysis.Pass, fi *funcInfo, call *ast.CallExpr, positions []int, name string) {
	for _, pos := range positions {
		if pos >= len(call.Args) {
			continue
		}
		arg := call.Args[pos]
		t := track(pass, fi, arg, nil)
		if t.ok {
			continue
		}
		if t.entropy != "" {
			pass.Reportf(arg.Pos(), "seed for %s derives from host entropy (%s); derive it from experiments.PointSeed or a //sledlint:seed source", name, t.entropy)
		} else {
			pass.Reportf(arg.Pos(), "seed for %s does not derive from PointSeed, a constant, or a //sledlint:seed source", name)
		}
	}
}

// collectLitSinks registers the seed-named integer parameters of func
// literals inside fd: trusted in the literal's body, and — when the
// literal is bound to a local variable — checked at every call through
// that variable.
func collectLitSinks(pass *analysis.Pass, fd *ast.FuncDecl, fi *funcInfo) {
	litPositions := func(lit *ast.FuncLit) []int {
		var positions []int
		i := 0
		for _, field := range lit.Type.Params.List {
			for _, nm := range field.Names {
				if v, ok := pass.TypesInfo.Defs[nm].(*types.Var); ok {
					if isIntegerType(v.Type()) && seedParamName(v.Name()) {
						positions = append(positions, i)
						fi.sinkParams[v] = true
					}
				}
				i++
			}
		}
		return positions
	}
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
		if !ok {
			return
		}
		positions := litPositions(lit)
		if v := lhsVar(pass.TypesInfo, lhs); v != nil && len(positions) > 0 {
			fi.litSinks[v] = positions
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					bind(s.Lhs[i], s.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(s.Names) == len(s.Values) {
				for i := range s.Names {
					bind(s.Names[i], s.Values[i])
				}
			}
		case *ast.FuncLit:
			// Anonymous (immediately invoked or passed along): params
			// are still trusted inside the body.
			litPositions(s)
		}
		return true
	})
}

// sinkPositions returns the argument positions of callee that must
// receive derived seeds: its seedParams fact, or the hardcoded stdlib
// RNG constructors. A //sledlint:seed root imposes no obligation on
// its callers — its inputs are the start of the derivation chain, not
// part of the property.
func sinkPositions(pass *analysis.Pass, callee *types.Func) []int {
	if pass.ImportObjectFact(callee, &isSeedSource{}) {
		return nil
	}
	var sp seedParams
	if pass.ImportObjectFact(callee, &sp) {
		return sp.Positions
	}
	if pkg := callee.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "math/rand":
			if callee.Name() == "NewSource" {
				return []int{0}
			}
		case "math/rand/v2":
			if callee.Name() == "NewPCG" {
				return []int{0, 1}
			}
		}
	}
	return nil
}

// trackResult is the outcome of tracing one expression.
type trackResult struct {
	ok      bool
	entropy string // non-empty if a host-entropy call was found in the expression
}

// track reports whether e provably derives from a seed root. visiting
// guards against assignment cycles (x = mix(x)): re-reaching a
// variable mid-trace contributes no new taint, so it resolves to
// tracked and the variable's other assignments decide the answer.
func track(pass *analysis.Pass, fi *funcInfo, e ast.Expr, visiting map[*types.Var]bool) trackResult {
	// Constants (literals, declared consts, constant arithmetic).
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		return trackResult{ok: true}
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return track(pass, fi, x.X, visiting)
	case *ast.UnaryExpr:
		switch x.Op {
		case token.ADD, token.SUB, token.XOR:
			return track(pass, fi, x.X, visiting)
		}
	case *ast.BinaryExpr:
		l := track(pass, fi, x.X, visiting)
		r := track(pass, fi, x.Y, visiting)
		res := trackResult{ok: l.ok && r.ok}
		res.entropy = firstNonEmpty(l.entropy, r.entropy)
		return res
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[x]
		switch v := obj.(type) {
		case *types.Const:
			return trackResult{ok: true}
		case *types.Var:
			if fi.sinkParams[v] {
				return trackResult{ok: true}
			}
			if visiting[v] {
				return trackResult{ok: true}
			}
			rhs, known := fi.assigns[v]
			if !known || rhs == nil {
				return trackResult{entropy: entropyIn(pass, e)}
			}
			if visiting == nil {
				visiting = make(map[*types.Var]bool)
			}
			visiting[v] = true
			res := trackResult{ok: true}
			for _, r := range rhs {
				t := track(pass, fi, r, visiting)
				if !t.ok {
					res.ok = false
				}
				res.entropy = firstNonEmpty(res.entropy, t.entropy)
			}
			delete(visiting, v)
			return res
		}
	case *ast.SelectorExpr:
		// A struct field named like a seed is trusted: the value stored
		// there flowed through a checked sink or a configuration root.
		if sel, ok := pass.TypesInfo.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if isIntegerType(sel.Type()) && (seedParamName(x.Sel.Name) || strings.HasSuffix(x.Sel.Name, "Seed") || x.Sel.Name == "Seed") {
				return trackResult{ok: true}
			}
		}
	case *ast.CallExpr:
		// Conversion: int64(x) tracks as x.
		if tv, ok := pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return track(pass, fi, x.Args[0], visiting)
		}
		if callee := callgraph.Callee(pass.TypesInfo, x); callee != nil {
			if pass.ImportObjectFact(callee, &isSeedSource{}) {
				return trackResult{ok: true}
			}
			var ue usesEntropy
			if pass.ImportObjectFact(callee, &ue) {
				return trackResult{entropy: ue.Source}
			}
		}
		return trackResult{entropy: entropyIn(pass, e)}
	}
	return trackResult{entropy: entropyIn(pass, e)}
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// entropySources are stdlib calls that inject host state.
var entropySources = map[string]map[string]bool{
	"time":        {"Now": true},
	"os":          {"Getpid": true, "Getppid": true},
	"crypto/rand": {"Read": true, "Int": true, "Prime": true},
}

// entropyIn scans a node for a call into a host-entropy source and
// returns a short description of the first one, in source order.
func entropyIn(pass *analysis.Pass, e ast.Node) string {
	found := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pn := pkgName(pass, sel)
		if pn == nil {
			return true
		}
		if fns, ok := entropySources[pn.Imported().Path()]; ok && fns[sel.Sel.Name] {
			found = fmt.Sprintf("%s.%s", pn.Name(), sel.Sel.Name)
			return false
		}
		return true
	})
	return found
}

// collectPackageAssigns gathers package-level var initializers so a
// seed threaded through a package variable can still be traced — then
// poisons any package var that is written or address-taken anywhere in
// the package, since its value at a sink no longer equals its
// initializer.
func collectPackageAssigns(pass *analysis.Pass) map[*types.Var][]ast.Expr {
	out := make(map[*types.Var][]ast.Expr)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				recordAssign(pass.TypesInfo, out, identExprs(vs.Names), vs.Values)
			}
		}
	}
	poison := func(e ast.Expr) {
		if v := lhsVar(pass.TypesInfo, e); v != nil {
			if _, ok := out[v]; ok {
				out[v] = nil
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					for _, l := range s.Lhs {
						poison(l)
					}
				case *ast.IncDecStmt:
					poison(s.X)
				case *ast.UnaryExpr:
					if s.Op == token.AND {
						poison(s.X)
					}
				}
				return true
			})
		}
	}
	return out
}

// collectAssigns builds the variable→assigned-expressions map for one
// function, seeded with the package-level assignments.
func collectAssigns(pass *analysis.Pass, fd *ast.FuncDecl, pkg map[*types.Var][]ast.Expr) map[*types.Var][]ast.Expr {
	out := make(map[*types.Var][]ast.Expr, len(pkg))
	for k, v := range pkg {
		out[k] = v
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			recordAssign(pass.TypesInfo, out, s.Lhs, s.Rhs)
		case *ast.ValueSpec:
			recordAssign(pass.TypesInfo, out, identExprs(s.Names), s.Values)
		case *ast.RangeStmt:
			// Range-bound element values are untrackable, and so are
			// the keys of map/chan ranges (iteration order, receive
			// order). A slice/array/string/int range key is just a
			// deterministic index: tracked, with no contributors.
			orderFree := true
			if tv, ok := pass.TypesInfo.Types[s.X]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Map, *types.Chan:
					orderFree = false
				}
			}
			if v := lhsVar(pass.TypesInfo, s.Key); v != nil {
				if cur, ok := out[v]; orderFree && (!ok || cur != nil) {
					out[v] = []ast.Expr{}
				} else if !orderFree {
					out[v] = nil
				}
			}
			if v := lhsVar(pass.TypesInfo, s.Value); v != nil {
				out[v] = nil
			}
		case *ast.IncDecStmt:
			if v := lhsVar(pass.TypesInfo, s.X); v != nil {
				out[v] = nil
			}
		case *ast.UnaryExpr:
			// Address-taken locals can be written through the pointer.
			if s.Op == token.AND {
				if v := lhsVar(pass.TypesInfo, s.X); v != nil {
					out[v] = nil
				}
			}
		}
		return true
	})
	return out
}

func identExprs(ids []*ast.Ident) []ast.Expr {
	out := make([]ast.Expr, len(ids))
	for i, id := range ids {
		out[i] = id
	}
	return out
}

func lhsVar(info *types.Info, lhs ast.Expr) *types.Var {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// recordAssign maps each LHS variable to its RHS. A tuple assignment
// (v, err := f()) marks every LHS untrackable: the taint split of
// multi-results is beyond this analyzer, and untrackable-not-tracked
// is the safe direction.
func recordAssign(info *types.Info, out map[*types.Var][]ast.Expr, lhs []ast.Expr, rhs []ast.Expr) {
	if len(lhs) == len(rhs) {
		for i, l := range lhs {
			if v := lhsVar(info, l); v != nil {
				if cur, ok := out[v]; !ok || cur != nil {
					out[v] = append(out[v], rhs[i])
				}
			}
		}
		return
	}
	for _, l := range lhs {
		if v := lhsVar(info, l); v != nil {
			out[v] = nil
		}
	}
	// var x int64 — no initializer: zero value, a constant.
	if len(rhs) == 0 {
		for _, l := range lhs {
			if v := lhsVar(info, l); v != nil {
				out[v] = []ast.Expr{}
			}
		}
	}
}
