// Package hotalloc rejects allocation sites in //sledlint:hotpath
// functions and in everything they call.
//
// The bench-compare CI gate pins allocs/op for the hot paths
// (core.QueryAppend, the sledlib pickers, trace sampling) at zero —
// after the fact, on a benchmark run. hotalloc turns the same contract
// into a compile-time finding: a function whose doc comment carries
// //sledlint:hotpath may not contain, nor reach through module-local
// callees, a construct the Go compiler must heap-allocate in steady
// state:
//
//   - escaping composites: &T{…}, slice and map literals, new(T),
//     make(map…)/make(chan…) — and make([]T, …) outside the
//     cap-guarded grow idiom (`if cap(buf) < n { buf = make(…) }`),
//     which is how a caller-owned scratch slice is legitimately grown;
//   - unsized append growth: append whose base slice does not trace to
//     a caller-provided parameter or a sized scratch, i.e. a fresh
//     slice grown from zero on every call;
//   - interface boxing: a non-pointer concrete value converted to an
//     interface (call arguments, assignments, explicit conversions);
//   - escaping closures: a func literal that captures variables and
//     leaves the function (passed, returned, stored) — a directly
//     invoked local closure stays on the stack and is fine;
//   - string materialization: concatenation and string<->[]byte
//     conversions; and goroutine launches.
//
// Error construction is exempt: arguments of fmt.Errorf, errors.New
// and panic run only on failure paths, which the alloc gates never
// measure. Each function's sites are summarized as a fact (filtered
// through that package's //sledlint:allow hotalloc directives, so a
// reasoned exception is silenced once, at the site); hot functions
// then report their own sites plus, at each call, the first reachable
// allocation in any non-annotated callee — so "helper grew an alloc
// three frames down" fails the build, not the Friday bench run.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"sleds/internal/lint/analysis"
	"sleds/internal/lint/callgraph"
)

// Analyzer implements the hotalloc rule.
var Analyzer = &analysis.Analyzer{
	Name:      "hotalloc",
	Doc:       "//sledlint:hotpath functions and their callees must be free of heap allocation sites",
	Run:       run,
	UsesFacts: true,
}

// AllocSite is one statically identified allocation.
type AllocSite struct {
	What string // human description ("map literal", "interface boxing", …)
	File string // position for cross-package messages
	Line int
	Pos  token.Pos // valid within the run's shared FileSet
}

// allocSummary is the per-function fact: allocation sites surviving
// the package's own suppression directives.
type allocSummary struct{ Sites []AllocSite }

func (*allocSummary) AFact() {}

// isHotpath marks an annotated function, so transitive walks stop at
// nested hot functions (each is checked in its own right).
type isHotpath struct{}

func (*isHotpath) AFact() {}

type hotFunc struct {
	decl *ast.FuncDecl
	fn   *types.Func
}

func run(pass *analysis.Pass) error {
	var hot []hotFunc

	// Phase 1: summarize every function's allocation sites as facts.
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
			sites := collectAllocs(pass, fd)
			if len(sites) > 0 {
				pass.ExportObjectFact(fn, &allocSummary{Sites: sites})
			}
			if analysis.HasMarker(fd.Doc, "hotpath") {
				pass.ExportObjectFact(fn, &isHotpath{})
				hot = append(hot, hotFunc{fd, fn})
			}
		}
	}

	// Phase 2: report. Own sites first, then the first reachable
	// allocation behind each call site.
	reach := make(map[*types.Func]*AllocSite)
	for _, h := range hot {
		var own allocSummary
		if pass.ImportObjectFact(h.fn, &own) {
			for _, s := range own.Sites {
				pass.Report(analysis.Diagnostic{
					Analyzer: pass.Analyzer.Name,
					Pos:      s.Pos,
					Message:  fmt.Sprintf("allocation in hotpath %s: %s", h.fn.Name(), s.What),
				})
			}
		}
		type callSite struct {
			pos    token.Pos
			callee *types.Func
		}
		var calls []callSite
		seen := make(map[*types.Func]bool)
		ast.Inspect(h.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := callgraph.Callee(pass.TypesInfo, call); fn != nil && fn != h.fn && !seen[fn] {
				seen[fn] = true
				calls = append(calls, callSite{call.Pos(), fn})
			}
			return true
		})
		sort.Slice(calls, func(i, j int) bool { return calls[i].pos < calls[j].pos })
		for _, c := range calls {
			if pass.ImportObjectFact(c.callee, &isHotpath{}) {
				continue // checked under its own annotation
			}
			if site := firstAlloc(pass, c.callee, reach, map[*types.Func]bool{h.fn: true}); site != nil {
				pass.Report(analysis.Diagnostic{
					Analyzer: pass.Analyzer.Name,
					Pos:      c.pos,
					Message: fmt.Sprintf("call in hotpath %s reaches an allocation: %s allocates (%s at %s:%d)",
						h.fn.Name(), c.callee.Name(), site.What, site.File, site.Line),
				})
			}
		}
	}
	return nil
}

// firstAlloc returns the first allocation site reachable from fn
// through non-hotpath callees, memoized; nil if none. Deterministic:
// own sites in source order beat callee sites, and callees are walked
// in the call graph's sorted order.
func firstAlloc(pass *analysis.Pass, fn *types.Func, memo map[*types.Func]*AllocSite, visiting map[*types.Func]bool) *AllocSite {
	if site, ok := memo[fn]; ok {
		return site
	}
	if visiting[fn] {
		return nil // recursion cycle: resolved by the other frames
	}
	visiting[fn] = true
	defer delete(visiting, fn)

	var sum allocSummary
	if pass.ImportObjectFact(fn, &sum) && len(sum.Sites) > 0 {
		memo[fn] = &sum.Sites[0]
		return memo[fn]
	}
	for _, callee := range pass.Graph.Callees(fn) {
		if callee == fn || pass.ImportObjectFact(callee, &isHotpath{}) {
			continue
		}
		if site := firstAlloc(pass, callee, memo, visiting); site != nil {
			memo[fn] = site
			return site
		}
	}
	memo[fn] = nil
	return nil
}

// exemptCall reports whether the call constructs an error or feeds a
// panic — cold paths the alloc gates never measure.
func exemptCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
				return true
			}
		}
	case *ast.SelectorExpr:
		id, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
		if !ok {
			return false
		}
		switch pkgName.Imported().Path() {
		case "fmt":
			return fun.Sel.Name == "Errorf"
		case "errors":
			return true
		}
	}
	return false
}

// collectAllocs walks fd's body and returns every allocation site not
// covered by a //sledlint:allow hotalloc directive.
func collectAllocs(pass *analysis.Pass, fd *ast.FuncDecl) []AllocSite {
	var sites []AllocSite
	add := func(pos token.Pos, what string) {
		if pass.Suppressions != nil && pass.Suppressions.Suppressed(pass.Fset, pass.Analyzer.Name, pos) {
			return
		}
		p := pass.Fset.Position(pos)
		sites = append(sites, AllocSite{What: what, File: p.Filename, Line: p.Line, Pos: pos})
	}

	// Ranges covered by exempt (error/panic) calls: nodes inside are
	// skipped.
	var exempt []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && exemptCall(pass, call) {
			exempt = append(exempt, call)
			return false
		}
		return true
	})
	inExempt := func(pos token.Pos) bool {
		for _, e := range exempt {
			if e.Pos() <= pos && pos < e.End() {
				return true
			}
		}
		return false
	}

	info := pass.TypesInfo
	params := paramVars(info, fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n != nil && inExempt(n.Pos()) {
			return false
		}
		switch x := n.(type) {
		case *ast.CompositeLit:
			if x.Type == nil {
				// Inner literal of a composite: the outer one reported.
				return true
			}
			if tv, ok := info.Types[x]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					add(x.Pos(), "slice literal allocates")
					return true
				case *types.Map:
					add(x.Pos(), "map literal allocates")
					return true
					// Array and struct literals are values: they stay on
					// the stack unless boxed or address-taken, which the
					// other cases catch.
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					add(x.Pos(), "&composite literal escapes to the heap")
					// The inner literal is part of this site.
					exempt = append(exempt, x)
					return false
				}
			}
		case *ast.CallExpr:
			return checkCall(pass, fd, x, params, add)
		case *ast.AssignStmt:
			checkBoxingAssign(pass, x, add)
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if tv, ok := info.Types[x]; ok {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 && tv.Value == nil {
						add(x.Pos(), "string concatenation allocates")
					}
				}
			}
		case *ast.FuncLit:
			if closureEscapes(pass, fd, x) && capturesOuter(pass, fd, x) {
				add(x.Pos(), "closure captures escape to the heap")
			}
		case *ast.GoStmt:
			add(x.Pos(), "goroutine launch allocates a stack")
		}
		return true
	})
	return sites
}

// checkCall classifies one call: make/new builtins, append growth,
// string conversions, and boxing of arguments into interface
// parameters. Returns whether to descend into the call's children.
func checkCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, params map[*types.Var]bool, add func(token.Pos, string)) bool {
	info := pass.TypesInfo

	// Conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type.Underlying()
		from := info.Types[call.Args[0]].Type
		if from != nil {
			switch {
			case isStringType(to) && !isStringType(from.Underlying()):
				add(call.Pos(), "conversion to string copies and allocates")
			case isByteOrRuneSlice(to) && isStringType(from.Underlying()):
				add(call.Pos(), "string-to-slice conversion copies and allocates")
			case isInterface(to) && !boxFree(from) && info.Types[call.Args[0]].Value == nil:
				add(call.Pos(), "interface conversion boxes a value")
			}
		}
		return true
	}

	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "new":
				add(call.Pos(), "new(T) allocates")
			case "make":
				if len(call.Args) > 0 {
					if tv, ok := info.Types[call.Args[0]]; ok {
						switch tv.Type.Underlying().(type) {
						case *types.Map:
							add(call.Pos(), "make(map) allocates")
						case *types.Chan:
							add(call.Pos(), "make(chan) allocates")
						case *types.Slice:
							if !capGuarded(pass, fd, call) {
								add(call.Pos(), "make([]T) on every call; grow a caller-owned scratch under a cap() guard instead")
							}
						}
					}
				}
			case "append":
				if len(call.Args) > 0 && traceSlice(pass, fd, call.Args[0], params, map[*types.Var]bool{}) != traceOwned {
					add(call.Pos(), "append grows an unsized slice from zero each call; append into a caller-provided buffer")
				}
			}
			return true
		}
	}

	// Boxing: concrete non-pointer arguments landing in interface
	// parameters.
	sigTV, ok := info.Types[call.Fun]
	if !ok {
		return true
	}
	sig, ok := sigTV.Type.Underlying().(*types.Signature)
	if !ok {
		return true
	}
	for i, arg := range call.Args {
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			continue // s... passes the slice through, no boxing
		}
		var pt types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			if s, ok := last.Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < sig.Params().Len():
			pt = sig.Params().At(i).Type()
		}
		if pt == nil || !isInterface(pt.Underlying()) {
			continue
		}
		atv := info.Types[arg]
		if atv.Type == nil || atv.Value != nil || boxFree(atv.Type) {
			continue
		}
		add(arg.Pos(), "argument boxes into an interface parameter")
	}
	return true
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// boxFree reports whether converting t to an interface needs no heap
// allocation: pointers, interfaces themselves, and untyped nil.
func boxFree(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Signature, *types.Map, *types.Chan:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() == types.UntypedNil || b.Kind() == types.UnsafePointer
	}
	return false
}

// capGuarded reports whether the make([]T,…) sits inside an if whose
// condition consults cap() — the grow-on-demand scratch idiom, whose
// amortized cost the alloc gates accept.
func capGuarded(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr) bool {
	guarded := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if !(ifs.Body.Pos() <= call.Pos() && call.Pos() < ifs.Body.End()) {
			return true
		}
		ast.Inspect(ifs.Cond, func(m ast.Node) bool {
			if c, ok := m.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok && id.Name == "cap" {
					if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
						guarded = true
					}
				}
			}
			return !guarded
		})
		return !guarded
	})
	return guarded
}

// paramVars collects fd's parameters and receiver: slices derived from
// them are caller-owned storage.
func paramVars(info *types.Info, fd *ast.FuncDecl) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	addField := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					out[v] = true
				}
			}
		}
	}
	addField(fd.Recv)
	addField(fd.Type.Params)
	return out
}

// traceSlice classifies an append base.
const (
	traceFresh = iota // fresh slice grown from zero: the finding case
	traceOwned        // caller parameter, sized make, or a chain over one
	traceCycle        // only reaches variables already being traced
)

// traceSlice reports whether the append base traces to a
// caller-provided parameter, a sized scratch (make), or another append
// over such a base. Self-referential assignments (out = append(out, …))
// are neutral: a variable whose only provenance is itself started from
// zero and is fresh.
func traceSlice(pass *analysis.Pass, fd *ast.FuncDecl, e ast.Expr, params map[*types.Var]bool, visiting map[*types.Var]bool) int {
	switch x := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		return traceSlice(pass, fd, x.X, params, visiting)
	case *ast.SelectorExpr:
		// A field of a parameter (p.buf) is caller-owned too.
		return traceSlice(pass, fd, x.X, params, visiting)
	case *ast.IndexExpr:
		return traceSlice(pass, fd, x.X, params, visiting)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				switch id.Name {
				case "append":
					if len(x.Args) > 0 {
						return traceSlice(pass, fd, x.Args[0], params, visiting)
					}
				case "make":
					// Sized separately; the make site carries the
					// finding if unguarded.
					return traceOwned
				}
			}
		}
	case *ast.Ident:
		v, ok := objVar(pass.TypesInfo, x)
		if !ok {
			return traceFresh
		}
		if params[v] {
			return traceOwned
		}
		if visiting[v] {
			return traceCycle
		}
		visiting[v] = true
		defer delete(visiting, v)
		// Combine the provenance of every assignment to the local:
		// cycles are neutral, one fresh source poisons, otherwise any
		// owned source suffices.
		res := traceCycle
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, okA := n.(*ast.AssignStmt)
			if !okA || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				li, okL := lhs.(*ast.Ident)
				if !okL {
					continue
				}
				if lv, okV := objVar(pass.TypesInfo, li); okV && lv == v {
					switch traceSlice(pass, fd, as.Rhs[i], params, visiting) {
					case traceOwned:
						if res == traceCycle {
							res = traceOwned
						}
					case traceFresh:
						res = traceFresh
					}
				}
			}
			return res != traceFresh
		})
		// A variable with no non-cycle provenance (declared `var out
		// []T`, only ever self-appended) grows from zero.
		if res == traceCycle {
			return traceFresh
		}
		return res
	}
	return traceFresh
}

// checkBoxingAssign flags assignments that box a concrete non-pointer
// value into an interface-typed destination.
func checkBoxingAssign(pass *analysis.Pass, as *ast.AssignStmt, add func(token.Pos, string)) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	info := pass.TypesInfo
	for i := range as.Lhs {
		lt := info.TypeOf(as.Lhs[i])
		rtv := info.Types[as.Rhs[i]]
		if lt == nil || rtv.Type == nil || rtv.Value != nil {
			continue
		}
		if isInterface(lt.Underlying()) && !boxFree(rtv.Type) {
			add(as.Rhs[i].Pos(), "assignment boxes a value into an interface")
		}
	}
}

func objVar(info *types.Info, id *ast.Ident) (*types.Var, bool) {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v, true
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v, true
	}
	return nil, false
}

// capturesOuter reports whether the literal references variables
// declared outside it (and inside fd) — the captures that force a
// heap-allocated closure context when the literal escapes.
func capturesOuter(pass *analysis.Pass, fd *ast.FuncDecl, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.Parent() == nil {
			return true
		}
		// Declared before the literal but inside the enclosing
		// function: an outer local or parameter.
		if v.Pos() >= fd.Pos() && v.Pos() < lit.Pos() {
			captures = true
			return false
		}
		return true
	})
	return captures
}

// closureEscapes reports whether the literal leaves the enclosing
// function: anything but (a) being immediately invoked or (b) being
// assigned to a local that is only ever called.
func closureEscapes(pass *analysis.Pass, fd *ast.FuncDecl, lit *ast.FuncLit) bool {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(fd, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	parent := parents[lit]
	if p, ok := parent.(*ast.ParenExpr); ok {
		parent = parents[p]
	}
	switch p := parent.(type) {
	case *ast.CallExpr:
		// Immediately invoked: func(){...}() stays local. As an
		// argument it escapes.
		return ast.Unparen(p.Fun) != lit
	case *ast.AssignStmt:
		// fn := func(){...}: local only if every use of fn is a call.
		var dest *types.Var
		for i, rhs := range p.Rhs {
			if ast.Unparen(rhs) == lit && i < len(p.Lhs) {
				if id, ok := p.Lhs[i].(*ast.Ident); ok {
					dest, _ = objVar(pass.TypesInfo, id)
				}
			}
		}
		if dest == nil {
			return true
		}
		escapes := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if v, okV := pass.TypesInfo.Uses[id].(*types.Var); !okV || v != dest {
				return true
			}
			call, ok := parents[id].(*ast.CallExpr)
			if !ok || ast.Unparen(call.Fun) != id {
				escapes = true
				return false
			}
			return true
		})
		return escapes
	case *ast.GoStmt, *ast.DeferStmt:
		return false // open-coded defer/goroutine body; the GoStmt itself is flagged
	}
	return true
}
