// Package errflow tracks fallible-device errors to their handling
// site, across function boundaries.
//
// PR 3 made every injected fault an error that must reach RunStats
// accounting or surface as EIO; PR 8 fixed, by hand, a helper (what is
// now remote.ServerDevice.Write) that silently swallowed one. errflow
// closes that bug class statically. The roots are the fallible device calls —
// any function or method named ReadErr/WriteErr whose last result is
// an error (internal/device, faults.Injector, iosched.QueuedDevice,
// remote, fleet all follow the convention). A function that returns
// such an error — directly, through an err variable, or wrapped — is
// itself *fallible*, exported as a fact, so the obligation follows the
// error up the call stack: the VFS read path is fallible because it
// returns device errors, and a caller three packages away that drops
// its error is flagged at the drop site.
//
// At every call to a root or fallible function the error result must
// be consumed: returned, assigned to a variable that is subsequently
// read, passed along as an argument, or compared. Dropping it — an
// expression statement, a blank assignment, a go/defer, a variable
// that is never read afterward — is a finding unless a reasoned
// //sledlint:allow errflow directive marks the discard deliberate.
package errflow

import (
	"go/ast"
	"go/types"

	"sleds/internal/lint/analysis"
	"sleds/internal/lint/callgraph"
)

// Analyzer implements the errflow rule.
var Analyzer = &analysis.Analyzer{
	Name:      "errflow",
	Doc:       "errors from ReadErr/WriteErr and transitively fallible helpers must be returned, checked, or discarded with a reasoned directive",
	Run:       run,
	UsesFacts: true,
}

// isFallible marks a function whose error result carries device-path
// errors.
type isFallible struct{}

func (*isFallible) AFact() {}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type()

// returnsError reports whether fn's last result is the error type.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	return res.Len() > 0 && types.Identical(res.At(res.Len()-1).Type(), errorType)
}

// isRoot reports whether fn is a fallible device call by convention.
func isRoot(fn *types.Func) bool {
	return (fn.Name() == "ReadErr" || fn.Name() == "WriteErr") && returnsError(fn)
}

// carriesDeviceErr reports whether a call to fn yields a device-path
// error, by convention or by fact.
func carriesDeviceErr(pass *analysis.Pass, fn *types.Func) bool {
	if isRoot(fn) {
		return true
	}
	return pass.ImportObjectFact(fn, &isFallible{})
}

type funcDecl struct {
	decl *ast.FuncDecl
	fn   *types.Func
}

func run(pass *analysis.Pass) error {
	var fns []funcDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				fns = append(fns, funcDecl{fd, fn})
			}
		}
	}

	// Fixpoint: propagate the fallible fact through same-package call
	// chains (cross-package chains resolve through the driver's
	// dependency-ordered passes).
	for changed := true; changed; {
		changed = false
		for _, fd := range fns {
			if !returnsError(fd.fn) || pass.ImportObjectFact(fd.fn, &isFallible{}) {
				continue
			}
			if propagatesDeviceErr(pass, fd.decl) {
				pass.ExportObjectFact(fd.fn, &isFallible{})
				changed = true
			}
		}
	}

	for _, fd := range fns {
		checkFunc(pass, fd.decl)
	}
	return nil
}

// propagatesDeviceErr reports whether some return statement of fd
// carries a device error: it contains a fallible call directly, or
// references a variable assigned from one.
func propagatesDeviceErr(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	errVars := collectErrVars(pass, fd)
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		ast.Inspect(ret, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.CallExpr:
				if fn := callgraph.Callee(pass.TypesInfo, x); fn != nil && carriesDeviceErr(pass, fn) {
					found = true
				}
			case *ast.Ident:
				if v, ok := pass.TypesInfo.Uses[x].(*types.Var); ok && errVars[v] {
					found = true
				}
			}
			return !found
		})
		if len(ret.Results) == 0 && fd.Type.Results != nil {
			// Named results: `return` may carry an err var implicitly.
			for _, field := range fd.Type.Results.List {
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && errVars[v] {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// collectErrVars finds every variable that receives the error result
// of a fallible call anywhere in fd.
func collectErrVars(pass *analysis.Pass, fd *ast.FuncDecl) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range errLHS(pass, as) {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				if v := objOf(pass.TypesInfo, id); v != nil {
					out[v] = true
				}
			}
		}
		return true
	})
	return out
}

// errLHS returns the left-hand sides that receive a fallible call's
// error in the assignment, if any.
func errLHS(pass *analysis.Pass, as *ast.AssignStmt) []ast.Expr {
	var out []ast.Expr
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// v, err := f(): the error is the last result by convention.
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			if fn := callgraph.Callee(pass.TypesInfo, call); fn != nil && carriesDeviceErr(pass, fn) {
				out = append(out, as.Lhs[len(as.Lhs)-1])
			}
		}
		return out
	}
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) {
			break
		}
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			if fn := callgraph.Callee(pass.TypesInfo, call); fn != nil && carriesDeviceErr(pass, fn) {
				out = append(out, as.Lhs[i])
			}
		}
	}
	return out
}

func objOf(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// checkFunc reports every fallible call in fd whose error is dropped.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
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

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callgraph.Callee(pass.TypesInfo, call)
		if fn == nil || !carriesDeviceErr(pass, fn) {
			return true
		}
		name := fn.Name()
		switch p := parents[call].(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(), "error from %s is dropped; a device error must be returned, checked, or discarded with //sledlint:allow errflow -- <reason>", name)
		case *ast.GoStmt, *ast.DeferStmt:
			pass.Reportf(call.Pos(), "error from %s is discarded by go/defer; call it synchronously and handle the error, or discard it with a reasoned directive", name)
		case *ast.AssignStmt:
			checkAssign(pass, fd, p, call, name)
		}
		return true
	})
}

// checkAssign validates one `... = fallibleCall(...)` statement: the
// error destination must not be blank, and the variable must be read
// somewhere after the assignment.
func checkAssign(pass *analysis.Pass, fd *ast.FuncDecl, as *ast.AssignStmt, call *ast.CallExpr, name string) {
	// Locate the LHS receiving this call's error.
	var dest ast.Expr
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		if ast.Unparen(as.Rhs[0]) == call {
			dest = as.Lhs[len(as.Lhs)-1]
		}
	} else {
		for i, rhs := range as.Rhs {
			if ast.Unparen(rhs) == call && i < len(as.Lhs) {
				dest = as.Lhs[i]
			}
		}
	}
	if dest == nil {
		return // the call is a subexpression of the RHS; treated as consumed
	}
	id, ok := dest.(*ast.Ident)
	if !ok {
		return // stored into a field/map: accounted elsewhere
	}
	if id.Name == "_" {
		pass.Reportf(call.Pos(), "error from %s is discarded into _; device errors need a reasoned //sledlint:allow errflow directive to be dropped", name)
		return
	}
	v := objOf(pass.TypesInfo, id)
	if v == nil {
		return
	}
	// The error variable must be read after this assignment. Position
	// order approximates control flow well enough for lint: an
	// `if err != nil` guard or a later `return err` both qualify.
	consumed := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if consumed {
			return false
		}
		use, ok := n.(*ast.Ident)
		if !ok || use.Pos() <= as.End() {
			return true
		}
		if uv, ok := pass.TypesInfo.Uses[use].(*types.Var); ok && uv == v {
			if !isWrite(pass, fd, use) {
				consumed = true
			}
		}
		return true
	})
	if !consumed && returnsNamedResult(pass, fd, v) {
		consumed = true // named error result: a bare return carries it
	}
	if !consumed {
		pass.Reportf(call.Pos(), "error from %s is assigned to %s but never checked afterward; return it, check it, or discard it with a reasoned directive", name, id.Name)
	}
}

// isWrite reports whether the identifier occurrence is the target of
// an assignment (a write, not a consuming read).
func isWrite(pass *analysis.Pass, fd *ast.FuncDecl, id *ast.Ident) bool {
	write := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if lhs == id {
				write = true
			}
		}
		return true
	})
	return write
}

// returnsNamedResult reports whether v is one of fd's named results.
func returnsNamedResult(pass *analysis.Pass, fd *ast.FuncDecl, v *types.Var) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, field := range fd.Type.Results.List {
		for _, name := range field.Names {
			if obj, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && obj == v {
				return true
			}
		}
	}
	return false
}
