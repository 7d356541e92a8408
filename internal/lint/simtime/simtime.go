// Package simtime flags raw integer literals crossing a time.Duration
// boundary — the unit-mixup class where a bare 5 silently means five
// *nanoseconds* to the virtual clock.
//
// simclock.Duration is an alias of time.Duration (virtual nanoseconds
// share the representation), so one check covers both the clock API
// and stdlib call sites. Flagged positions are
//
//   - an integer literal argument whose parameter type is
//     time.Duration: clock.Advance(5),
//   - an integer literal converted directly: time.Duration(1500), and
//   - an integer literal assigned to a Duration field in a composite
//     literal: RetryPolicy{Backoff: 10000000}.
//
// Zero is exempt — 0 is the same instant in every unit. Each finding
// states the value the literal has (10000000 is 10ms) and the unit
// expression that spells it (10*simclock.Millisecond), which the type
// checker folds to the same constant.
package simtime

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"time"

	"sleds/internal/lint/analysis"
)

// Analyzer implements the simtime rule.
var Analyzer = &analysis.Analyzer{
	Name: "simtime",
	Doc:  "flag raw integer literals used as time.Duration / simclock nanoseconds; write unit expressions instead",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.CompositeLit:
				checkComposite(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkCall handles both real calls (parameter types) and conversions
// (time.Duration(1500)).
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && isDuration(tv.Type) {
			if lit := intLiteral(call.Args[0]); lit != nil {
				pass.Reportf(lit.Pos(), "time.Duration(%s) converts a raw integer: %s", types.ExprString(call.Args[0]), spelled(pass, call.Args[0]))
			}
		}
		return
	}
	sig, ok := typeOf(pass, call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		lit := intLiteral(arg)
		if lit == nil {
			continue
		}
		pi := i
		if sig.Variadic() && pi >= params.Len()-1 {
			pi = params.Len() - 1
		}
		if pi >= params.Len() {
			continue
		}
		pt := params.At(pi).Type()
		if sig.Variadic() && pi == params.Len()-1 {
			if sl, ok := pt.(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if isDuration(pt) {
			pass.Reportf(lit.Pos(), "raw integer %s passed as time.Duration (argument %d of %s): %s", types.ExprString(arg), i+1, callName(call), spelled(pass, arg))
		}
	}
}

// checkComposite flags keyed struct-literal fields of Duration type.
func checkComposite(pass *analysis.Pass, lit *ast.CompositeLit) {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.TypesInfo.Uses[key]
		if obj == nil {
			continue
		}
		if !isDuration(obj.Type()) {
			continue
		}
		if il := intLiteral(kv.Value); il != nil {
			pass.Reportf(il.Pos(), "raw integer %s assigned to time.Duration field %s: %s", types.ExprString(kv.Value), key.Name, spelled(pass, kv.Value))
		}
	}
}

// units are simclock's, largest first.
var units = []struct {
	d    time.Duration
	name string
}{
	{time.Second, "Second"},
	{time.Millisecond, "Millisecond"},
	{time.Microsecond, "Microsecond"},
	{time.Nanosecond, "Nanosecond"},
}

// spelled states the value of the constant expression e as a Duration
// and the unit expression that writes it in the largest simclock unit
// dividing it: "it is 50µs; write 50*simclock.Microsecond".
func spelled(pass *analysis.Pass, e ast.Expr) string {
	n, _ := constant.Int64Val(constant.ToInt(pass.TypesInfo.Types[e].Value))
	d := time.Duration(n)
	i := 0
	for d%units[i].d != 0 { // the last unit, a nanosecond, divides every d
		i++
	}
	return fmt.Sprintf("it is %v; write %d*simclock.%s", d, d/units[i].d, units[i].name)
}

func typeOf(pass *analysis.Pass, e ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isDuration reports whether t (after alias resolution — this covers
// simclock.Duration) is exactly time.Duration.
func isDuration(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "time" && obj.Name() == "Duration"
}

// intLiteral returns the non-zero integer literal at the core of e
// (through parens and unary minus), or nil.
func intLiteral(e ast.Expr) *ast.BasicLit {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.SUB && x.Op != token.ADD {
				return nil
			}
			e = x.X
		case *ast.BasicLit:
			if x.Kind != token.INT || x.Value == "0" {
				return nil
			}
			return x
		default:
			return nil
		}
	}
}

func callName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if id, ok := f.X.(*ast.Ident); ok {
			return id.Name + "." + f.Sel.Name
		}
		return f.Sel.Name
	}
	return "call"
}
