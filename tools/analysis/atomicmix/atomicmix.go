// Package atomicmix flags variables that are accessed both through
// sync/atomic operations and through plain loads or stores.
//
// The FaSTCC scheduler claims tile tasks with an atomic ticket counter
// (internal/scheduler.Pool). The classic regression there is a "mostly
// atomic" counter: atomic.AddInt64(&s.next, 1) in the workers plus a bare
// `s.next = 0` reset or `if s.next > n` fast-path read somewhere else. The
// race detector only catches the mix when both sides fire in one run; this
// analyzer catches it structurally.
//
// A variable (struct field or package-level var) is "atomic" once its
// address is passed to any sync/atomic function. Every other syntactic use
// is then reported, including a read used as a composite-literal field
// value and taking the address for a non-atomic call (a leaked address
// defeats the discipline anyway). Declarations and composite-literal keys
// only name a field, so they are not uses.
//
// The robust fix is usually to switch the field to one of the atomic.Int64
// family of types, which makes plain access impossible to express.
package atomicmix

import (
	"go/ast"
	"go/token"
	"go/types"

	"fastcc/tools/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "atomicmix",
	Doc:  "flags variables accessed both via sync/atomic and via plain loads/stores",
	Run:  run,
}

func run(pass *framework.Pass) error {
	// Pass 1: collect variables whose address reaches a sync/atomic call,
	// and remember the exact &x argument nodes so pass 2 can skip them.
	atomicVars := map[*types.Var]token.Pos{}
	atomicOperands := map[ast.Expr]bool{}
	pass.Preorder(func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := framework.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			return
		}
		for _, arg := range call.Args {
			un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
			if !ok || un.Op != token.AND {
				continue
			}
			if v := refVar(pass.TypesInfo, un.X); v != nil {
				if _, seen := atomicVars[v]; !seen {
					atomicVars[v] = call.Pos()
				}
				atomicOperands[un.X] = true
				atomicOperands[ast.Unparen(un.X)] = true
			}
		}
	})
	if len(atomicVars) == 0 {
		return nil
	}

	// Pass 2: report plain uses of those variables.
	for _, file := range pass.Files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			expr, ok := n.(ast.Expr)
			if !ok || atomicOperands[expr] {
				return true
			}
			// Only consider the outermost reference expression: for s.next
			// the SelectorExpr is the use; its embedded idents are not
			// separate uses.
			if len(stack) >= 2 {
				if parent, ok := stack[len(stack)-2].(*ast.SelectorExpr); ok && parent.Sel == n {
					return true
				}
			}
			v := refVar(pass.TypesInfo, expr)
			if v == nil {
				return true
			}
			firstAtomic, ok := atomicVars[v]
			if !ok {
				return true
			}
			pass.Reportf(expr.Pos(),
				"%s is accessed atomically (first at %s) but used plainly here; use sync/atomic for every access or switch to atomic.Int64-style types",
				v.Name(), pass.Fset.Position(firstAtomic))
			return true
		})
	}
	return nil
}

// refVar resolves an expression to the struct field or variable it denotes:
// s.next -> field next, counter -> var counter. Returns nil for anything
// else (calls, index expressions, declaration sites, ...). Declarations are
// excluded on purpose: `var count int64` and struct field declarations are
// construction, not access.
func refVar(info *types.Info, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := info.Uses[e].(*types.Var)
		if !ok || v.IsField() {
			// Bare field idents only occur in declarations and composite
			// literal keys, neither of which is an access.
			return nil
		}
		return v
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj().(*types.Var)
		}
		v, _ := info.Uses[e.Sel].(*types.Var)
		return v
	}
	return nil
}
