// Package poolescape flags pool-obtained memory that escapes the scope the
// recycling discipline assumes.
//
// The engine's memory reuse (PRs 2-3) hands out storage whose lifetime ends
// at an explicit recycle point: mempool.SlicePool.Get buffers die at Put,
// ChunkCache-backed pool chunks die at Release, Freelist.Get values are
// re-vended to the next Get. None of that is visible to the garbage
// collector or the race detector — a reference that outlives the recycle
// point silently reads (or corrupts) whatever the next owner writes. This
// analyzer reports the three escape shapes that create such references:
//
//   - storing a pool-obtained value in a struct field (including composite
//     literal fields): the struct usually outlives the recycle point;
//   - returning a pool-obtained value: the caller has no Put obligation and
//     no way to know one exists;
//   - handing a pool-obtained value to a goroutine (captured by the `go`
//     statement's function literal or passed as an argument): the goroutine
//     races the recycle point.
//
// Deliberate ownership transfers — a struct that owns its arenas until an
// explicit Release, like coo.TilePartition — are annotated at the store
// site with
//
//	//fastcc:owned -- <who owns the memory and which call ends the lifetime>
//
// which both suppresses the diagnostic and documents the invariant in the
// diff. //fastcc:allow poolescape also works but //fastcc:owned is the
// convention for transfers that are part of the design.
//
// The analysis is intraprocedural and name-based on the mempool API: it
// tracks values produced by Pool.Chunks, List.Chunks, ChunkCache.NewPool,
// SlicePool.Get and Freelist.Get (through local aliases) and inspects the
// enclosing function's statements. It does not model Put ordering — any
// escape of tracked memory is reported, because a store that happens to
// precede every recycle today is one refactor away from outliving one.
package poolescape

import (
	"go/ast"
	"go/token"
	"go/types"

	"fastcc/tools/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "poolescape",
	Doc:  "flags mempool-obtained memory stored in struct fields, returned, or handed to goroutines",
	Run:  run,
}

// poolMethods names the producing methods per mempool type: a call to one of
// these yields memory owned by the pool's recycling discipline.
var poolMethods = map[string]map[string]bool{
	"Pool":       {"Chunks": true},
	"List":       {"Chunks": true},
	"ChunkCache": {"NewPool": true},
	"SlicePool":  {"Get": true},
	"Freelist":   {"Get": true},
}

func run(pass *framework.Pass) error {
	owned := framework.CollectLineMarkers(pass.Fset, pass.Files, "owned")
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn, owned)
		}
	}
	return nil
}

func checkFunc(pass *framework.Pass, fn *ast.FuncDecl, owned map[string]map[int]bool) {
	tracked := trackedVars(pass.TypesInfo, fn.Body)

	report := func(pos token.Pos, format string, args ...any) {
		if framework.MarkedAt(pass.Fset, owned, pos) {
			return
		}
		pass.Reportf(pos, format, args...)
	}

	pooled := func(e ast.Expr) bool { return isPooled(pass.TypesInfo, tracked, e) }

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if pooled(res) {
					report(res.Pos(),
						"pool-obtained memory returned from %s escapes its recycle point; copy it out, or annotate //fastcc:owned with the ownership invariant",
						fn.Name.Name)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if isFieldSelector(pass.TypesInfo, lhs) && pooled(n.Rhs[i]) {
					report(n.Rhs[i].Pos(),
						"pool-obtained memory stored in struct field %s may outlive its recycle point; copy it, or annotate //fastcc:owned with the ownership invariant",
						fieldName(lhs))
				}
			}
		case *ast.CompositeLit:
			if t := pass.TypesInfo.TypeOf(n); t == nil || !isStructType(t) {
				return true
			}
			for _, elt := range n.Elts {
				v := elt
				name := "(positional)"
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
					if id, ok := kv.Key.(*ast.Ident); ok {
						name = id.Name
					}
				}
				if pooled(v) {
					report(v.Pos(),
						"pool-obtained memory stored in struct field %s may outlive its recycle point; copy it, or annotate //fastcc:owned with the ownership invariant",
						name)
				}
			}
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				if pooled(arg) {
					report(arg.Pos(),
						"pool-obtained memory passed to a goroutine races its recycle point; copy it, or annotate //fastcc:owned with the ownership invariant")
				}
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				if name := capturedTracked(pass.TypesInfo, tracked, lit); name != "" {
					report(n.Pos(),
						"goroutine captures pool-obtained %q and races its recycle point; copy it, or annotate //fastcc:owned with the ownership invariant",
						name)
				}
			}
		}
		return true
	})
}

// trackedVars collects the variables of fn that hold pool-obtained memory:
// assigned directly from a producing call, or aliased from such a variable.
// Two passes make the alias rule order-insensitive (good enough for the
// straight-line pool usage in this codebase).
func trackedVars(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	tracked := map[*types.Var]bool{}
	for pass2 := 0; pass2 < 2; pass2++ {
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			// v, ok := freelist.Get(k): one producing call, multiple LHS —
			// the value is the first result.
			if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
				if sourceCall(info, as.Rhs[0]) {
					markVar(info, tracked, as.Lhs[0])
				}
				return true
			}
			for i, lhs := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				if sourceCall(info, as.Rhs[i]) || isPooled(info, tracked, as.Rhs[i]) {
					markVar(info, tracked, lhs)
				}
			}
			return true
		})
	}
	return tracked
}

func markVar(info *types.Info, tracked map[*types.Var]bool, lhs ast.Expr) {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if v, ok := obj.(*types.Var); ok && !v.IsField() {
		tracked[v] = true
	}
}

// isPooled reports whether e evaluates to pool-obtained memory: a producing
// call, a tracked variable, or a slice/index of either (b[:n] keeps the
// backing array).
func isPooled(info *types.Info, tracked map[*types.Var]bool, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return sourceCall(info, e)
	case *ast.Ident:
		v, ok := info.Uses[e].(*types.Var)
		return ok && tracked[v]
	case *ast.SliceExpr:
		return isPooled(info, tracked, e.X)
	case *ast.IndexExpr:
		return isPooled(info, tracked, e.X)
	}
	return false
}

// sourceCall reports whether e is a call (possibly sliced) to a producing
// mempool method — a method named in poolMethods on a type named there,
// declared in a package named "mempool".
func sourceCall(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		return sourceCall(info, e.X)
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		recv := info.TypeOf(sel.X)
		if recv == nil {
			return false
		}
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok {
			return false
		}
		obj := named.Obj()
		if obj.Pkg() == nil || obj.Pkg().Name() != "mempool" {
			return false
		}
		methods, ok := poolMethods[obj.Name()]
		return ok && methods[sel.Sel.Name]
	}
	return false
}

// capturedTracked returns the name of one tracked variable the function
// literal references from its enclosing scope, or "".
func capturedTracked(info *types.Info, tracked map[*types.Var]bool, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || !tracked[v] {
			return true
		}
		// Declared inside the literal itself: not a capture.
		if lit.Pos() <= v.Pos() && v.Pos() < lit.End() {
			return true
		}
		name = v.Name()
		return false
	})
	return name
}

// isFieldSelector reports whether lhs is a struct-field selector (x.f with f
// a field, not a package-level or method selection).
func isFieldSelector(info *types.Info, lhs ast.Expr) bool {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	v, ok := info.Uses[sel.Sel].(*types.Var)
	return ok && v.IsField()
}

func fieldName(lhs ast.Expr) string {
	if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return "?"
}

func isStructType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	_, ok := t.Underlying().(*types.Struct)
	return ok
}
