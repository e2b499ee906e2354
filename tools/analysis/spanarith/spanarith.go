// Package spanarith flags index and slice-bound arithmetic performed in
// integer types narrower than 64 bits.
//
// The sealed-shard layer addresses its pair arenas with {off, len} spans
// stored as int32 (hashtable.Span), and linearized tile indices flow through
// uint32 intra-tile coordinates. Arithmetic carried out *in* those narrow
// types — pairs[sp.Off : sp.Off+sp.Len], a[off*stride] with uint32 operands
// — wraps silently once arenas or strides grow past the narrow type's range,
// and the wrapped value then indexes the wrong (but usually in-bounds)
// memory: no panic, no race report, just corrupt spans. This is the span
// sibling of linovf, which polices dimension products in the 64-bit domain.
//
// The rule is type-directed and narrow on purpose: a diagnostic fires only
// when a +, - or * expression whose *static type* is a sized integer
// narrower than 64 bits (int8/16/32, uint8/16/32) appears inside an index or
// slice bound of an array, slice or string. The fix is to widen the operands
// before the arithmetic —
//
//	pairs[int(sp.Off) : int(sp.Off)+int(sp.Len)]
//
// (or route through a checked helper that does so, like the sealed table's
// span accessors). Indexing with a narrow *value* (a[off] with off int32) is
// fine: the conversion to int is exact, only narrow-domain arithmetic wraps.
// Proven-impossible wraps are annotated //fastcc:allow spanarith -- reason,
// or with the //fastcc:owned line marker (shared with poolescape) when the
// suppression is an ownership claim: the annotated site's owner bounds the
// operands by construction (e.g. spans its own sealer validated).
//
// A second, flow-sensitive rule catches the wrap the expression rule cannot
// see: cursor accumulation. A narrow-int variable that accumulates inside a
// loop —
//
//	var off int32
//	for _, sp := range spans {
//	    out = append(out, pairs[off])   // off may already have wrapped
//	    off += sp.n
//	}
//
// wraps *during the accumulation*, so by the time it reaches an index the
// damage is done and no widening at the use site helps (pairs[int(off)] is
// equally wrong). The analyzer runs the forward dataflow engine over each
// function's CFG, marking narrow variables that self-accumulate (`off += n`,
// `off = off + n`) on a node that lies on a CFG cycle, and reports any index
// or slice-bound use of such a cursor. The fix is to accumulate in int and
// convert at the narrow boundary instead.
package spanarith

import (
	"go/ast"
	"go/token"
	"go/types"

	"fastcc/tools/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "spanarith",
	Doc:  "flags index/slice-bound arithmetic performed in sub-64-bit integer types (span overflow)",
	Run:  run,
}

func run(pass *framework.Pass) error {
	owned := framework.CollectLineMarkers(pass.Fset, pass.Files, "owned")
	pass.Preorder(func(n ast.Node) {
		switch n := n.(type) {
		case *ast.IndexExpr:
			if indexable(pass.TypesInfo, n.X) {
				checkBound(pass, n.Index, "index", owned)
			}
		case *ast.SliceExpr:
			if indexable(pass.TypesInfo, n.X) {
				checkBound(pass, n.Low, "slice bound", owned)
				checkBound(pass, n.High, "slice bound", owned)
				checkBound(pass, n.Max, "slice bound", owned)
			}
		}
	})
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkCursors(pass, n.Body, owned)
				}
			case *ast.FuncLit:
				checkCursors(pass, n.Body, owned)
			}
			return true
		})
	}
	return nil
}

// cursorSet is the dataflow state of the accumulation rule: the narrow-int
// variables that may hold a loop-accumulated value. Join is union — a cursor
// accumulated on any path into a node is suspect there.
type cursorSet map[*types.Var]bool

// checkCursors runs the cursor-accumulation dataflow over one function body
// and reports index/slice-bound uses of accumulated narrow cursors.
func checkCursors(pass *framework.Pass, body *ast.BlockStmt, owned map[string]map[int]bool) {
	info := pass.TypesInfo
	if !hasNarrowAccum(info, body) {
		return // fast path: nothing accumulates in a narrow type here
	}
	cfg := framework.BuildCFG(body)
	inLoop := loopResident(cfg)
	flow := &framework.Flow[cursorSet]{
		CFG:  cfg,
		Init: cursorSet{},
		Transfer: func(n *framework.CFGNode, in cursorSet) cursorSet {
			if n.Stmt != nil {
				applyCursorStmt(info, n.Stmt, in, inLoop[n.Index])
			}
			return in
		},
		Join: func(acc, in cursorSet) cursorSet {
			for v := range in {
				acc[v] = true
			}
			return acc
		},
		Equal: func(a, b cursorSet) bool {
			if len(a) != len(b) {
				return false
			}
			for v := range a {
				if !b[v] {
					return false
				}
			}
			return true
		},
		Copy: func(s cursorSet) cursorSet {
			out := make(cursorSet, len(s))
			for v := range s {
				out[v] = true
			}
			return out
		},
	}
	res := flow.Solve()

	seen := map[cursorUse]bool{} // one report per cursor per line
	for _, n := range cfg.Nodes {
		if !res.Reached[n.Index] || n.Stmt == nil {
			continue
		}
		reportCursorUses(pass, n.Stmt, res.In[n.Index], owned, seen)
	}
}

// applyCursorStmt updates the cursor set for one shallow statement. A narrow
// variable that self-accumulates on a loop-resident node becomes a cursor; a
// plain re-assignment (off = 0, off = base) clears it unless the new value is
// itself an accumulated cursor.
func applyCursorStmt(info *types.Info, stmt ast.Stmt, s cursorSet, inLoop bool) {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok {
		return
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
		if len(as.Lhs) != 1 {
			return
		}
		if v := boundIdentVar(info, as.Lhs[0]); v != nil && narrowInt(v.Type()) != "" && inLoop {
			s[v] = true
		}
	case token.ASSIGN, token.DEFINE:
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			v := boundIdentVar(info, lhs)
			if v == nil || narrowInt(v.Type()) == "" {
				continue
			}
			rhs := ast.Unparen(as.Rhs[i])
			if b, ok := rhs.(*ast.BinaryExpr); ok && inLoop &&
				(b.Op == token.ADD || b.Op == token.SUB || b.Op == token.MUL) && refsVar(info, b, v) {
				s[v] = true // off = off + n inside a loop
				continue
			}
			if src := boundIdentVar(info, rhs); src != nil && s[src] {
				s[v] = true // alias of an accumulated cursor
				continue
			}
			delete(s, v) // reinitialized: off = 0 resets the cursor
		}
	}
}

// cursorUse keys report deduplication: one diagnostic per cursor per line,
// however many times the identifier appears in the bounds.
type cursorUse struct {
	v    *types.Var
	line int
}

// reportCursorUses walks one shallow statement (excluding nested function
// literals, which are analyzed separately) for index or slice-bound uses of
// accumulated cursors.
func reportCursorUses(pass *framework.Pass, stmt ast.Stmt, s cursorSet, owned map[string]map[int]bool, seen map[cursorUse]bool) {
	if len(s) == 0 {
		return
	}
	info := pass.TypesInfo
	check := func(e ast.Expr, where string) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, _ := info.Uses[id].(*types.Var)
			if v == nil || !s[v] {
				return true
			}
			key := cursorUse{v: v, line: pass.Fset.Position(id.Pos()).Line}
			if seen[key] {
				return true
			}
			seen[key] = true
			if framework.MarkedAt(pass.Fset, owned, id.Pos()) {
				return true
			}
			pass.Reportf(id.Pos(),
				"%s uses %s cursor %q accumulated in a loop; the accumulation may wrap before this use — accumulate in int and convert at the narrow boundary (or annotate //fastcc:allow spanarith with a reason)",
				where, narrowInt(v.Type()), v.Name())
			return true
		})
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.IndexExpr:
			if indexable(info, n.X) {
				check(n.Index, "index")
			}
		case *ast.SliceExpr:
			if indexable(info, n.X) {
				check(n.Low, "slice bound")
				check(n.High, "slice bound")
				check(n.Max, "slice bound")
			}
		}
		return true
	})
}

// hasNarrowAccum reports whether the body contains any assignment shape the
// cursor rule cares about — the gate that keeps the CFG build off the vast
// majority of functions.
func hasNarrowAccum(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
		case token.ASSIGN, token.DEFINE:
			ok := false
			for i := range as.Lhs {
				if i < len(as.Rhs) {
					if _, isBin := ast.Unparen(as.Rhs[i]).(*ast.BinaryExpr); isBin {
						ok = true
					}
				}
			}
			if !ok {
				return true
			}
		default:
			return true
		}
		for _, lhs := range as.Lhs {
			if v := boundIdentVar(info, lhs); v != nil && narrowInt(v.Type()) != "" {
				found = true
			}
		}
		return !found
	})
	return found
}

// loopResident computes, per CFG node, whether the node lies on a cycle —
// reachable from one of its own successors. Quadratic in the worst case, but
// only run on bodies that pass the accumulation gate.
func loopResident(cfg *framework.CFG) []bool {
	n := len(cfg.Nodes)
	out := make([]bool, n)
	for _, start := range cfg.Nodes {
		seen := make([]bool, n)
		stack := make([]*framework.CFGNode, 0, len(start.Succs))
		stack = append(stack, start.Succs...)
		for len(stack) > 0 {
			nd := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if nd == start {
				out[start.Index] = true
				break
			}
			if seen[nd.Index] {
				continue
			}
			seen[nd.Index] = true
			stack = append(stack, nd.Succs...)
		}
	}
	return out
}

// boundIdentVar resolves a plain identifier to its variable object.
func boundIdentVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// refsVar reports whether e references v.
func refsVar(info *types.Info, e ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == v {
			found = true
		}
		return !found
	})
	return found
}

// checkBound reports the first +, - or * subexpression of e whose static
// type is a sized integer narrower than 64 bits.
func checkBound(pass *framework.Pass, e ast.Expr, where string, owned map[string]map[int]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch b.Op {
		case token.ADD, token.SUB, token.MUL:
		default:
			return true
		}
		if framework.MarkedAt(pass.Fset, owned, b.Pos()) {
			return false
		}
		if name := narrowInt(pass.TypesInfo.TypeOf(b)); name != "" {
			pass.Reportf(b.Pos(),
				"%s arithmetic performed in %s may wrap before widening; widen the operands to int first (e.g. int(off)+int(n)) or use a checked span helper (or annotate //fastcc:allow spanarith with a reason)",
				where, name)
			return false
		}
		return true
	})
}

// narrowInt returns the type's name when it is a sized integer narrower
// than 64 bits, and "" otherwise. int and uint are platform-word sized and
// treated as 64-bit: indexing math in them is the fix, not the bug.
func narrowInt(t types.Type) string {
	if t == nil {
		return ""
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return ""
	}
	switch b.Kind() {
	case types.Int8, types.Int16, types.Int32, types.Uint8, types.Uint16, types.Uint32:
		return b.Name()
	}
	return ""
}

// indexable reports whether x is an array, slice, pointer-to-array or
// string — the types where a wrapped index reads wrong memory. Map keys and
// generic type parameters are out of scope.
func indexable(info *types.Info, x ast.Expr) bool {
	t := info.TypeOf(x)
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Pointer:
		_, ok := u.Elem().Underlying().(*types.Array)
		return ok
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}
