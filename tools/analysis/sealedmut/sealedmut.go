// Package sealedmut flags writes through sealed, share-by-reading structures
// outside their sealing constructors.
//
// The LLC-blocked contract schedule (PR 3) depends on hashtable.Sealed and
// core.Shard being immutable once built: every worker reads them
// concurrently without locks, and the equivalence suite's bit-identical
// guarantee assumes the tables never change between runs. The compiler
// cannot enforce "read-only after this point", so this analyzer does: any
// assignment (including element writes and op-assignments) whose target is a
// field of a hashtable.Sealed or core.Shard value is reported unless the
// enclosing function carries the sealing-constructor marker in its doc
// comment:
//
//	// BuildSealed builds one tile's read-only table from its nonzeros. ...
//	//
//	//fastcc:sealer
//	func BuildSealed(ctr []uint64, intra []uint32, val []float64, keyHint int) *Sealed { ... }
//
// The marker names the one place a sealed structure may legally be written:
// the constructor (or lifecycle method, like the fastcc_checked
// invalidation hook) that establishes the immutability invariant everyone
// else relies on. A write anywhere else is either a bug or a design change
// that must move into the constructor; //fastcc:allow sealedmut exists for
// the rare test-fixture-style exception and demands a written reason.
//
// A single write may instead carry the //fastcc:owned line marker (shared
// with poolescape): it asserts the writer still privately owns the value —
// the structure has not been published to concurrent readers yet — which is
// sealing at statement rather than function granularity.
//
// The check is shallow by design: it sees writes through values statically
// typed as the sealed structs (s.field = v, s.field[i] = v, s.field = append
// ...). Writes through a previously extracted alias (ps := s.pairs;
// ps[0] = v) are not modeled — the fastcc_checked poison/generation runtime
// mode is the net under that gap.
package sealedmut

import (
	"go/ast"
	"go/types"

	"fastcc/tools/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "sealedmut",
	Doc:  "flags writes to hashtable.Sealed / core.Shard fields outside //fastcc:sealer constructors",
	Run:  run,
}

// sealedTypes names the read-only-after-build structures, keyed by the
// declaring package's name.
var sealedTypes = map[string]map[string]bool{
	"hashtable": {"Sealed": true},
	"core":      {"Shard": true},
}

func run(pass *framework.Pass) error {
	owned := framework.CollectLineMarkers(pass.Fset, pass.Files, "owned")
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || framework.FuncHasMarker(fn, "sealer") {
				continue
			}
			checkFunc(pass, fn, owned)
		}
	}
	return nil
}

func checkFunc(pass *framework.Pass, fn *ast.FuncDecl, owned map[string]map[int]bool) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if framework.MarkedAt(pass.Fset, owned, n.Pos()) {
				return true
			}
			for _, lhs := range n.Lhs {
				reportSealedTarget(pass, fn, lhs)
			}
		case *ast.IncDecStmt:
			if framework.MarkedAt(pass.Fset, owned, n.Pos()) {
				return true
			}
			reportSealedTarget(pass, fn, n.X)
		}
		return true
	})
}

// reportSealedTarget reports lhs when it resolves (through element and slice
// expressions) to a field selector on a sealed type.
func reportSealedTarget(pass *framework.Pass, fn *ast.FuncDecl, lhs ast.Expr) {
	e := ast.Unparen(lhs)
	for {
		switch t := e.(type) {
		case *ast.IndexExpr:
			e = ast.Unparen(t.X)
			continue
		case *ast.SliceExpr:
			e = ast.Unparen(t.X)
			continue
		case *ast.StarExpr:
			e = ast.Unparen(t.X)
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return
	}
	// Only field selections count; method values cannot be assigned to.
	if v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var); !ok || !v.IsField() {
		return
	}
	if name := sealedTypeName(pass.TypesInfo.TypeOf(sel.X)); name != "" {
		pass.Reportf(lhs.Pos(),
			"write to %s field %s in %s mutates a sealed structure outside a //fastcc:sealer constructor; concurrent readers assume immutability (move into the sealer or annotate //fastcc:allow sealedmut)",
			name, sel.Sel.Name, fn.Name.Name)
	}
}

// sealedTypeName returns "pkg.Type" when t (after pointer indirection) is a
// registered sealed type, and "" otherwise.
func sealedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	if sealedTypes[obj.Pkg().Name()][obj.Name()] {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return ""
}
