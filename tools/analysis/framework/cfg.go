// Control-flow graphs over function bodies, the substrate for the forward
// dataflow engine (dataflow.go). One statement per node keeps client
// transfer functions simple.
//
// The builder covers the statement forms the repo and its fixtures use:
// blocks, if/else, for and range loops, expression/type switches, select,
// labeled and unlabeled break/continue, return, defer, go. Two deliberate
// approximations keep it small: `goto` jumps conservatively to the function
// exit, and a statement-level `panic(...)` call likewise edges to the exit.
package framework

import (
	"go/ast"
	"go/token"
)

// A CFG is the control-flow graph of one function body. Entry starts the
// body; every terminating path reaches Exit (returns, panics, falling off
// the end).
type CFG struct {
	Entry *CFGNode
	Exit  *CFGNode
	Nodes []*CFGNode
}

// A CFGNode holds at most one statement. Synthetic nodes (entry, exit,
// joins, loop heads) carry a nil Stmt. Composite statements never appear
// whole: the builder decomposes them so every node's Stmt is shallow —
// clients may walk it with ast.Inspect without re-seeing nested bodies. An
// if/for condition appears as a synthetic ExprStmt wrapping the original
// condition expression; a range binding appears as a synthetic AssignStmt
// (`k, v := range x` becomes `k, v := x` for dataflow purposes, with the
// original expressions and positions).
type CFGNode struct {
	Index int
	Stmt  ast.Stmt
	Succs []*CFGNode
	Preds []*CFGNode
}

type cfgBuilder struct {
	cfg *CFG
	// loop stack for unlabeled break/continue; switch/select push a
	// break-only frame.
	frames []cfgFrame
	// label targets for labeled break/continue.
	labels map[string]*cfgFrame
}

type cfgFrame struct {
	label    string
	brk      *CFGNode // target of break
	cont     *CFGNode // target of continue; nil for switch/select frames
	loopLike bool
}

// BuildCFG constructs the CFG of one function body. A nil body yields a
// trivial entry→exit graph.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: map[string]*cfgFrame{}}
	b.cfg.Entry = b.newNode(nil)
	b.cfg.Exit = b.newNode(nil)
	if body == nil {
		b.edge(b.cfg.Entry, b.cfg.Exit)
		return b.cfg
	}
	end := b.stmts(b.cfg.Entry, body.List, "")
	if end != nil {
		b.edge(end, b.cfg.Exit)
	}
	return b.cfg
}

func (b *cfgBuilder) newNode(s ast.Stmt) *CFGNode {
	n := &CFGNode{Index: len(b.cfg.Nodes), Stmt: s}
	b.cfg.Nodes = append(b.cfg.Nodes, n)
	return n
}

func (b *cfgBuilder) edge(from, to *CFGNode) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// stmts threads the statement list from cur, returning the live trailing
// node, or nil when every path has left the list (return/break/...). label
// names the statement list's pending label (for `label: for {...}`).
func (b *cfgBuilder) stmts(cur *CFGNode, list []ast.Stmt, label string) *CFGNode {
	for _, s := range list {
		if cur == nil {
			// Unreachable code after a terminator; still build nodes so
			// clients can inspect them, but leave them unconnected.
			cur = b.newNode(nil)
		}
		cur = b.stmt(cur, s, label)
		label = ""
	}
	return cur
}

// stmt wires one statement after cur and returns the live continuation node
// (nil when the statement never falls through).
func (b *cfgBuilder) stmt(cur *CFGNode, s ast.Stmt, label string) *CFGNode {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(cur, s.List, "")

	case *ast.LabeledStmt:
		return b.stmt(cur, s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			cur = b.stmt(cur, s.Init, "")
		}
		condNode := b.newNode(&ast.ExprStmt{X: s.Cond})
		b.edge(cur, condNode)
		after := b.newNode(nil)
		thenEntry := b.newNode(nil)
		b.edge(condNode, thenEntry)
		if thenEnd := b.stmts(thenEntry, s.Body.List, ""); thenEnd != nil {
			b.edge(thenEnd, after)
		}
		if s.Else != nil {
			elseEntry := b.newNode(nil)
			b.edge(condNode, elseEntry)
			if elseEnd := b.stmt(elseEntry, s.Else, ""); elseEnd != nil {
				b.edge(elseEnd, after)
			}
		} else {
			b.edge(condNode, after)
		}
		if len(after.Preds) == 0 {
			return nil
		}
		return after

	case *ast.ForStmt:
		if s.Init != nil {
			cur = b.stmt(cur, s.Init, "")
		}
		head := b.newNode(nil)
		b.edge(cur, head)
		after := b.newNode(nil)
		contTarget := head
		var post *CFGNode
		if s.Post != nil {
			post = b.newNode(s.Post)
			b.edge(post, head)
			contTarget = post
		}
		frame := cfgFrame{label: label, brk: after, cont: contTarget, loopLike: true}
		b.pushFrame(frame)
		bodyEntry := b.newNode(nil)
		if s.Cond != nil {
			condNode := b.newNode(&ast.ExprStmt{X: s.Cond})
			b.edge(head, condNode)
			b.edge(condNode, bodyEntry)
			b.edge(condNode, after)
		} else {
			b.edge(head, bodyEntry)
		}
		if bodyEnd := b.stmts(bodyEntry, s.Body.List, ""); bodyEnd != nil {
			b.edge(bodyEnd, contTarget)
		}
		b.popFrame(frame)
		if len(after.Preds) == 0 {
			return nil // for {} with no break never falls through
		}
		return after

	case *ast.RangeStmt:
		head := b.newNode(rangeBinding(s)) // the per-iteration variable binding
		b.edge(cur, head)
		after := b.newNode(nil)
		b.edge(head, after) // range may be empty / exhausted
		frame := cfgFrame{label: label, brk: after, cont: head, loopLike: true}
		b.pushFrame(frame)
		bodyEntry := b.newNode(nil)
		b.edge(head, bodyEntry)
		if bodyEnd := b.stmts(bodyEntry, s.Body.List, ""); bodyEnd != nil {
			b.edge(bodyEnd, head)
		}
		b.popFrame(frame)
		return after

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur = b.stmt(cur, s.Init, "")
		}
		var tag ast.Stmt
		if s.Tag != nil {
			tag = &ast.ExprStmt{X: s.Tag}
		}
		head := b.newNode(tag) // evaluates the tag
		b.edge(cur, head)
		after := b.newNode(nil)
		frame := cfgFrame{label: label, brk: after}
		b.pushFrame(frame)
		b.switchClauses(head, after, s.Body.List)
		b.popFrame(frame)
		if len(after.Preds) == 0 {
			return nil
		}
		return after

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur = b.stmt(cur, s.Init, "")
		}
		head := b.newNode(s.Assign) // the x.(type) assignment (a simple stmt)
		b.edge(cur, head)
		after := b.newNode(nil)
		frame := cfgFrame{label: label, brk: after}
		b.pushFrame(frame)
		b.switchClauses(head, after, s.Body.List)
		b.popFrame(frame)
		if len(after.Preds) == 0 {
			return nil
		}
		return after

	case *ast.SelectStmt:
		head := b.newNode(nil)
		b.edge(cur, head)
		after := b.newNode(nil)
		frame := cfgFrame{label: label, brk: after}
		b.pushFrame(frame)
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			entry := b.newNode(comm.Comm) // the comm op itself; nil for default
			b.edge(head, entry)
			if end := b.stmts(entry, comm.Body, ""); end != nil {
				b.edge(end, after)
			}
		}
		b.popFrame(frame)
		if len(s.Body.List) == 0 || len(after.Preds) == 0 {
			return nil // select{} blocks forever, or every clause terminates
		}
		return after

	case *ast.ReturnStmt:
		n := b.newNode(s)
		b.edge(cur, n)
		b.edge(n, b.cfg.Exit)
		return nil

	case *ast.BranchStmt:
		n := b.newNode(s)
		b.edge(cur, n)
		switch s.Tok {
		case token.BREAK:
			if t := b.frameFor(s.Label, false); t != nil {
				b.edge(n, t.brk)
			} else {
				b.edge(n, b.cfg.Exit)
			}
		case token.CONTINUE:
			if t := b.frameFor(s.Label, true); t != nil && t.cont != nil {
				b.edge(n, t.cont)
			} else {
				b.edge(n, b.cfg.Exit)
			}
		case token.GOTO:
			// Conservative: treat as leaving the function. No repo code and
			// no fixture uses goto; a client seeing this edge assumes exit
			// obligations apply.
			b.edge(n, b.cfg.Exit)
		case token.FALLTHROUGH:
			// Handled by switchClauses: the clause end falls into the next
			// clause body. Here reached only for malformed code; edge to exit.
			b.edge(n, b.cfg.Exit)
		}
		return nil

	default:
		// Simple statements: assignments, expressions, declarations, defer,
		// go, send, inc/dec, empty. One node, straight-through edge. A
		// statement-level panic(...) terminates the path.
		n := b.newNode(s)
		b.edge(cur, n)
		if isPanicStmt(s) {
			b.edge(n, b.cfg.Exit)
			return nil
		}
		return n
	}
}

// switchClauses wires each case clause from head, honoring fallthrough.
func (b *cfgBuilder) switchClauses(head, after *CFGNode, clauses []ast.Stmt) {
	// Pre-create clause entries so fallthrough can target the next body.
	entries := make([]*CFGNode, len(clauses))
	bodyEntries := make([]*CFGNode, len(clauses))
	hasDefault := false
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		// The clause entry is synthetic: case expressions are comparisons and
		// carry no statements (their rare side effects are out of scope).
		entries[i] = b.newNode(nil)
		bodyEntries[i] = b.newNode(nil)
		b.edge(head, entries[i])
		b.edge(entries[i], bodyEntries[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after) // no case matched
	}
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		body := cc.Body
		fallsThrough := false
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				body = body[:n-1]
				fallsThrough = true
			}
		}
		end := b.stmts(bodyEntries[i], body, "")
		if end == nil {
			continue
		}
		if fallsThrough && i+1 < len(clauses) {
			b.edge(end, bodyEntries[i+1])
		} else {
			b.edge(end, after)
		}
	}
}

func (b *cfgBuilder) pushFrame(f cfgFrame) {
	b.frames = append(b.frames, f)
	if f.label != "" {
		fp := &b.frames[len(b.frames)-1]
		b.labels[f.label] = fp
	}
}

func (b *cfgBuilder) popFrame(f cfgFrame) {
	b.frames = b.frames[:len(b.frames)-1]
	if f.label != "" {
		delete(b.labels, f.label)
	}
}

// frameFor resolves a break/continue target: the labeled frame when label is
// set, otherwise the innermost frame (innermost loop for continue).
func (b *cfgBuilder) frameFor(label *ast.Ident, needLoop bool) *cfgFrame {
	if label != nil {
		return b.labels[label.Name]
	}
	for i := len(b.frames) - 1; i >= 0; i-- {
		if !needLoop || b.frames[i].loopLike {
			return &b.frames[i]
		}
	}
	return nil
}

// rangeBinding rewrites a range statement's header as a shallow statement
// for the loop-head node: `k, v := range x` becomes the synthetic assignment
// `k, v := x` (original expressions, original positions), and a bare
// `range x` becomes `x` as an expression statement. Dataflow clients then
// see the aliasing a range loop creates without special-casing RangeStmt.
func rangeBinding(s *ast.RangeStmt) ast.Stmt {
	if s.Key == nil && s.Value == nil {
		return &ast.ExprStmt{X: s.X}
	}
	var lhs []ast.Expr
	if s.Key != nil {
		lhs = append(lhs, s.Key)
	}
	if s.Value != nil {
		lhs = append(lhs, s.Value)
	}
	return &ast.AssignStmt{Lhs: lhs, Tok: s.Tok, TokPos: s.TokPos, Rhs: []ast.Expr{s.X}}
}

// isPanicStmt reports whether s is a statement-level call to the builtin
// panic. Type information is not consulted (the CFG is syntax-only); a
// shadowed panic is vanishingly rare and only makes the graph conservative.
func isPanicStmt(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
