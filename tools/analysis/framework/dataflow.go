// A small forward dataflow engine over the CFGs of cfg.go. Clients describe
// a lattice (Join, Equal, Copy) and a per-statement Transfer; Solve runs the
// classic worklist iteration to a fixpoint and returns the state at every
// node entry. State types are client-defined (typically small maps); the engine
// never inspects them beyond the supplied callbacks.
package framework

// A Flow describes one forward dataflow problem over a CFG.
type Flow[S any] struct {
	CFG *CFG

	// Init is the state at the function entry.
	Init S

	// Transfer produces a node's exit state from its entry state. The input
	// is a private copy (see Copy); Transfer may mutate and return it.
	Transfer func(n *CFGNode, in S) S

	// Join merges a predecessor's contribution into an accumulated state,
	// returning the merged state. The accumulator may be mutated.
	Join func(acc, in S) S

	// Equal reports whether two states are equal, bounding the iteration.
	Equal func(a, b S) bool

	// Copy returns an independent copy of a state.
	Copy func(S) S
}

// A FlowResult holds the fixpoint: the state at entry to each node, indexed
// by CFGNode.Index.
type FlowResult[S any] struct {
	In []S
	// Reached marks nodes the iteration visited; unreached nodes (dead code)
	// hold zero states.
	Reached []bool
}

// Solve runs the worklist iteration to a fixpoint. Termination is the
// client's contract: Join must be monotone over a finite-height lattice
// (bounded maps, saturating counters).
func (f *Flow[S]) Solve() *FlowResult[S] {
	n := len(f.CFG.Nodes)
	res := &FlowResult[S]{In: make([]S, n), Reached: make([]bool, n)}

	entry := f.CFG.Entry.Index
	res.In[entry] = f.Copy(f.Init)
	res.Reached[entry] = true

	// FIFO worklist with a dedupe set; node count is small (one function).
	work := []*CFGNode{f.CFG.Entry}
	queued := make([]bool, n)
	queued[entry] = true

	for len(work) > 0 {
		node := work[0]
		work = work[1:]
		queued[node.Index] = false

		out := f.Transfer(node, f.Copy(res.In[node.Index]))

		for _, to := range node.Succs {
			contrib := f.Copy(out)
			succ := to.Index
			var merged S
			if !res.Reached[succ] {
				merged = contrib
				res.Reached[succ] = true
			} else {
				merged = f.Join(f.Copy(res.In[succ]), contrib)
				if f.Equal(merged, res.In[succ]) {
					continue
				}
			}
			res.In[succ] = merged
			if !queued[succ] {
				queued[succ] = true
				work = append(work, to)
			}
		}
	}
	return res
}
