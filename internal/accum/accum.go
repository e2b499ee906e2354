// Package accum implements the two output-tile accumulators of FaSTCC
// (paper Sections 4.2 and 5): a dense tile backed by a value buffer, an
// active-position list and a bitmask, and a sparse tile backed by an
// open-addressing hash table; the probabilistic model in internal/model
// decides which to instantiate. The engine's tile kernels are specialized
// per accumulator and call the concrete types directly. The Accumulator
// interface is what the package tests drive every implementation through,
// the Robin Hood ablation SparseRobin included.
package accum

// Accumulator accumulates contributions to one output tile and then drains
// its nonzeros. Implementations are reused across tile tasks via Reset.
// Intra-tile indices l and r satisfy l < TL, r < TR.
type Accumulator interface {
	// Upsert adds v to position (l, r) — WS.upsert of Algorithm 4.
	Upsert(l, r uint32, v float64)
	// Drain visits every nonzero position exactly once, in unspecified
	// order, and leaves the accumulator empty and reusable.
	Drain(fn func(l, r uint32, v float64))
	// Len returns the number of distinct touched positions.
	Len() int
	// Reset empties the accumulator without draining.
	Reset()
}
