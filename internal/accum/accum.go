// Package accum implements the two output-tile accumulators of FaSTCC
// (paper Sections 4.2 and 5): a dense tile backed by a value buffer and a
// two-level touched bitmap, and a sparse tile backed by an open-addressing
// hash table; the probabilistic model in internal/model
// decides which to instantiate. The engine's tile kernels are specialized
// per accumulator and call the concrete types directly. The Accumulator
// interface is what the package tests drive every implementation through,
// the Robin Hood ablation SparseRobin included; the engine drains Dense and
// Sparse through DrainBatch.
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

// DrainWidth is the batch the engine drains a tile in: key and value
// buffers of this many cells, 8 KiB on the drainer's stack. A batch holds
// whole 64-bit bitmask words, so a DrainBatch buffer needs at least 64.
const DrainWidth = 512

// drainBatches is Drain on top of a DrainBatch method: it hands fn every
// cell batch drains, batch by batch, in the batches' order.
func drainBatches(batch func(keys []uint64, vals []float64) int, fn func(l, r uint32, v float64)) {
	var keys [DrainWidth]uint64
	var vals [DrainWidth]float64
	for n := batch(keys[:], vals[:]); n > 0; n = batch(keys[:], vals[:]) {
		for i, k := range keys[:n] {
			fn(uint32(k>>32), uint32(k), vals[i])
		}
	}
}
