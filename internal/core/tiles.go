package core

import (
	"math/bits"

	"fastcc/internal/accum"
	"fastcc/internal/coo"
	"fastcc/internal/hashtable"
	"fastcc/internal/mempool"
	"fastcc/internal/model"
)

// worker holds the per-worker reusable accumulator. Exactly one of
// dense/sparse is non-nil: the kernel reaches the typed field through
// scatter, so no interface dispatch or per-tile type assertion sits on the
// accumulate path. rmajor is set each time a run claims the worker. Under
// rmajor (see rMajor) the dense tile's rows are R-tile indices, so
// contractPair swaps each match's runs and drain swaps the coordinates
// back.
type worker struct {
	dense  *accum.Dense
	sparse *accum.Sparse
	rmajor bool
}

// newWorker returns a worker whose accumulator has the given rows × cols
// shape: TileL × TileR, or TileR × TileL for an R-major dense run.
func newWorker(kind model.AccumKind, rows, cols uint64, sparseHint int) *worker {
	switch kind {
	case model.AccumSparse:
		return &worker{sparse: accum.NewSparse(sparseHint)}
	default:
		return &worker{dense: accum.NewDense(uint32(rows), uint32(cols))}
	}
}

// scatter accumulates a batch of matches into the worker's accumulator:
// ScatterRuns on a dense tile, ScatterMatches on a sparse one. contractPair
// and a self-contraction's diagonal pairs come through here. Under rmajor
// the caller has already swapped each match's runs.
func (wk *worker) scatter(ms []accum.Match) {
	if wk.sparse != nil {
		wk.sparse.ScatterMatches(ms)
	} else {
		wk.dense.ScatterRuns(ms)
	}
}

// upsert adds v at (l, r) in the worker's accumulator, for a
// self-contraction's diagonal pairs.
func (wk *worker) upsert(l, r uint32, v float64) {
	if wk.sparse != nil {
		wk.sparse.Upsert(l, r, v)
	} else {
		wk.dense.Upsert(l, r, v)
	}
}

// drain empties the worker's accumulator into pool after a tile task, one
// batch of up to accum.DrainWidth cells at a time, offsetting the
// intra-tile coordinates by the tile bases. An R-major tile drains (r, l)
// and is swapped back. With mirror set each batch is then written again
// transposed, as (r, l): in a self-contraction O = A·Aᵀ is symmetric, so
// that is the value of the lower-triangle tile pair the schedule skipped.
// Mirror and rmajor never meet, since only two-shard runs are R-major.
//
//fastcc:hotpath
func (wk *worker) drain(pool *mempool.Pool[Triple], baseL, baseR uint64, mirror bool) {
	var keys [accum.DrainWidth]uint64
	var vals [accum.DrainWidth]float64
	for {
		var n int
		if wk.dense != nil {
			n = wk.dense.DrainBatch(keys[:], vals[:])
		} else {
			n = wk.sparse.DrainBatch(keys[:], vals[:])
		}
		if n == 0 {
			return
		}
		if wk.rmajor {
			putTriples(pool, keys[:n], vals[:n], baseR, baseL, true)
		} else {
			putTriples(pool, keys[:n], vals[:n], baseL, baseR, false)
		}
		if mirror {
			putTriples(pool, keys[:n], vals[:n], baseL, baseR, true)
		}
	}
}

// putTriples writes one drained batch into pool's tail chunks
// (mempool.Pool.Extend): the cell with key hi<<32 | lo becomes the triple
// (hiBase+hi, loBase+lo), or with swap set (loBase+lo, hiBase+hi).
//
//fastcc:hotpath
func putTriples(pool *mempool.Pool[Triple], keys []uint64, vals []float64, hiBase, loBase uint64, swap bool) {
	for len(keys) > 0 {
		out := pool.Extend(len(keys))
		ks, vs := keys[:len(out)], vals[:len(out)]
		if swap {
			for i, k := range ks {
				out[i] = Triple{L: loBase + k&(1<<32-1), R: hiBase + k>>32, V: vs[i]}
			}
		} else {
			for i, k := range ks {
				out[i] = Triple{L: hiBase + k>>32, R: loBase + k&(1<<32-1), V: vs[i]}
			}
		}
		keys, vals = keys[len(out):], vals[len(out):]
	}
}

// tileNNZHint sizes the sparse accumulator from the model's expected
// nonzeros per tile, bounded to keep initial allocations modest.
func tileNNZHint(dec model.Decision, tl, tr uint64) int {
	e := dec.PNonzero * float64(tl) * float64(tr)
	switch {
	case !(e >= 64):
		// Covers e < 64 AND a NaN expectation (PNonzero NaN or zero-extent
		// degenerate input): every comparison with NaN is false, so the old
		// `e < 64` fallthrough reached int(NaN) — implementation-defined.
		return 64
	case e > 1<<22:
		return 1 << 22
	default:
		return int(e)
	}
}

// buildSealedTiles builds the sealed hash tables of the non-empty tiles this
// worker owns (idx mod teamSize == w over the partition's non-empty list).
// Each tile's nonzeros sit in a contiguous partition segment, so a worker
// reads only the bytes of its own tiles — no scan-and-filter over the whole
// operand — and hands that segment straight to hashtable.BuildSealed, sized
// from the model's distinct-key estimate (its hint is a KEY count, not a
// pair count).
//
// Workers write disjoint slots of tables, so no synchronization is needed
// beyond the team barrier.
//
//fastcc:hotpath
func buildSealedTiles(tables []*hashtable.Sealed, part *coo.TilePartition, ctrDim uint64, w, teamSize int) {
	ne := part.NonEmpty()
	for idx := w; idx < len(ne); idx += teamSize {
		i := ne[idx]
		lo, hi := part.Offs[i], part.Offs[i+1]
		tables[i] = hashtable.BuildSealed(part.Ctr[lo:hi], part.Intra[lo:hi], part.Val[lo:hi],
			model.ExpectedDistinctKeys(hi-lo, ctrDim))
	}
}

// sharedBitsPerKey sizes markShared's bitsets: the next power of two of at
// least this many bits per key of the shard. A key that no other tile
// holds is still listed when another key's bit collides with its own,
// about one time in eight at this density (1 - e^(-1/8)).
const sharedBitsPerKey = 8

// sharedBits parks markShared's two bitsets between builds.
var sharedBits mempool.SlicePool[uint64]

// markShared records the shared-key lists of a shard with at least two
// non-empty tiles (sharedAt): per tile, the dense indices of the keys that
// another tile may also hold. On the symmetric schedule an off-diagonal
// pair iterates only those, since a key no other tile holds matches
// nothing there.
//
// Two bitsets over hashtable.Mix(key), seen and shared, find them in one
// sweep over every tile's keys: a key whose bit is already in seen sets
// shared. Keys are distinct within a tile, so a key held by two tiles
// always sets shared; a bit collision only lists a key that matches
// nothing, it never drops one. A second sweep marks, in a bitmap over the
// keys in sweep order that reuses seen's words, the keys whose bit is in
// shared, and counts each tile's. A tile whose every key is marked keeps
// nil, which reads as all keys, and a shard on which every tile does keeps
// no lists. The others' lists, in ascending dense order, are cut from one
// exactly sized array by a last pass over the bitmap; the bitsets go back
// to their pool.
func (s *Shard) markShared() {
	if len(s.nonEmpty) < 2 {
		return
	}
	words := max(1, 1<<bits.Len(uint(sharedBitsPerKey*s.keys-1))/64)
	mask := uint64(64*words - 1)
	bm := sharedBits.Get(2 * words)[:2*words]
	clear(bm)
	seen, shared := bm[:words], bm[words:]
	for _, i := range s.nonEmpty {
		for _, key := range s.sealed[i].Keys() {
			b := hashtable.Mix(key) & mask
			w, bit := b>>6, uint64(1)<<(b&63)
			if seen[w]&bit != 0 {
				shared[w] |= bit
			}
			seen[w] |= bit
		}
	}

	// seen has at least 8 bits per key, so its words hold the bitmap.
	marked := seen[:(s.keys+63)/64]
	clear(marked)
	counts := make([]int, len(s.nonEmpty)) // listed keys per tile; -1 keeps nil
	g, total, listed := 0, 0, false
	for t, i := range s.nonEmpty {
		keys := s.sealed[i].Keys()
		n := 0
		for _, key := range keys {
			b := hashtable.Mix(key) & mask
			f := shared[b>>6] >> (b & 63) & 1
			marked[g>>6] |= f << (g & 63)
			n += int(f)
			g++
		}
		if n == len(keys) {
			n = -1
		} else {
			total += n
			listed = true
		}
		counts[t] = n
	}
	if listed {
		lists := make([][]int32, len(s.sealed))
		flat := make([]int32, total)
		g, off := 0, 0
		for t, i := range s.nonEmpty {
			n := s.sealed[i].Len()
			if c := counts[t]; c >= 0 {
				l := flat[off : off : off+c] // non-nil even when empty
				for k := 0; k < n; k++ {
					// k's bit and those above it in its word.
					w := marked[(g+k)>>6] >> ((g + k) & 63)
					if w == 0 {
						k += 63 - (g+k)&63 // to the last bit of the word
						continue
					}
					if k += bits.TrailingZeros64(w); k < n {
						l = append(l, int32(k))
					}
				}
				lists[i] = l
				off += c
			}
			g += n
		}
		s.shared = lists
	}
	sharedBits.Put(bm)
}
