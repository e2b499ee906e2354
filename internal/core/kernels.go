package core

import (
	"fastcc/internal/accum"
	"fastcc/internal/hashtable"
	"fastcc/internal/metrics"
)

// This file is the tile microkernel, contractPair: the tile-pair loop of
// the paper's Algorithm 6, one loop for both accumulator kinds, which
// differ only in the accumulator Algorithm 7 picks. execute calls it
// directly for every tile task but a self-contraction's diagonal pairs.
// Inside it there are no interface calls: the multiply-accumulate runs in
// worker.scatter, which calls the worker's typed accumulator
// (accum.Dense.ScatterRuns or accum.Sparse.ScatterMatches) with the flat
// scatter exposed to the compiler. Under an R-major layout (rMajor) it
// swaps each match's runs.
//
// The kernel replaces the per-key serial Lookup with Sealed.LookupBatch:
// the iterated side's flat key array is consumed in chunks of probeDepth
// keys, so that many home-slot loads overlap in the load queue instead of
// serializing hash → load → compare chains (paper Section 4.3's
// probe-bound regime).
//
// The kernel only accumulates; execute then drains the worker with
// worker.drain. A self-contraction's diagonal pairs skip the kernel for
// scatterDiagonal, and its off-diagonal pairs hand the kernel the tiles'
// shared-key lists (sharedLists).
//
// Both accumulators agree bit for bit with internal/ref on every input the
// equivalence suite and the contraction fuzzer generate.

// chooseSides orders a hash tile pair for co-iteration: iterate the table
// with fewer DISTINCT KEYS and probe the other. The intersection is the
// same either way; the query count is the iterated side's key count, so the
// cheaper side to iterate is the one with fewer keys — Sealed.Len(), not
// pair count. Ties iterate the left table.
//
//fastcc:hotpath
func chooseSides(hl, hr *hashtable.Sealed) (iter, probeInto *hashtable.Sealed, swapped bool) {
	if hr.Len() < hl.Len() {
		return hr, hl, true
	}
	return hl, hr, false
}

// sharedLists returns the shared-key lists of tile pair (i, j) for
// contractPair. On the symmetric schedule (one shard on both sides) the
// pair is off-diagonal, so a key that no other tile holds matches nothing
// in it; the iterated side visits only its listed keys (Shard.sharedAt).
// A two-shard run iterates every key: nil, nil.
func sharedLists(ls, rs *Shard, i, j int) (listL, listR []int32) {
	if ls != rs {
		return nil, nil
	}
	return ls.sharedAt(i), rs.sharedAt(j)
}

// keyIndex returns the dense index of position k of the iterated side's key
// sequence: k itself, or list[k] when list is non-nil.
//
//fastcc:hotpath
func keyIndex(list []int32, k int) int {
	if list == nil {
		return k
	}
	return int(list[k])
}

// scatterDiagonal accumulates a diagonal tile pair of a self-contraction:
// both sides are the same table t, so key k matches itself and no probe
// runs. Matches go in key order, the order in which contractPair visits
// them when t is on both sides, so the output bits are unchanged. A key
// holding one pair (a, v), met when no match is pending, adds v·v at
// (a, a) with one Upsert: the same product into the same cell in the same
// order, with no batch to fill. Queries count the keys, as contractPair
// would; no probe batches, hits or misses are recorded.
//
//fastcc:hotpath
func scatterDiagonal(t *hashtable.Sealed, wk *worker, ctr *metrics.Counters) {
	var ms [hashtable.LookupBatchMax]accum.Match
	var volume, updates int64
	nm := 0
	n := t.Len()
	for k := range n {
		ps := t.PairsAt(k)
		volume += 2 * int64(len(ps))
		updates += int64(len(ps)) * int64(len(ps))
		if len(ps) == 1 && nm == 0 {
			wk.upsert(ps[0].Idx, ps[0].Idx, ps[0].Val*ps[0].Val)
			continue
		}
		ms[nm] = accum.Match{L: ps, R: ps}
		if nm++; nm == len(ms) {
			wk.scatter(ms[:nm])
			nm = 0
		}
	}
	wk.scatter(ms[:nm])
	ctr.AddQueries(int64(n))
	ctr.AddVolume(volume)
	ctr.AddUpdates(updates)
}

// probeDepth is the number of keys contractPair resolves per LookupBatch
// call. Eight in-flight probes cover the useful memory-level parallelism
// of typical 4-to-12-deep load queues while the chunk's stack scratch stays
// small.
const probeDepth = 8

// contractPair contracts tile pair (hl, hr) into the worker's
// accumulator: batched probes over the iterated side's flat key array,
// one scatter per chunk of matches. listL and listR are the tiles'
// shared-key lists (nil: every key); the iterated side visits only the
// keys its list names, in list order.
//
//fastcc:hotpath
func contractPair(hl, hr *hashtable.Sealed, listL, listR []int32, wk *worker, ctr *metrics.Counters) {
	iter, probeInto, swapped := chooseSides(hl, hr)
	list := listL
	if swapped {
		list = listR
	}
	// An R-major tile takes each match with the right run as its rows.
	swapped = swapped != wk.rmajor
	keys := iter.Keys()
	nk := len(keys)
	if list != nil {
		nk = len(list)
	}
	var kb [probeDepth]uint64
	var out [probeDepth]int32
	var ms [probeDepth]accum.Match
	var volume, updates, batches, hits int64
	for base := 0; base < nk; base += probeDepth {
		n := min(nk-base, probeDepth)
		for bi := range n {
			kb[bi] = keys[keyIndex(list, base+bi)]
		}
		h := probeInto.LookupBatch(kb[:n], out[:n])
		batches++
		if h == 0 {
			continue
		}
		hits += int64(h)
		// Gather the chunk's matched run pairs, then scatter them in ONE
		// accumulator call — the call boundary and the tile field loads
		// amortize over the chunk instead of recurring per matched key.
		nm := 0
		for bi := 0; bi < n; bi++ {
			li := out[bi]
			if li < 0 {
				continue
			}
			ips := iter.PairsAt(keyIndex(list, base+bi))
			pps := probeInto.PairsAt(int(li))
			volume += int64(len(ips)) + int64(len(pps))
			updates += int64(len(ips)) * int64(len(pps))
			if swapped {
				ms[nm] = accum.Match{L: pps, R: ips}
			} else {
				ms[nm] = accum.Match{L: ips, R: pps}
			}
			nm++
		}
		wk.scatter(ms[:nm])
	}
	queries := int64(nk)
	ctr.AddQueries(queries)
	ctr.AddVolume(volume)
	ctr.AddUpdates(updates)
	ctr.AddProbeBatches(batches, hits, queries-hits)
}
