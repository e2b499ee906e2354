package core

import (
	"fastcc/internal/coo"
	"fastcc/internal/hashtable"
	"fastcc/internal/mempool"
	"fastcc/internal/radix"
)

// InputRep selects how input tiles are represented. The paper's design is
// hash tables keyed by the contraction index (RepHash); RepSorted is an
// engineering ablation that stores each tile as c-sorted grouped arrays
// and co-iterates tile pairs by sorted merge — no hashing, but an
// O(nnz_tile log nnz_tile) radix sort per tile at build time and a merge
// walk over both key sets per tile pair.
type InputRep int

const (
	// RepHash uses open-addressing hash tables (the paper's FaSTCC).
	RepHash InputRep = iota
	// RepSorted uses radix-sorted grouped arrays with merge co-iteration.
	RepSorted
)

func (r InputRep) String() string {
	if r == RepSorted {
		return "sorted"
	}
	return "hash"
}

// sortedTile is one input tile in RepSorted form: distinct contraction
// indices ascending in keys, with offs[k]..offs[k+1] bounding the pairs of
// key k (a per-tile CSR over c).
type sortedTile struct {
	keys  []uint64
	offs  []int32
	pairs []hashtable.Pair
}

// Sorted-tile recycling: the RepSorted twin of the hashtable sealed-arena
// pools. Eviction retires whole sorted shards; their arrays flow back here
// and are drawn again by the next buildSortedTiles. sortedPermPool holds the
// per-tile sort permutation, which lives only until the tile's pairs are
// gathered. Under fastcc_checked the pools poison parked storage.
var (
	sortedKeyPool  mempool.SlicePool[uint64]
	sortedOffPool  mempool.SlicePool[int32]
	sortedPairPool mempool.SlicePool[hashtable.Pair]
	sortedPermPool mempool.SlicePool[uint32]
)

// Len returns the tile's distinct key count.
func (st *sortedTile) Len() int { return len(st.keys) }

// PairsAt returns the pair run of the tile's k-th key.
func (st *sortedTile) PairsAt(k int) []hashtable.Pair { return st.pairs[st.offs[k]:st.offs[k+1]] }

// memBytes reports the tile's in-memory footprint for eviction accounting.
func (st *sortedTile) memBytes() int64 {
	return int64(cap(st.keys))*8 + int64(cap(st.offs))*4 + int64(cap(st.pairs))*16
}

// recycle returns the tile's arrays to the sorted pools. Callers must hold
// the retired shard's reclamation ownership (see Shard.recycle).
func (st *sortedTile) recycle() {
	sortedKeyPool.Put(st.keys)
	sortedOffPool.Put(st.offs)
	sortedPairPool.Put(st.pairs)
	st.keys, st.offs, st.pairs = nil, nil, nil
}

// buildSortedTiles is the RepSorted analogue of buildSealedTiles: worker w
// radix-sorts the partition segments of its owned non-empty tiles by
// contraction index (in place — the partition arenas are consumed by the
// build and released afterwards) and compresses the runs into CSR form.
// The seed's gather-into-rawTile copy is gone: the partition already
// delivers each tile's nonzeros contiguously.
func buildSortedTiles(tables []*sortedTile, part *coo.TilePartition, w, teamSize int) {
	ne := part.NonEmpty()
	for idx := w; idx < len(ne); idx += teamSize {
		i := ne[idx]
		lo, hi := part.Offs[i], part.Offs[i+1]
		n := hi - lo
		cs := part.Ctr[lo:hi]
		perm := sortedPermPool.Get(n)[:n]
		for j := range perm {
			perm[j] = uint32(j)
		}
		// Per-tile sorts run inside an already-parallel team: one worker.
		radix.SortWithPerm(cs, perm, 1)
		// Pool-drawn with upper-bound capacity (distinct keys <= n), so the
		// append loops below never reallocate away the recycled storage.
		st := &sortedTile{
			keys:  sortedKeyPool.Get(n),      //fastcc:owned -- recycled by sortedTile.recycle
			offs:  sortedOffPool.Get(n + 1),  //fastcc:owned -- recycled by sortedTile.recycle
			pairs: sortedPairPool.Get(n)[:n], //fastcc:owned -- recycled by sortedTile.recycle
		}
		for p, orig := range perm {
			st.pairs[p] = hashtable.Pair{Idx: part.Intra[lo+int(orig)], Val: part.Val[lo+int(orig)]}
		}
		sortedPermPool.Put(perm)
		for j, c := range cs {
			if j == 0 || c != cs[j-1] {
				st.keys = append(st.keys, c)
				st.offs = append(st.offs, int32(j))
			}
		}
		st.offs = append(st.offs, int32(n))
		tables[i] = st
	}
}
