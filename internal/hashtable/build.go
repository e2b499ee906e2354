package hashtable

import "fastcc/internal/mempool"

// Pair is one nonzero of an input tile: the intra-tile external index and
// its value. Intra-tile indices fit in uint32 because tile sides are bounded
// by cache-derived sizes far below 2^32.
type Pair struct {
	Idx uint32
	Val float64
}

const (
	sealedMaxLoad   = 0.7
	sealedEmptySlot = int32(-1)
)

// denseScratch parks BuildSealed's per-nonzero dense-index scratch between
// builds. It is kept apart from arenaI32 so a tile-sized scratch buffer is
// never re-vended as (and pins its capacity inside) a resident slot index.
var denseScratch mempool.SlicePool[int32]

// BuildSealed builds one tile's read-only table — the HL_i / HR_j map of
// paper Section 4.1 from a contraction index c to the tile's (intra-tile
// index, value) pairs — directly from the tile's nonzeros: ctr[k] is
// nonzero k's key and (intra[k], val[k]) its pair. keyHint is the expected
// DISTINCT-key count (model.ExpectedDistinctKeys), not the pair count: the
// slot index starts at the load-factor-implied size for it and doubles when
// the hint proves short.
//
// The build is count → prefix → scatter, with no per-key lists:
//
//  1. Every key is inserted into the open-addressing slot index; dense key
//     indices are assigned in first-occurrence order, and each nonzero's
//     dense index is recorded in a pooled scratch.
//  2. The scratch is counted into per-key run lengths, filling the dense
//     key array as each key first appears, and a prefix sum over the
//     lengths gives each key's span offset.
//  3. The pairs are scattered into an arena of exactly len(ctr) entries,
//     keeping input order within each key's run.
//
// The slot index, keys, spans and arena are all drawn from the sealed-arena
// pools and owned by the returned table until Sealed.Recycle. ctr, intra and
// val must have the same length (below 2^31); they are only read.
//
//fastcc:hotpath
func BuildSealed(ctr []uint64, intra []uint32, val []float64, keyHint int) *Sealed {
	n := len(ctr)
	intra, val = intra[:n], val[:n] // one length check here; intra[k], val[k] need none below
	capacity := Slots(keyHint)
	slotKeys, slotIdx := newSlots(capacity)
	mask := uint64(capacity - 1)
	// growAt is the distinct-key count at which the next new key would push
	// the load past sealedMaxLoad.
	growAt := MaxKeys(capacity)

	// Pass 1: slot insertion and dense-index recording.
	dense := denseScratch.Get(n)[:n]
	nkeys := 0
	for k, key := range ctr {
		slot := Mix(key) & mask
		li := slotIdx[slot]
		for li != sealedEmptySlot && slotKeys[slot] != key {
			slot = (slot + 1) & mask
			li = slotIdx[slot]
		}
		if li == sealedEmptySlot {
			li = int32(nkeys)
			if nkeys < growAt {
				slotKeys[slot] = key
				slotIdx[slot] = li
			} else {
				slotKeys, slotIdx = growSlots(slotKeys, slotIdx)
				mask = uint64(len(slotIdx) - 1)
				growAt = MaxKeys(len(slotIdx))
				placeKey(slotKeys, slotIdx, key, li)
			}
			nkeys++
		}
		dense[k] = li
	}

	s := &Sealed{
		mask:     mask,
		slotKeys: slotKeys,                     //fastcc:owned -- recycled by Sealed.Recycle
		slotIdx:  slotIdx,                      //fastcc:owned -- recycled by Sealed.Recycle
		keys:     arenaU64.Get(nkeys)[:nkeys],  //fastcc:owned -- recycled by Sealed.Recycle
		spans:    arenaSpan.Get(nkeys)[:nkeys], //fastcc:owned -- recycled by Sealed.Recycle
		pairs:    arenaPair.Get(n)[:n],         //fastcc:owned -- recycled by Sealed.Recycle
	}

	// Pass 2: count, prefix, scatter. Dense indices were assigned in
	// first-occurrence order, so the first nonzero whose index equals the
	// number of keys met so far introduces that key: the count fills keys
	// in order. During the scatter Off serves as each key's write cursor;
	// it is rewound to the run start afterwards.
	keys, spans := s.keys, s.spans
	clear(spans)
	met := int32(0)
	for k, li := range dense {
		if li == met {
			keys[li] = ctr[k]
			met++
		}
		spans[li].Len++
	}
	off := int32(0)
	for i := range spans {
		spans[i].Off = off
		off += spans[i].Len
	}
	pairs := s.pairs
	for k, li := range dense {
		pairs[spans[li].Off] = Pair{Idx: intra[k], Val: val[k]}
		spans[li].Off++
	}
	for i := range spans {
		spans[i].Off -= spans[i].Len
	}
	denseScratch.Put(dense)
	s.stampLive()
	return s
}

// Slots is the slot count BuildSealed starts a table at for keyHint
// expected distinct keys: room for them under the load limit, a power of
// two of at least 8. A table built from n pairs holds at most n keys, so
// with a hint of at most n it never grows past Slots(n).
func Slots(keyHint int) int { return max(8, nextPow2(int(float64(keyHint)/sealedMaxLoad)+1)) }

// MaxKeys is the most distinct keys a sealed table with the given slot
// count holds: the load limit, sealedMaxLoad, at which BuildSealed grows
// its index (the integer form of that float test). It is below the slot
// count, so every probe chain ends at an empty slot.
func MaxKeys(slots int) int { return int(sealedMaxLoad * float64(slots)) }

// newSlots draws an empty open-addressing slot index of the given
// power-of-two capacity from the sealed-arena pools.
func newSlots(capacity int) (slotKeys []uint64, slotIdx []int32) {
	slotKeys = arenaU64.Get(capacity)[:capacity]
	slotIdx = arenaI32.Get(capacity)[:capacity]
	for i := range slotIdx {
		slotIdx[i] = sealedEmptySlot
	}
	return slotKeys, slotIdx //fastcc:owned -- the caller's Sealed owns the index; Sealed.Recycle (or growSlots) returns it
}

// placeKey stores a key absent from the slot index, with dense index li, in
// the first empty slot of its linear-probe chain: the insertion step of
// growth, for the key that outgrew the index and for the rehash.
//
//fastcc:hotpath
func placeKey(slotKeys []uint64, slotIdx []int32, key uint64, li int32) {
	mask := uint64(len(slotIdx) - 1)
	slot := Mix(key) & mask
	for slotIdx[slot] != sealedEmptySlot {
		slot = (slot + 1) & mask
	}
	slotKeys[slot] = key
	slotIdx[slot] = li
}

// growSlots doubles a slot index and rehashes its keys in slot order. The
// outgrown arrays flow back to the arena pools at once — they have no other
// referent, so recycling them here (not at eviction) keeps the steady-state
// pools stocked with right-sized storage.
func growSlots(oldKeys []uint64, oldIdx []int32) (slotKeys []uint64, slotIdx []int32) {
	slotKeys, slotIdx = newSlots(2 * len(oldIdx))
	for slot, li := range oldIdx {
		if li != sealedEmptySlot {
			placeKey(slotKeys, slotIdx, oldKeys[slot], li)
		}
	}
	arenaU64.Put(oldKeys)
	arenaI32.Put(oldIdx)
	return slotKeys, slotIdx
}
