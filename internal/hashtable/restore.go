package hashtable

// Spill-restore arena taps: when the shard cache reloads a spilled table
// from disk (internal/core, spill.go), the dense arrays are decoded straight
// into storage drawn from the same sealed-arena pools BuildSealed uses, so a
// restored table recycles exactly like a built one and the pools' leak
// accounting (Outstanding) stays balanced across spill round trips.
// DiscardRestore is the failure path's inverse: a decode that dies partway
// hands back whatever it drew.

// RestoreKeys draws dense-key storage for a spill restore.
func RestoreKeys(n int) []uint64 { return arenaU64.Get(n) } //fastcc:owned -- stolen by RestoreSealed, recycled by Sealed.Recycle; DiscardRestore on decode failure

// RestoreSpans draws span storage for a spill restore.
func RestoreSpans(n int) []Span { return arenaSpan.Get(n) } //fastcc:owned -- stolen by RestoreSealed, recycled by Sealed.Recycle; DiscardRestore on decode failure

// RestorePairs draws pair-arena storage for a spill restore.
func RestorePairs(n int) []Pair { return arenaPair.Get(n) } //fastcc:owned -- stolen by RestoreSealed, recycled by Sealed.Recycle; DiscardRestore on decode failure

// DiscardRestore returns restore storage to the pools when a spill decode
// fails before RestoreSealed takes ownership. Nil slices are skipped.
func DiscardRestore(keys []uint64, spans []Span, pairs []Pair) {
	if keys != nil {
		arenaU64.Put(keys)
	}
	if spans != nil {
		arenaSpan.Put(spans)
	}
	if pairs != nil {
		arenaPair.Put(pairs)
	}
}

// RestoreSealed reassembles the sealed form from its spilled dense content:
// the stored slot mask plus pool-drawn keys (insertion order), spans and
// pair arena, exactly as DiscardRestore would have received them. The slot
// arrays are not stored in spill files — replaying the dense keys through
// Mix over the stored mask rebuilds a valid open-addressing index, and
// every lookup resolves to the same dense key index as before the spill,
// which is all bit-identical contraction output requires. The returned
// table owns all four slices; Recycle returns everything to the pools.
//
// The caller bounds len(keys) by MaxKeys(mask+1), so a probe for an absent
// key ends at an empty slot. A key that repeats would be found only at its
// first index, losing the other's pairs: RestoreSealed then reports false,
// keeps none of the slices, and the caller still owns keys, spans and
// pairs.
func RestoreSealed(mask uint64, keys []uint64, spans []Span, pairs []Pair) (*Sealed, bool) {
	slotKeys, slotIdx := newSlots(int(mask) + 1)
	for li, k := range keys {
		slot := Mix(k) & mask
		for slotIdx[slot] != sealedEmptySlot {
			if slotKeys[slot] == k {
				arenaU64.Put(slotKeys)
				arenaI32.Put(slotIdx)
				return nil, false
			}
			slot = (slot + 1) & mask
		}
		slotKeys[slot] = k
		slotIdx[slot] = int32(li)
	}
	s := &Sealed{
		mask:     mask,
		slotKeys: slotKeys, //fastcc:owned -- recycled by Sealed.Recycle
		slotIdx:  slotIdx,  //fastcc:owned -- recycled by Sealed.Recycle
		keys:     keys,
		spans:    spans,
		pairs:    pairs,
	}
	s.stampLive()
	return s, true
}
