package hashtable

import "fastcc/internal/mempool"

// Span bounds one key's pair run inside a Sealed table's arena.
type Span struct {
	Off int32
	Len int32
}

// Sealed-arena recycling: the shard-cache eviction policy retires whole
// sealed tables, whose storage flows back through these pools and is drawn
// again by the next BuildSealed or RestoreSealed. Under fastcc_checked the
// pools poison parked storage, so an unpinned reader touching a recycled
// table's arrays trips the sentinel or the generation stamp instead of
// reading another shard's data.
var (
	arenaU64  mempool.SlicePool[uint64]
	arenaI32  mempool.SlicePool[int32]
	arenaSpan mempool.SlicePool[Span]
	arenaPair mempool.SlicePool[Pair]
)

// Per-element footprints of the sealed arrays (Pair pads to 16 bytes).
const (
	bytesPerSlotKey = 8
	bytesPerSlotIdx = 4
	bytesPerKey     = 8
	bytesPerSpan    = 8
	bytesPerPair    = 16
)

// Sealed is the read-only SoA form of one tile's key → pair-run map: one
// contiguous []Pair arena with per-key {off, len} spans, no per-key slice
// headers. BuildSealed lays it out once in the Build phase; the Contract
// phase then co-iterates sealed tables with a flat cursor (KeyAt/PairsAt
// over dense indices), and every Lookup resolves to a span into the arena —
// no pointer chase per probe.
//
// Immutable once built, so concurrent contractions read it without locks.
type Sealed struct {
	mask uint64
	// slotKeys/slotIdx are the open-addressing slot arrays; slotIdx maps a
	// slot to a dense key index or sealedEmptySlot.
	slotKeys []uint64
	slotIdx  []int32
	// keys/spans are dense, indexed by first-occurrence order; pairs is the
	// arena, laid out in the same order.
	keys  []uint64
	spans []Span
	pairs []Pair

	ck checkedSealed // generation stamp; zero-sized unless built with fastcc_checked
}

// slicePairs resolves a span into the arena through int-widened bounds, so
// the slice arithmetic cannot wrap even if spans ever outgrow int32 math
// (the spanarith analyzer enforces this shape on all new span code).
//
//fastcc:hotpath
func (s *Sealed) slicePairs(sp Span) []Pair {
	return s.pairs[int(sp.Off) : int(sp.Off)+int(sp.Len)]
}

// Len returns the number of distinct keys.
func (s *Sealed) Len() int { return len(s.keys) }

// Mask returns the open-addressing slot mask (slot count - 1). Spill files
// store it so a restored table is probed over the same slot geometry as the
// one that was evicted (growth history is not reproducible from the dense
// arrays alone).
func (s *Sealed) Mask() uint64 { return s.mask }

// Pairs returns the total number of stored (key, pair) entries.
func (s *Sealed) Pairs() int { return len(s.pairs) }

// Slots returns the open-addressing slot count (footprint introspection).
func (s *Sealed) Slots() int { return len(s.slotKeys) }

// KeyAt returns the dense index i's key (0 <= i < Len()), in insertion
// order — the cursor side of tile co-iteration.
//
//fastcc:hotpath
func (s *Sealed) KeyAt(i int) uint64 {
	s.checkLive("KeyAt")
	return s.keys[i]
}

// PairsAt returns the dense index i's pair run. The slice aliases the
// arena and must not be modified.
//
//fastcc:hotpath
func (s *Sealed) PairsAt(i int) []Pair {
	// Liveness before the spans read: a recycled table must fail the
	// generation check, not an index bound on its released arrays.
	s.checkLive("PairsAt")
	sp := s.spans[i]
	s.checkSpan("PairsAt", sp)
	return s.slicePairs(sp)
}

// Lookup returns the pair run for key, or nil when absent — the probe side
// of tile co-iteration. The slice aliases the arena; do not modify.
//
//fastcc:hotpath
func (s *Sealed) Lookup(key uint64) []Pair {
	s.checkLive("Lookup")
	slot := Mix(key) & s.mask
	for {
		li := s.slotIdx[slot]
		if li == sealedEmptySlot {
			return nil
		}
		if s.slotKeys[slot] == key {
			sp := s.spans[li]
			s.checkSpan("Lookup", sp)
			return s.slicePairs(sp)
		}
		slot = (slot + 1) & s.mask
	}
}

// Contains reports whether key is present.
func (s *Sealed) Contains(key uint64) bool { return s.Lookup(key) != nil }

// Keys returns the dense key array in insertion order — the flat iteration
// side of tile co-iteration, and the array the batched probe side consumes
// in chunks. The slice aliases the sealed storage and must not be modified.
//
//fastcc:hotpath
func (s *Sealed) Keys() []uint64 {
	s.checkLive("Keys")
	return s.keys
}

// LookupBatchMax bounds one LookupBatch chunk: the stack scratch the
// software pipeline spreads its in-flight probes over. Callers may pass
// longer key slices — the pipeline restarts every LookupBatchMax keys.
const LookupBatchMax = 16

// LookupBatch resolves keys[i] to its dense key index in out[i] (usable
// with PairsAt), or -1 when absent, and returns the number present. The
// point is latency overlap: where Lookup serializes one hash → load →
// compare chain per key, LookupBatch hashes a whole chunk and issues its
// home-slot loads in a branch-free pass — up to LookupBatchMax independent
// cache misses in flight — and only then resolves collisions, so probe
// latency amortizes across the chunk instead of summing.
//
// out must have at least len(keys) entries; out[len(keys):] is untouched.
//
//fastcc:hotpath
func (s *Sealed) LookupBatch(keys []uint64, out []int32) (hits int) {
	s.checkLive("LookupBatch")
	_ = out[:len(keys)] // one bounds check for the whole batch
	var (
		slots    [LookupBatchMax]uint64
		homeIdx  [LookupBatchMax]int32
		homeKeys [LookupBatchMax]uint64
	)
	for base := 0; base < len(keys); base += LookupBatchMax {
		n := len(keys) - base
		if n > LookupBatchMax {
			n = LookupBatchMax
		}
		chunk := keys[base : base+n]
		// Pipeline pass: hash every key and load its home slot's index and
		// key. Nothing here branches on a loaded value, so the loads of the
		// whole chunk overlap in the load queue.
		for i, k := range chunk {
			slot := Mix(k) & s.mask
			slots[i] = slot
			homeIdx[i] = s.slotIdx[slot]
			homeKeys[i] = s.slotKeys[slot]
		}
		// Resolve pass: the common cases — empty home slot (miss) or key
		// match at home (hit) — complete from the prefetched state; only
		// collision chains fall through to the serial probe walk.
		for i, k := range chunk {
			li := homeIdx[i]
			switch {
			case li == sealedEmptySlot:
				out[base+i] = -1
			case homeKeys[i] == k:
				out[base+i] = li
				hits++
			default:
				out[base+i] = s.probeFrom(slots[i], k)
				if out[base+i] >= 0 {
					hits++
				}
			}
		}
	}
	return hits
}

// probeFrom continues a linear probe for key from the slot after home,
// returning the dense key index or -1. The home slot itself was already
// checked by LookupBatch's pipeline pass.
//
//fastcc:hotpath
func (s *Sealed) probeFrom(home uint64, key uint64) int32 {
	slot := (home + 1) & s.mask
	for {
		li := s.slotIdx[slot]
		if li == sealedEmptySlot {
			return -1
		}
		if s.slotKeys[slot] == key {
			return li
		}
		slot = (slot + 1) & s.mask
	}
}

// ForEach visits every (key, pair run) in insertion order. Kept for tests
// and tooling; the contraction kernel uses the KeyAt/PairsAt cursor.
func (s *Sealed) ForEach(fn func(key uint64, pairs []Pair)) {
	for i := range s.keys {
		fn(s.keys[i], s.PairsAt(i))
	}
}

// MemBytes reports the table's in-memory footprint: the slot arrays, the
// dense key/span arrays, and the pair arena. This is the byte figure the
// shard-cache eviction budget charges per tile.
func (s *Sealed) MemBytes() int64 {
	return int64(len(s.slotKeys))*bytesPerSlotKey +
		int64(len(s.slotIdx))*bytesPerSlotIdx +
		int64(len(s.keys))*bytesPerKey +
		int64(len(s.spans))*bytesPerSpan +
		int64(cap(s.pairs))*bytesPerPair
}

// Recycle retires the table and returns its storage to the arena pools for
// future builds — the eviction half of the sealed-table lifecycle. The
// table must have no readers: the shard cache only calls this after the
// owning shard's pin count has dropped to zero and its retire bit is set.
// Under fastcc_checked the generation stamp is invalidated first, so any
// reader that skipped pinning panics deterministically at its next access
// instead of observing another shard's recycled data.
func (s *Sealed) Recycle() {
	s.invalidate()
	arenaU64.Put(s.slotKeys)
	arenaI32.Put(s.slotIdx)
	arenaU64.Put(s.keys)
	arenaSpan.Put(s.spans)
	arenaPair.Put(s.pairs)
	s.slotKeys, s.slotIdx, s.keys, s.spans, s.pairs = nil, nil, nil, nil, nil
}
