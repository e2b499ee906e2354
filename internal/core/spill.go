// The disk tier of the shard cache: serialization of evicted shards into
// spill files and their restoration at the next pin.
//
// Placement in the lifecycle (lifecycle.go): eviction victims reach reap
// already retired, unpinned, unlinked from the LRU and unclaimed. With a
// spill directory configured, reap hands each victim to trySpill, which
// serializes the still-live tables into a section-encoded body, writes it
// through the spill.Dir (envelope: magic, version, generation stamp, CRC
// trailer), installs the handle on the shard under shardLRU.mu, and only
// then recycles the RAM tables. The shard stays mapped as a "spilled" stub —
// retired (never pinned again) but carrying the disk image. When Operand.Shard next
// finds that stub, it takes the handle, reads the file back, and restores
// the tables into a fresh born-pinned shard; any typed failure (missing,
// truncated, checksum, stale generation, malformed body) counts a fallback
// and degrades to the ordinary rebuild — never a wrong answer.
//
// Content-keyed operands (NewKeyedOperand) name their spill files by key,
// so a keep-mode directory lets a restarted process adopt the previous
// process's files (Dir.TakeOrphan) instead of rebuilding — the server's
// warm-restart path. Anonymous operands get process-local names the next
// startup scavenges.
package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"fastcc/internal/coo"
	"fastcc/internal/hashtable"
	"fastcc/internal/spill"
	"fastcc/internal/tnsbin"
)

// Process-wide spill state: the directory manager (nil = disk tier off),
// the generation-stamp sequence for spill writes, and the anonymous
// operand naming sequence.
var (
	spillDirPtr atomic.Pointer[spill.Dir]
	spillSeq    atomic.Uint64
	spillAnon   atomic.Uint64
)

// ConfigureSpill (re)configures the process-wide disk tier: dir is the
// spill directory (created if needed, scavenged of stale leftovers),
// budget bounds its bytes (<= 0 unlimited), keep selects warm-restart
// persistence (released files stay on disk as adoptable orphans). An empty
// dir disables the disk tier and deletes no file; reconfiguring with the
// same dir and keep mode just re-applies the budget.
func ConfigureSpill(dir string, budget int64, keep bool) error {
	if dir == "" {
		spillDirPtr.Store(nil)
		return nil
	}
	if cur := spillDirPtr.Load(); cur != nil && cur.Path() == dir && cur.Keep() == keep {
		cur.SetBudget(budget)
		return nil
	}
	d, err := spill.Open(spill.OS{}, dir, budget, keep)
	if err != nil {
		return err
	}
	spillDirPtr.Store(d)
	return nil
}

// SpillDirStats reports the disk-tier gauges of the configured spill
// directory (zeros when the tier is off): file count, summed bytes, and
// files the startup scavenge deleted.
func SpillDirStats() (files int, bytes int64, scavenged int) {
	if d := spillDirPtr.Load(); d != nil {
		return d.Stats()
	}
	return 0, 0, 0
}

// SpillFaultSnapshot breaks SpillFallbacks down by typed cause — what the
// fault-injection tests assert against.
type SpillFaultSnapshot struct {
	Missing, Truncated, Checksum, Stale, BadHeader int64
	// WriteFailed counts spill writes the directory refused (over budget)
	// or the filesystem failed (ENOSPC, read-only directory).
	WriteFailed int64
}

var spillFaults struct {
	missing, truncated, checksum, stale, badHeader, writeFailed atomic.Int64
}

// SpillFaults returns the per-cause fallback counters.
func SpillFaults() SpillFaultSnapshot {
	return SpillFaultSnapshot{
		Missing:     spillFaults.missing.Load(),
		Truncated:   spillFaults.truncated.Load(),
		Checksum:    spillFaults.checksum.Load(),
		Stale:       spillFaults.stale.Load(),
		BadHeader:   spillFaults.badHeader.Load(),
		WriteFailed: spillFaults.writeFailed.Load(),
	}
}

// countSpillFault records one degraded spill operation: the global fallback
// counter plus the typed-cause breakdown.
func countSpillFault(err error) {
	shardLRU.counters.SpillFallbacks.Add(1)
	switch {
	case errors.Is(err, spill.ErrMissing):
		spillFaults.missing.Add(1)
	case errors.Is(err, spill.ErrChecksum):
		spillFaults.checksum.Add(1)
	case errors.Is(err, spill.ErrStale):
		spillFaults.stale.Add(1)
	case errors.Is(err, spill.ErrBadHeader):
		spillFaults.badHeader.Add(1)
	case errors.Is(err, spill.ErrTruncated):
		spillFaults.truncated.Add(1)
	default:
		spillFaults.writeFailed.Add(1)
	}
}

// sanitizeSpillKey maps an operand content key onto a safe file-name stem:
// only [A-Za-z0-9._-] survive, and a key that would collide with the
// anonymous namespace is prefixed out of it.
func sanitizeSpillKey(key string) string {
	var b strings.Builder
	for _, c := range key {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	s := b.String()
	if s == "" || strings.HasPrefix(s, spill.AnonPrefix) {
		s = "k" + s
	}
	return s
}

// spillFile names this operand's spill file for one ShardKey. Content-keyed
// operands' names are stable across processes, so keep-mode files are
// adoptable; anonymous names never become orphans.
func (o *Operand) spillFile(key ShardKey) string {
	return fmt.Sprintf("%s-t%d-r%d%s", o.spillName, key.Tile, key.Rep, spill.Ext)
}

// adoptSpillLocked looks for an orphan spill file of a previous process
// matching this operand and shard key. Caller holds shardLRU.mu; TakeOrphan
// is an in-memory lookup, no IO.
func (o *Operand) adoptSpillLocked(key ShardKey) *spill.Handle {
	d := spillDirPtr.Load()
	if d == nil {
		return nil
	}
	h, ok := d.TakeOrphan(o.spillFile(key))
	if !ok {
		return nil
	}
	return h
}

// trySpill intercepts one eviction victim on its way to recycling: the
// caller (shardCache.reap) guarantees s is retired, unpinned, unlinked and
// unclaimed, with its tables still live. On success the tables' image is on
// disk, the handle is installed on the still-mapped shard, and the RAM
// storage is recycled; any failure (disk tier off, write refused, operand
// closed or remapped mid-spill) reports false and the caller falls back to
// the plain recycle path.
func trySpill(s *Shard) bool {
	d := spillDirPtr.Load()
	if d == nil {
		return false
	}
	h, err := d.Write(s.owner.spillFile(s.Key), spillSeq.Add(1), encodeShard(s))
	if err != nil {
		countSpillFault(err)
		return false
	}
	c := &shardLRU
	c.mu.Lock()
	if s.owner.shards[s.Key] != s {
		// The operand was closed or the key rebuilt while we serialized:
		// nothing will ever reload this file, so take it back off disk.
		c.mu.Unlock()
		d.Discard(h)
		return false
	}
	s.spill = h
	c.creditTenantSpillLocked(s.spillClaims, h.Size(), true)
	c.mu.Unlock()
	s.recycle()
	s.stampSpilled()
	c.counters.SpillWrites.Add(1)
	c.counters.SpillBytes.Add(h.Size())
	return true
}

// creditTenantSpillLocked charges one spill write (or read) to every
// tenant that had claimed the shard when it was evicted. Caller holds c.mu.
func (c *shardCache) creditTenantSpillLocked(claims []string, bytes int64, write bool) {
	for _, id := range claims {
		if a := c.tenants[id]; a != nil {
			if write {
				a.spillWrites++
				a.spillBytes += bytes
			} else {
				a.spillReads++
			}
		}
	}
}

// loadSpill restores a spilled shard image into this freshly created,
// born-pinned shard. On success the shard is fully built (tables, bytes,
// generation stamp) and the file is released (kept as an orphan in a
// keep-mode directory, deleted otherwise). On any failure the typed cause
// is counted, the file is discarded, partially decoded tiles are recycled,
// and the caller rebuilds this same shard from the operand — graceful
// degradation, never a wrong answer.
func (s *Shard) loadSpill(h *spill.Handle, m *coo.Matrix) bool {
	d := h.Dir()
	r, err := d.Read(h)
	if err == nil {
		err = s.decodeSpill(r, m)
	}
	if err != nil {
		countSpillFault(err)
		d.Discard(h)
		return false
	}
	s.bytes = s.footprint()
	s.stampBuilt()
	shardLRU.counters.SpillReads.Add(1)
	d.Release(h)
	return true
}

// badSpillBody wraps a body-level inconsistency as spill.ErrBadHeader, the
// taxonomy's "shape contradicts the shard being reloaded" bucket.
func badSpillBody(format string, args ...any) error {
	return fmt.Errorf("%w: body: %s", spill.ErrBadHeader, fmt.Sprintf(format, args...))
}

// decodeSpill parses the section body into this shard's tables, verifying
// at every step that the image matches the shard key and the operand it is
// being reattached to. A failure partway recycles everything decoded so
// far and leaves the shard empty for the rebuild fallback.
func (s *Shard) decodeSpill(r *tnsbin.SectionReader, m *coo.Matrix) (err error) {
	defer func() {
		if err != nil {
			s.abortSpillDecode()
		}
	}()
	rep := InputRep(r.U8())
	tile := r.U64()
	nTiles := int(r.Uvarint())
	nPairs := int(r.Uvarint())
	nKeys := int(r.Uvarint())
	if r.Err() != nil {
		return r.Err()
	}
	if rep != s.Key.Rep || tile != s.Key.Tile {
		return badSpillBody("image is (tile %d, rep %v), shard wants (tile %d, rep %v)", tile, rep, s.Key.Tile, s.Key.Rep)
	}
	if want := int((m.ExtDim + tile - 1) / tile); nTiles != want {
		return badSpillBody("%d tiles, operand grid has %d", nTiles, want)
	}
	if nPairs != m.NNZ() {
		return badSpillBody("%d pairs, operand has %d nonzeros", nPairs, m.NNZ())
	}
	ne := int(r.Uvarint())
	if r.Err() != nil {
		return r.Err()
	}
	if ne < 0 || ne > nTiles {
		return badSpillBody("%d non-empty tiles of %d", ne, nTiles)
	}
	s.nonEmpty = make([]int, ne)
	for i := range s.nonEmpty {
		v := int(r.Uvarint())
		if r.Err() != nil {
			return r.Err()
		}
		if v >= nTiles || (i > 0 && v <= s.nonEmpty[i-1]) {
			return badSpillBody("non-empty tile index %d out of order or range", v)
		}
		s.nonEmpty[i] = v
	}
	s.pairs = nPairs
	if rep == RepSorted {
		s.sorted = make([]*sortedTile, nTiles)
		for _, i := range s.nonEmpty {
			st, derr := decodeSortedTile(r)
			if derr != nil {
				return derr
			}
			s.sorted[i] = st
			s.keys += len(st.keys)
		}
	} else {
		s.sealed = make([]*hashtable.Sealed, nTiles)
		for _, i := range s.nonEmpty {
			t, derr := decodeSealedTile(r)
			if derr != nil {
				return derr
			}
			s.sealed[i] = t
			s.keys += t.Len()
		}
	}
	if s.keys != nKeys {
		return badSpillBody("tiles carry %d keys, header says %d", s.keys, nKeys)
	}
	if r.Remaining() != 0 {
		return badSpillBody("%d trailing bytes", r.Remaining())
	}
	return nil
}

// abortSpillDecode recycles whatever decodeSpill populated before failing
// and leaves the shard as empty as Shard() created it, ready for build.
func (s *Shard) abortSpillDecode() {
	for i, t := range s.sealed {
		if t != nil {
			t.Recycle()
			s.sealed[i] = nil
		}
	}
	for i, st := range s.sorted {
		if st != nil {
			st.recycle()
			s.sorted[i] = nil
		}
	}
	s.sealed, s.sorted, s.nonEmpty = nil, nil, nil
	s.pairs, s.keys = 0, 0
}

// encodeShard serializes the shard's tables as a section body (the
// spill.Dir envelope adds magic, version, generation and CRC). Layout:
//
//	u8      rep                     u64     tile side
//	uvarint tiles                   uvarint pairs
//	uvarint keys                    uvarint non-empty count
//	uvarint non-empty tile indices (ascending)
//	per non-empty tile, in index order:
//	  RepHash:   u64 mask · u64s keys · uvarint pairs · uvarint lens ·
//	             u32 idxs · f64-bit vals
//	  RepSorted: u64s keys · i32s offs (CSR) · uvarint pairs ·
//	             u32 idxs · f64-bit vals
//
// Spans and slot arrays are not stored: spans rebuild cumulatively from the
// per-key lens (BuildSealed lays the arena out contiguously in dense order),
// and the slot index rebuilds by replaying the dense keys over the stored
// mask.
func encodeShard(s *Shard) []byte {
	var w tnsbin.SectionWriter
	w.U8(uint8(s.Key.Rep))
	w.U64(s.Key.Tile)
	w.Uvarint(uint64(s.Tiles()))
	w.Uvarint(uint64(s.pairs))
	w.Uvarint(uint64(s.keys))
	w.Uvarint(uint64(len(s.nonEmpty)))
	for _, i := range s.nonEmpty {
		w.Uvarint(uint64(i))
	}
	if s.Key.Rep == RepSorted {
		for _, i := range s.nonEmpty {
			encodeSortedTile(&w, s.sorted[i])
		}
	} else {
		for _, i := range s.nonEmpty {
			encodeSealedTile(&w, s.sealed[i])
		}
	}
	return w.Bytes()
}

func encodeSealedTile(w *tnsbin.SectionWriter, t *hashtable.Sealed) {
	w.U64(t.Mask())
	w.U64s(t.Keys())
	w.Uvarint(uint64(t.Pairs()))
	n := t.Len()
	for i := 0; i < n; i++ {
		w.Uvarint(uint64(len(t.PairsAt(i))))
	}
	for i := 0; i < n; i++ {
		for _, p := range t.PairsAt(i) {
			w.U32(p.Idx)
		}
	}
	for i := 0; i < n; i++ {
		for _, p := range t.PairsAt(i) {
			w.U64(math.Float64bits(p.Val))
		}
	}
}

func encodeSortedTile(w *tnsbin.SectionWriter, st *sortedTile) {
	w.U64s(st.keys)
	w.I32s(st.offs)
	w.Uvarint(uint64(len(st.pairs)))
	for _, p := range st.pairs {
		w.U32(p.Idx)
	}
	for _, p := range st.pairs {
		w.U64(math.Float64bits(p.Val))
	}
}

// readPairBlock reads the idx/val halves of one tile's pair arena into
// dst (already pool-drawn, len set to the pair count).
func readPairBlock(r *tnsbin.SectionReader, dst []hashtable.Pair) {
	for i := range dst {
		dst[i].Idx = r.U32()
	}
	for i := range dst {
		dst[i].Val = math.Float64frombits(r.U64())
	}
}

// pairCount reads and bounds one tile's pair count: 12 bytes (u32 idx +
// f64 val) must remain per pair, so a corrupt count cannot drive a huge
// pool draw before the truncation is noticed.
func pairCount(r *tnsbin.SectionReader) (int, error) {
	n := r.Uvarint()
	if r.Err() != nil {
		return 0, r.Err()
	}
	if n > uint64(r.Remaining())/12 {
		return 0, badSpillBody("pair count %d exceeds remaining bytes", n)
	}
	return int(n), nil
}

func decodeSealedTile(r *tnsbin.SectionReader) (*hashtable.Sealed, error) {
	mask := r.U64()
	if r.Err() != nil {
		return nil, r.Err()
	}
	// mask+1 must be a power of two no larger than the addressable slot
	// space; anything else is a malformed image.
	if mask == ^uint64(0) || (mask+1)&mask != 0 || mask+1 > 1<<31 {
		return nil, badSpillBody("slot mask %#x is not a power-of-two capacity", mask)
	}
	keys := r.U64s(hashtable.RestoreKeys)
	if r.Err() != nil {
		hashtable.DiscardRestore(keys, nil, nil)
		return nil, r.Err()
	}
	if uint64(len(keys)) > mask+1 {
		hashtable.DiscardRestore(keys, nil, nil)
		return nil, badSpillBody("%d keys overfill %d slots", len(keys), mask+1)
	}
	nPairs, err := pairCount(r)
	if err != nil {
		hashtable.DiscardRestore(keys, nil, nil)
		return nil, err
	}
	spans := hashtable.RestoreSpans(len(keys))[:len(keys)]
	off := 0
	for i := range spans {
		ln := int(r.Uvarint())
		if r.Err() != nil || ln < 0 || off+ln > nPairs {
			hashtable.DiscardRestore(keys, spans, nil)
			if r.Err() != nil {
				return nil, r.Err()
			}
			return nil, badSpillBody("span lengths overrun the %d-pair arena", nPairs)
		}
		spans[i] = hashtable.Span{Off: int32(off), Len: int32(ln)}
		off += ln
	}
	if off != nPairs {
		hashtable.DiscardRestore(keys, spans, nil)
		return nil, badSpillBody("span lengths sum to %d, arena has %d pairs", off, nPairs)
	}
	pairs := hashtable.RestorePairs(nPairs)[:nPairs]
	readPairBlock(r, pairs)
	if r.Err() != nil {
		hashtable.DiscardRestore(keys, spans, pairs)
		return nil, r.Err()
	}
	return hashtable.RestoreSealed(mask, keys, spans, pairs), nil
}

func decodeSortedTile(r *tnsbin.SectionReader) (*sortedTile, error) {
	keys := r.U64s(func(n int) []uint64 { return sortedKeyPool.Get(n) }) //fastcc:owned -- stolen by the returned sortedTile, recycled by sortedTile.recycle; discard below on failure
	offs := r.I32s(func(n int) []int32 { return sortedOffPool.Get(n) })  //fastcc:owned -- stolen by the returned sortedTile, recycled by sortedTile.recycle; discard below on failure
	// Only hand back what was actually drawn: a read that fails before its
	// alloc callback runs leaves the slice nil, and a Put(nil) would skew
	// the pools' vended/returned leak gauges.
	discard := func() {
		if keys != nil {
			sortedKeyPool.Put(keys)
		}
		if offs != nil {
			sortedOffPool.Put(offs)
		}
	}
	if r.Err() != nil {
		discard()
		return nil, r.Err()
	}
	nPairs, err := pairCount(r)
	if err != nil {
		discard()
		return nil, err
	}
	if len(offs) != len(keys)+1 || len(offs) == 0 || offs[0] != 0 || int(offs[len(offs)-1]) != nPairs {
		discard()
		return nil, badSpillBody("sorted tile CSR shape (%d keys, %d offs, %d pairs)", len(keys), len(offs), nPairs)
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			discard()
			return nil, badSpillBody("sorted tile offsets decrease at %d", i)
		}
	}
	pairs := sortedPairPool.Get(nPairs)[:nPairs]
	readPairBlock(r, pairs)
	if r.Err() != nil {
		discard()
		sortedPairPool.Put(pairs)
		return nil, r.Err()
	}
	return &sortedTile{keys: keys, offs: offs, pairs: pairs}, nil //fastcc:owned -- the restore twin of buildSortedTiles: recycled by sortedTile.recycle
}
