package core

import (
	"sync/atomic"

	"fastcc/internal/coo"
	"fastcc/internal/hashtable"
	"fastcc/internal/lockcheck"
	"fastcc/internal/scheduler"
	"fastcc/internal/spill"
)

// Operand wraps a matrixized contraction operand together with a cache of
// built tile shards. Building a shard — partitioning the operand into
// per-tile segments and constructing per-tile hash tables or sorted groups
// over them — is the paper's Build phase (Algorithm 5, Section 4.2); caching
// it by ShardKey lets repeated contractions over the same operand skip that
// phase entirely.
//
// An Operand is safe for concurrent use: multiple contractions may share
// one, and a shard needed by several of them at once is built exactly once
// while the others wait.
type Operand struct {
	// Mat is the matrixized operand; treated as immutable once wrapped.
	Mat *coo.Matrix

	mu     lockcheck.Mutex[operandRank] // never nested with shardLRU.mu, in either order
	shards map[ShardKey]*Shard

	// spillKey is the content key naming this operand's spill files (empty
	// for anonymous operands, set by NewKeyedOperand); spillID is the lazy
	// process-local name anonymous operands spill under. Guarded by mu.
	spillKey string
	spillID  string
}

// operandRank places Operand.mu in the lock-rank hierarchy
// (internal/lockcheck): rank 2, exclusive, so it never nests with
// shardCache.mu in either order. fastcc_checked builds enforce it at
// runtime.
type operandRank struct{}

func (operandRank) LockRank() (int, bool) { return 2, true }
func (operandRank) RankLabel() string     { return "Operand.mu" }

// NewOperand wraps a matrixized operand for shard caching. The matrix must
// not be mutated afterwards: cached shards index into it. Under
// fastcc_checked the matrix content is hash-stamped here and re-verified at
// every shard build, so a caller mutating the tensor through the original
// slices panics at the next build instead of silently poisoning the tables.
func NewOperand(m *coo.Matrix) *Operand {
	m.Stamp()
	return &Operand{Mat: m, shards: make(map[ShardKey]*Shard)}
}

// NewKeyedOperand is NewOperand for content-addressed operands: key (the
// server uses the hex content hash of the canonical tensor encoding) names
// this operand's spill files, so a keep-mode spill directory lets a
// restarted process that derives the same key adopt the previous process's
// on-disk shard images instead of rebuilding them. Two live operands with
// the same key share the namespace safely — the generation stamp turns a
// concurrent overwrite into a typed ErrStale fallback, never a wrong read.
func NewKeyedOperand(m *coo.Matrix, key string) *Operand {
	o := NewOperand(m)
	o.spillKey = sanitizeSpillKey(key)
	return o
}

// ShardKey is the shard-compatibility contract: a contraction can reuse a
// cached shard iff it partitions the operand with the same tile side under
// the same input representation. The tile side fixes the grid (tiles =
// ceil(ExtDim/Tile)) and the intra-tile index split, so any contraction
// arriving at the same (Tile, Rep) — whether from the model's decision or
// an explicit override — sees bit-identical tables.
type ShardKey struct {
	Tile uint64
	Rep  InputRep
}

// Shard is one operand's built tile tables for a given ShardKey. The tables
// are immutable after construction, so concurrent contractions read them
// without locks; what is mutable is the shard's lifetime state — see
// lifecycle.go for the pin/doom/retire protocol and the LRU the shard is
// charged to.
type Shard struct {
	Key ShardKey

	sealed   []*hashtable.Sealed // RepHash tiles (nil entries are empty)
	sorted   []*sortedTile       // RepSorted tiles
	nonEmpty []int               // indices of tiles with at least one nonzero
	pairs    int                 // total nonzeros across all tiles
	keys     int                 // total distinct contraction keys across tiles

	built chan struct{} // closed when the build completes

	// Lifecycle state (lifecycle.go): the owning operand (for unmapping at
	// eviction), the footprint charged to the byte budget, the atomic
	// pin/doom/retire word, and the intrusive LRU links guarded by
	// shardLRU.mu.
	owner            *Operand
	bytes            int64
	state            atomic.Uint64
	lruPrev, lruNext *Shard
	inLRU            bool
	claims           []string // tenant IDs charged for this shard (tenant.go), guarded by shardLRU.mu

	// spill is the disk-tier image of a spilled shard (spill.go), installed
	// by trySpill and taken by whoever reloads or drops the stub; guarded by
	// the owner's mu. spillClaims captures the claim list at retirement so
	// spill round trips credit the tenants that had the shard warm; written
	// under shardLRU.mu before trySpill installs spill, so whoever takes
	// the handle may read it.
	spill       *spill.Handle
	spillClaims []string

	ck checkedShard // generation stamp; zero-sized unless built with fastcc_checked
}

// sealedAt returns tile i's sealed table (nil when empty), verifying under
// fastcc_checked that the shard's build completed before any tile is read.
//
//fastcc:hotpath
func (s *Shard) sealedAt(i int) *hashtable.Sealed {
	s.checkBuilt("sealedAt")
	return s.sealed[i]
}

// sortedAt is sealedAt's RepSorted twin.
//
//fastcc:hotpath
func (s *Shard) sortedAt(i int) *sortedTile {
	s.checkBuilt("sortedAt")
	return s.sorted[i]
}

// Tiles returns the tile-grid size (number of tiles along the operand's
// external dimension).
func (s *Shard) Tiles() int {
	if s.Key.Rep == RepSorted {
		return len(s.sorted)
	}
	return len(s.sealed)
}

// NonEmpty returns the indices of nonempty tiles (read-only), cached at
// build time straight from the partition offsets so the contract schedule
// never rescans the tile array.
func (s *Shard) NonEmpty() []int { return s.nonEmpty }

// Pairs returns the shard's total nonzero count.
func (s *Shard) Pairs() int { return s.pairs }

// TileBytes estimates the average in-memory footprint of one non-empty tile,
// the per-panel term of the LLC block-shape choice. The per-key constant
// covers the dense key, its span, and the (load-factor-padded, power-of-two)
// slot arrays of the sealed form; the sorted form is smaller, but the
// estimate only has to be the right order of magnitude for blocking.
func (s *Shard) TileBytes() int64 {
	ne := len(s.nonEmpty)
	if ne == 0 {
		return 1
	}
	const pairBytes, keyBytes = 16, 48
	b := (int64(s.pairs)*pairBytes + int64(s.keys)*keyBytes) / int64(ne)
	if b < 1 {
		return 1
	}
	return b
}

// Shard returns the built shard for key PINNED — the caller owes exactly one
// Unpin, and until it pays, the byte-budgeted eviction policy cannot reclaim
// the shard's tables. A miss builds with `threads` workers; the second result
// reports whether this call performed the build (a hit — including waiting
// out another goroutine's in-flight build — returns false, which is what
// Stats reports as shard reuse).
//
// A mapped shard that eviction has retired but not yet unmapped is detected
// by the pin failing. If the retirement spilled the tables to the disk tier,
// the successor shard reloads them from the spill file; otherwise (and on
// any typed read-back failure) it rebuilds from the operand. Content-keyed
// operands additionally probe the spill directory's orphans on a cold miss,
// adopting a previous process's image when one matches.
func (o *Operand) Shard(key ShardKey, threads int) (*Shard, bool) {
	o.mu.Lock()
	var (
		h         *spill.Handle
		adopted   bool
		oldClaims []string
	)
	if s, ok := o.shards[key]; ok {
		if s.tryPin() {
			o.mu.Unlock()
			<-s.built
			shardLRU.counters.Hits.Add(1)
			shardLRU.touch(s)
			return s, false
		}
		// Retired under us. A spilled stub hands its disk image (and the
		// tenants it was warm for) to the successor built below; anything
		// else is a plain stale entry headed for rebuild. Read spillClaims
		// only with a handle in hand: the evictor writes it before it
		// installs the handle under o.mu, while a stub without one may
		// still be mid-eviction.
		h = s.takeSpillLocked()
		if h != nil {
			oldClaims = s.spillClaims
		}
		delete(o.shards, key)
	} else {
		h = o.adoptSpillLocked(key)
		adopted = h != nil
	}
	ns := &Shard{Key: key, owner: o, built: make(chan struct{})}
	ns.state.Store(shardPinInc) // born pinned: the builder's reference is the caller's
	o.shards[key] = ns
	o.mu.Unlock()
	// Concurrent fetchers of the same key now wait on ns.built, so the
	// reload (or rebuild) below runs exactly once — same singleflight as a
	// plain build.
	if h != nil && ns.loadSpill(h, o.Mat) {
		close(ns.built)
		shardLRU.counters.Hits.Add(1)
		if adopted {
			shardLRU.counters.SpillAdopts.Add(1)
		}
		creditTenantSpill(oldClaims, 0, false)
		shardLRU.insert(ns)
		return ns, false
	}
	shardLRU.counters.Misses.Add(1)
	ns.build(o.Mat, threads)
	close(ns.built)
	shardLRU.insert(ns)
	return ns, true
}

// Cached reports whether a completed, still-live shard for key is available
// without blocking (an in-flight build and a retired-but-unmapped entry both
// count as not cached).
func (o *Operand) Cached(key ShardKey) bool {
	o.mu.Lock()
	s, ok := o.shards[key]
	o.mu.Unlock()
	if !ok || s.state.Load()&shardRetired != 0 {
		return false
	}
	select {
	case <-s.built:
		return true
	default:
	}
	return false
}

// build runs the Build phase for this shard as a two-stage pipeline: first
// the operand is regrouped tile-major by the two-pass parallel partition
// (each nonzero read exactly twice, independent of the worker count), then
// each worker constructs the tables of the non-empty tiles it owns (idx mod
// workers == w over the non-empty list) reading only its own contiguous
// segments. Against the seed's scan-and-filter scheme — every worker
// scanning the whole operand — total Build reads drop from
// O(workers × nnz) to O(nnz).
func (s *Shard) build(m *coo.Matrix, threads int) {
	m.VerifyStamp("core.Shard.build")
	part := coo.PartitionByTile(m, s.Key.Tile, threads)
	s.nonEmpty = part.NonEmpty()
	s.pairs = m.NNZ()
	n := part.Tiles
	if s.Key.Rep == RepSorted {
		s.sorted = make([]*sortedTile, n)
		scheduler.Static(threads, func(w, size int) {
			buildSortedTiles(s.sorted, part, w, size)
		})
		for _, i := range s.nonEmpty {
			s.keys += len(s.sorted[i].keys)
		}
	} else {
		s.sealed = make([]*hashtable.Sealed, n)
		scheduler.Static(threads, func(w, size int) {
			buildSealedTiles(s.sealed, part, m.CtrDim, w, size)
		})
		for _, i := range s.nonEmpty {
			s.keys += s.sealed[i].Len()
		}
	}
	part.Release()
	s.bytes = s.footprint() // one stable number for LRU charge and discharge
	s.stampBuilt()
}

// footprint computes the byte figure the eviction budget charges for this
// shard: the tile tables themselves plus the per-tile pointer and index
// arrays. Computed once at build completion and cached in s.bytes (the LRU
// accounting must see one stable number for charge and discharge).
func (s *Shard) footprint() int64 {
	b := int64(len(s.nonEmpty)) * 8
	if s.Key.Rep == RepSorted {
		b += int64(len(s.sorted)) * 8
		for _, st := range s.sorted {
			if st != nil {
				b += st.memBytes()
			}
		}
		return b
	}
	b += int64(len(s.sealed)) * 8
	for _, t := range s.sealed {
		if t != nil {
			b += t.MemBytes()
		}
	}
	return b
}

// recycle reclaims a retired shard's storage: every sealed table's arenas
// flow back through the hashtable pools (hashtable.Sealed.Recycle), every
// sorted tile's arrays through the sorted pools. Only the single winner of
// tryRetire may call this, after the shard is uncharged and unmapped. Under
// fastcc_checked the shard's generation stamp flips to retired first, so a
// reader that skipped pinning panics at its next tile access.
func (s *Shard) recycle() {
	s.stampRetired()
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
	s.sealed, s.sorted = nil, nil
}
