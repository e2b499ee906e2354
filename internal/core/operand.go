package core

import (
	"strconv"

	"fastcc/internal/coo"
	"fastcc/internal/hashtable"
	"fastcc/internal/scheduler"
	"fastcc/internal/spill"
)

// Operand wraps a matrixized contraction operand together with a cache of
// built tile shards. Building a shard — partitioning the operand into
// per-tile segments and constructing per-tile hash tables over them — is
// the paper's Build phase (Algorithm 5, Section 4.2); caching
// it by ShardKey lets repeated contractions over the same operand skip that
// phase entirely.
//
// An Operand is safe for concurrent use: multiple contractions may share
// one, and a shard needed by several of them at once is built exactly once
// while the others wait.
type Operand struct {
	// Mat is the matrixized operand; treated as immutable once wrapped.
	Mat *coo.Matrix

	shards map[ShardKey]*Shard // guarded by shardLRU.mu

	// spillName prefixes this operand's spill file names: the sanitized
	// content key of a keyed operand (NewKeyedOperand), else a
	// process-local anonymous name the next startup scavenges. Fixed at
	// construction.
	spillName string
}

// NewOperand wraps a matrixized operand for shard caching. The matrix must
// not be mutated afterwards: cached shards index into it. Under
// fastcc_checked the matrix content is hash-stamped here and re-verified at
// every shard build, so a caller mutating the tensor through the original
// slices panics at the next build instead of silently poisoning the tables.
func NewOperand(m *coo.Matrix) *Operand {
	m.Stamp()
	return &Operand{
		Mat:       m,
		shards:    make(map[ShardKey]*Shard),
		spillName: spill.AnonPrefix + strconv.FormatUint(spillAnon.Add(1), 10),
	}
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
	o.spillName = sanitizeSpillKey(key)
	return o
}

// ShardKey is the shard-compatibility contract: a contraction can reuse a
// cached shard iff it partitions the operand with the same tile side. The
// tile side fixes the grid (tiles = ceil(ExtDim/Tile)) and the intra-tile
// index split, so any contraction arriving at the same Tile — whether from
// the model's decision or an explicit override — sees bit-identical tables.
type ShardKey struct {
	Tile uint64
}

// Shard is one operand's built tile tables for a given ShardKey. The tables
// are immutable after construction, so concurrent contractions read them
// without locks; what is mutable is the shard's lifetime state, guarded by
// shardLRU.mu — see lifecycle.go for the pin/doom/retire protocol and the
// LRU the shard is charged to.
type Shard struct {
	Key ShardKey

	sealed   []*hashtable.Sealed // per-tile tables (nil entries are empty)
	nonEmpty []int               // indices of tiles with at least one nonzero
	pairs    int                 // total nonzeros across all tiles
	keys     int                 // total distinct contraction keys across tiles
	// shared holds the shared-key lists of a shard with at least two
	// non-empty tiles (markShared; nil otherwise): per tile, a slice of
	// one flat array. Read through sharedAt.
	shared [][]int32

	built chan struct{} // closed when the build completes

	// owner (for unmapping) and bytes (the footprint charged to the budget)
	// are fixed once the shard is built.
	owner *Operand
	bytes int64

	// Lifecycle state (lifecycle.go), all guarded by shardLRU.mu: the pin
	// count, the doomed flag (Close ran while pinned: reclaim at the last
	// Unpin) and the retired flag (storage reclaimed or being reclaimed:
	// never pinned again), the intrusive LRU links, the tenant IDs charged for the
	// shard (tenant.go), and the disk-tier image of a spilled stub
	// (spill.go), which whoever reloads or drops the stub takes.
	// spillClaims keeps the claim list from retirement, so spill round
	// trips credit the tenants that had the shard warm.
	pins             int
	doomed, retired  bool
	lruPrev, lruNext *Shard
	inLRU            bool
	claims           []string
	spill            *spill.Handle
	spillClaims      []string

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

// sharedAt returns tile i's shared-key list: the ascending dense indices of
// the keys another tile of the shard may also hold. Nil means every key:
// a tile whose keys are all listed, and every tile of a shard without
// lists.
//
//fastcc:hotpath
func (s *Shard) sharedAt(i int) []int32 {
	s.checkBuilt("sharedAt")
	if s.shared == nil {
		return nil
	}
	return s.shared[i]
}

// Tiles returns the tile-grid size (number of tiles along the operand's
// external dimension).
func (s *Shard) Tiles() int { return len(s.sealed) }

// NonEmpty returns the indices of nonempty tiles (read-only), cached at
// build time straight from the partition offsets so the contract schedule
// never rescans the tile array.
func (s *Shard) NonEmpty() []int { return s.nonEmpty }

// Pairs returns the shard's total nonzero count.
func (s *Shard) Pairs() int { return s.pairs }

// TileBytes estimates the average in-memory footprint of one non-empty tile,
// the per-panel term of the LLC block-shape choice. The per-key constant
// covers the dense key, its span, and the (load-factor-padded, power-of-two)
// slot arrays; the estimate only has to be the right order of magnitude
// for blocking.
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
// A mapped shard that eviction has retired is replaced. If the retirement
// spilled the tables to the disk tier, the successor shard reloads them from
// the spill file; otherwise (and on any typed read-back failure) it rebuilds
// from the operand. Content-keyed operands additionally probe the spill
// directory's orphans on a cold miss, adopting a previous process's image
// when one matches.
func (o *Operand) Shard(key ShardKey, threads int) (*Shard, bool) {
	c := &shardLRU
	c.mu.Lock()
	var (
		h         *spill.Handle
		adopted   bool
		oldClaims []string
	)
	if s, ok := o.shards[key]; ok {
		if !s.retired {
			s.pins++
			if s.inLRU {
				c.unlinkLocked(s)
				c.pushFrontLocked(s)
			}
			c.mu.Unlock()
			<-s.built
			c.counters.Hits.Add(1)
			return s, false
		}
		// Retired: a spilled stub hands its disk image (and the tenants it
		// was warm for) to the successor built below; a shard still
		// mid-eviction is simply replaced.
		h, oldClaims = s.spill, s.spillClaims
		s.spill = nil
		delete(o.shards, key)
	} else {
		h = o.adoptSpillLocked(key)
		adopted = h != nil
	}
	ns := &Shard{Key: key, owner: o, built: make(chan struct{}), pins: 1} // born pinned: the builder's reference is the caller's
	o.shards[key] = ns
	c.mu.Unlock()
	// Concurrent fetchers of the same key now wait on ns.built, so the
	// reload (or rebuild) below runs exactly once — same singleflight as a
	// plain build.
	if h != nil && ns.loadSpill(h, o.Mat) {
		close(ns.built)
		c.counters.Hits.Add(1)
		if adopted {
			c.counters.SpillAdopts.Add(1)
		}
		c.insert(ns, oldClaims)
		return ns, false
	}
	c.counters.Misses.Add(1)
	ns.build(o.Mat, threads)
	close(ns.built)
	c.insert(ns, nil)
	return ns, true
}

// Cached reports whether a completed, still-live shard for key is available
// without blocking (an in-flight build and a retired entry both count as
// not cached).
func (o *Operand) Cached(key ShardKey) bool {
	shardLRU.mu.Lock()
	s, ok := o.shards[key]
	live := ok && !s.retired
	shardLRU.mu.Unlock()
	if !live {
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
	s.sealed = make([]*hashtable.Sealed, part.Tiles)
	scheduler.Static(threads, func(w, size int) {
		buildSealedTiles(s.sealed, part, m.CtrDim, w, size)
	})
	for _, i := range s.nonEmpty {
		s.keys += s.sealed[i].Len()
	}
	part.Release()
	s.markShared()
	s.bytes = s.footprint() // one stable number for LRU charge and discharge
	s.stampBuilt()
}

// footprint computes the byte figure the eviction budget charges for this
// shard: the tile tables themselves plus the per-tile pointer and index
// arrays and the shared-key lists. Computed once at build completion and
// cached in s.bytes (the LRU accounting must see one stable number for
// charge and discharge).
func (s *Shard) footprint() int64 {
	b := int64(len(s.nonEmpty)) * 8
	b += int64(len(s.shared)) * 24 // one slice header per tile
	for _, l := range s.shared {
		b += int64(len(l)) * 4
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
// flow back through the hashtable pools (hashtable.Sealed.Recycle). Only
// the caller that retired the shard under shardLRU.mu may call this, after
// unlocking. Under fastcc_checked the shard's generation stamp flips to
// retired first, so a reader that skipped pinning panics at its next tile
// access.
func (s *Shard) recycle() {
	s.stampRetired()
	for i, t := range s.sealed {
		if t != nil {
			t.Recycle()
			s.sealed[i] = nil
		}
	}
	s.sealed, s.shared = nil, nil
}
