package accum

import "fastcc/internal/hashtable"

// Sparse is the sparse tile accumulator of paper Section 5.4: an
// open-addressing hash table keyed by the packed intra-tile position
// (l<<32 | r), 16 bytes per entry. It permits tiles far larger than the
// dense limit sqrt(L3/(N*DT)) when the output is ultra-sparse.
type Sparse struct {
	t *hashtable.FloatTable
}

// NewSparse returns a sparse accumulator sized for about hint nonzeros.
func NewSparse(hint int) *Sparse {
	return &Sparse{t: hashtable.NewFloatTable(hint)}
}

func packLR(l, r uint32) uint64 { return uint64(l)<<32 | uint64(r) }

// Upsert adds v at (l, r).
//
//fastcc:hotpath
func (s *Sparse) Upsert(l, r uint32, v float64) {
	s.t.Upsert(packLR(l, r), v)
}

// ScatterMatches accumulates every match's outer product into the table,
// matches in slice order and each match in L-major order — the sparse
// microkernel's inner loop. The key merge stays amortized in the backing
// FloatTable (linear probing, grow at 85% load); what the specialization
// removes is the interface/method hops per multiply-accumulate, with the
// packed-key construction inline and the call boundary amortized over the
// whole match batch.
//
//fastcc:hotpath
func (s *Sparse) ScatterMatches(ms []Match) {
	t := s.t
	for _, m := range ms {
		for _, lp := range m.L {
			lv := lp.Val
			hi := uint64(lp.Idx) << 32
			for _, rp := range m.R {
				t.Upsert(hi|uint64(rp.Idx), lv*rp.Val)
			}
		}
	}
}

// Len returns the number of distinct touched positions.
func (s *Sparse) Len() int { return s.t.Len() }

// DrainBatch moves entries into keys and vals in slot order, each as its
// packed key l<<32 | r and its value, and returns how many it moved; see
// hashtable.FloatTable.DrainBatch. A return of 0 means the tile is empty.
//
//fastcc:hotpath
func (s *Sparse) DrainBatch(keys []uint64, vals []float64) int { return s.t.DrainBatch(keys, vals) }

// Drain visits every entry in slot order, through DrainBatch, and leaves
// the table empty and reusable.
func (s *Sparse) Drain(fn func(l, r uint32, v float64)) { drainBatches(s.DrainBatch, fn) }

// Reset empties without draining.
func (s *Sparse) Reset() { s.t.Reset() }

// Grows reports hash-table doublings (resize-cost metric).
func (s *Sparse) Grows() int { return s.t.Grows() }

// SparseRobin is a sparse accumulator backed by a Robin Hood-probing table
// (internal/hashtable.RobinTable) — the "more advanced hashing techniques"
// direction of Feng et al. cited in paper Section 7.2, kept as an ablation
// alternative to the linear-probing Sparse.
type SparseRobin struct {
	t *hashtable.RobinTable
}

// NewSparseRobin returns a Robin Hood sparse accumulator.
func NewSparseRobin(hint int) *SparseRobin {
	return &SparseRobin{t: hashtable.NewRobinTable(hint)}
}

// Upsert adds v at (l, r).
//
//fastcc:hotpath
func (s *SparseRobin) Upsert(l, r uint32, v float64) {
	s.t.Upsert(packLR(l, r), v)
}

// Len returns the number of distinct touched positions.
func (s *SparseRobin) Len() int { return s.t.Len() }

// Drain visits all entries then resets the table for reuse.
func (s *SparseRobin) Drain(fn func(l, r uint32, v float64)) {
	s.t.ForEach(func(k uint64, v float64) {
		fn(uint32(k>>32), uint32(k), v)
	})
	s.t.Reset()
}

// Reset empties without draining.
func (s *SparseRobin) Reset() { s.t.Reset() }

var (
	_ Accumulator = (*Dense)(nil)
	_ Accumulator = (*Sparse)(nil)
	_ Accumulator = (*SparseRobin)(nil)
)
