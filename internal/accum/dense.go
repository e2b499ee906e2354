package accum

import (
	"math/bits"

	"fastcc/internal/hashtable"
)

// Dense is the dense tile accumulator of paper Section 4.2. A tile of
// TL × TR positions is stored as:
//
//	vals — TL*TR float64 buffer of accumulated values ("nnz" in the paper)
//	apos — append-only list of active (first-touched) positions
//	bm   — bitmask with one bit per position
//
// An update tests-and-sets bit p; first touches append p to apos. The drain
// iterates apos only — O(nnz of the tile), not O(TL*TR) — and clears the
// touched state so the tile is immediately reusable (constant-time updates,
// three random accesses into dense arrays, exactly as the paper describes).
//
// TR must be a power of two so the packed position p = l<<log2(TR) | r can
// be split back with shifts during the drain (the paper rounds tile sizes to
// powers of two for this bitmask arithmetic).
type Dense struct {
	logTR uint
	maskR uint32
	vals  []float64
	apos  []uint32
	bm    []uint64
}

// NewDense returns a dense accumulator for TL × TR tiles. TR must be a
// power of two; TL*TR must fit in uint32.
func NewDense(tl, tr uint32) *Dense {
	if tr == 0 || tr&(tr-1) != 0 {
		panic("accum: dense tile TR must be a power of two")
	}
	size := uint64(tl) * uint64(tr)
	if size > 1<<32 {
		panic("accum: dense tile too large")
	}
	return &Dense{
		logTR: uint(bits.TrailingZeros32(tr)),
		maskR: tr - 1,
		vals:  make([]float64, size),
		apos:  make([]uint32, 0, 1024),
		bm:    make([]uint64, (size+63)/64),
	}
}

// Upsert adds v at (l, r): test-and-set bm[p]; append p to apos when newly
// set; accumulate into vals[p].
//
//fastcc:hotpath
func (d *Dense) Upsert(l, r uint32, v float64) {
	p := l<<d.logTR | r
	w, b := p>>6, uint64(1)<<(p&63)
	if d.bm[w]&b == 0 {
		d.bm[w] |= b
		d.apos = append(d.apos, p) //fastcc:allow hotalloc -- amortized: apos tops out at tile nnz and is reused across tasks
	}
	d.vals[p] += v
}

// Match is one co-iteration match: the left and right pair runs that share
// a contraction key, contracted as the outer product L × R. Kernels batch
// matches and scatter a whole batch per call, so the call boundary and the
// accumulator field reloads amortize over the batch instead of recurring
// per matched key.
type Match struct {
	L, R []hashtable.Pair
}

// ScatterMatches accumulates every match's outer product into the tile:
// vals[l<<logTR|r] += lv·rv for each pair combination, matches in slice
// order and each match in L-major order — the identical accumulation order
// to the equivalent Upsert loop, so results are bit-for-bit the same. This
// is the dense microkernel's inner loop: against per-update Upsert calls it
// hoists the tile's field loads out of the whole batch, keeps the row base
// l<<logTR in a register across each inner sweep, and exposes the
// flat-index scatter to the compiler without a call boundary per
// multiply-accumulate.
//
//fastcc:hotpath
func (d *Dense) ScatterMatches(ms []Match) {
	vals, bm, logTR := d.vals, d.bm, d.logTR
	apos := d.apos
	for _, m := range ms {
		for _, lp := range m.L {
			lv := lp.Val
			row := lp.Idx << logTR
			for _, rp := range m.R {
				p := row | rp.Idx
				w, b := p>>6, uint64(1)<<(p&63)
				if bm[w]&b == 0 {
					bm[w] |= b
					apos = append(apos, p) //fastcc:allow hotalloc -- amortized: apos tops out at tile nnz and is reused across tasks
				}
				vals[p] += lv * rp.Val
			}
		}
	}
	d.apos = apos
}

// Len returns the number of active positions.
func (d *Dense) Len() int { return len(d.apos) }

// Drain visits active positions via apos (nnz-proportional, per Section
// 4.2's "parallel drain"), then resets the touched state in the same pass.
//
//fastcc:hotpath
func (d *Dense) Drain(fn func(l, r uint32, v float64)) {
	for _, p := range d.apos {
		fn(p>>d.logTR, p&d.maskR, d.vals[p])
		d.vals[p] = 0
		d.bm[p>>6] &^= 1 << (p & 63)
	}
	d.apos = d.apos[:0]
}

// Reset clears without visiting values.
func (d *Dense) Reset() {
	for _, p := range d.apos {
		d.vals[p] = 0
		d.bm[p>>6] &^= 1 << (p & 63)
	}
	d.apos = d.apos[:0]
}
