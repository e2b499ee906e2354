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
//
// A tile whose rows span whole bitmask words (TR >= RunCols) also keeps a
// run mask for ScatterRuns: one row's TR bits, and the list of its nonzero
// words. Both are all zero between calls.
type Dense struct {
	logTR    uint
	maskR    uint32
	vals     []float64
	apos     []uint32
	bm       []uint64
	run      []uint64
	runWords []int
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
	d := &Dense{
		logTR: uint(bits.TrailingZeros32(tr)),
		maskR: tr - 1,
		vals:  make([]float64, size),
		apos:  make([]uint32, 0, 1024),
		bm:    make([]uint64, (size+63)/64),
	}
	if tr >= RunCols {
		d.run = make([]uint64, tr/64)
		d.runWords = make([]int, 0, tr/64)
	}
	return d
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

// RunMin is the shortest inner run ScatterRuns sends through its run mask;
// a shorter one takes the per-update loop. BenchmarkDenseScatter measures
// both scatters on both sides of it (DESIGN.md, "Tile microkernels").
const RunMin = 16

// RunCols is the narrowest tile row, one bitmask word, that ScatterRuns
// runs along: only a tile with TR >= RunCols keeps a run mask, and
// ScatterRuns hands every match of a narrower tile to ScatterMatches.
const RunCols = 64

// ScatterRuns accumulates the same products into the same cells, in the
// same order, as ScatterMatches, so every cell's bits agree; only the order
// of first touches in apos, and so the drain order, differs. A match whose
// inner run (R) is shorter than RunMin, and every match of a tile narrower
// than RunCols, goes to ScatterMatches' per-update loop; consecutive short
// matches go in one call. A longer one takes scatterRun.
//
//fastcc:hotpath
func (d *Dense) ScatterRuns(ms []Match) {
	if d.run == nil {
		d.ScatterMatches(ms)
		return
	}
	for len(ms) > 0 {
		short := 0
		for short < len(ms) && len(ms[short].R) < RunMin {
			short++
		}
		if short == 0 {
			d.scatterRun(ms[0])
			short = 1
		} else {
			d.ScatterMatches(ms[:short])
		}
		ms = ms[short:]
	}
}

// scatterRun scatters one match, trading the per-update touched-bit test
// for one per mask word: the inner run's columns are gathered into the run
// mask once, each outer pair ORs the mask into its row's bitmask words and
// appends the newly set bits to apos, and the multiply-add over the run is
// then branch-free. The mask is cleared before it returns.
//
//fastcc:hotpath
func (d *Dense) scatterRun(m Match) {
	vals, bm, logTR, maskR := d.vals, d.bm, d.logTR, d.maskR
	apos, run, words := d.apos, d.run, d.runWords
	for _, rp := range m.R {
		w := int(rp.Idx >> 6)
		if run[w] == 0 {
			words = append(words, w) //fastcc:allow hotalloc -- bounded: at most TR/64 distinct words, the capacity NewDense gives it
		}
		run[w] |= 1 << (rp.Idx & 63)
	}
	for _, lp := range m.L {
		row := int(lp.Idx) << logTR
		rowWord := row >> 6
		for _, w := range words {
			fresh := run[w] &^ bm[rowWord+w]
			if fresh == 0 {
				continue
			}
			bm[rowWord+w] |= fresh
			base := uint32(rowWord+w) << 6
			for ; fresh != 0; fresh &= fresh - 1 {
				apos = append(apos, base|uint32(bits.TrailingZeros64(fresh))) //fastcc:allow hotalloc -- amortized: apos tops out at tile nnz and is reused across tasks
			}
		}
		lv := lp.Val
		rowVals := vals[row : row+int(maskR)+1]
		_ = rowVals[maskR] // lets the compiler drop the bounds check below
		for _, rp := range m.R {
			rowVals[rp.Idx&maskR] += lv * rp.Val
		}
	}
	for _, w := range words {
		run[w] = 0
	}
	d.apos, d.runWords = apos, words[:0]
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
