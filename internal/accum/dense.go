package accum

import (
	"math/bits"

	"fastcc/internal/hashtable"
)

// Dense is the dense tile accumulator of paper Section 4.2. A tile of
// TL × TR positions is stored as:
//
//	vals — TL*TR float64 buffer of accumulated values ("nnz" in the paper)
//	bm   — bitmask with one bit per position
//	sum  — summary bitmask with one bit per bm word
//
// An update tests-and-sets bit p; a first touch also sets the bit of p's bm
// word in sum. The paper walks a list of active positions in first-touch
// order instead; the two-level bitmap drains the same cells in ascending
// position, O(touched words + TL*TR/4096), and clears the touched state as
// it goes, so the tile is immediately reusable (constant-time updates,
// random accesses into dense arrays only).
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
	bm       []uint64
	sum      []uint64
	next     int // the sum word DrainBatch resumes at
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
	words := (size + 63) / 64
	d := &Dense{
		logTR: uint(bits.TrailingZeros32(tr)),
		maskR: tr - 1,
		vals:  make([]float64, size),
		bm:    make([]uint64, words),
		sum:   make([]uint64, (words+63)/64),
	}
	if tr >= RunCols {
		d.run = make([]uint64, tr/64)
		d.runWords = make([]int, 0, tr/64)
	}
	return d
}

// Upsert adds v at (l, r): test-and-set bm[p], setting the sum bit of p's
// word when newly set; accumulate into vals[p].
//
//fastcc:hotpath
func (d *Dense) Upsert(l, r uint32, v float64) {
	p := l<<d.logTR | r
	w, b := p>>6, uint64(1)<<(p&63)
	if d.bm[w]&b == 0 {
		d.bm[w] |= b
		d.sum[w>>6] |= 1 << (w & 63)
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
// is ScatterRuns' per-update loop: against per-update Upsert calls it
// hoists the tile's field loads out of the whole batch, keeps the row base
// l<<logTR in a register across each inner sweep, and exposes the
// flat-index scatter to the compiler without a call boundary per
// multiply-accumulate.
//
//fastcc:hotpath
func (d *Dense) ScatterMatches(ms []Match) {
	vals, bm, sum, logTR := d.vals, d.bm, d.sum, d.logTR
	for _, m := range ms {
		for _, lp := range m.L {
			lv := lp.Val
			row := lp.Idx << logTR
			for _, rp := range m.R {
				p := row | rp.Idx
				w, b := p>>6, uint64(1)<<(p&63)
				if bm[w]&b == 0 {
					bm[w] |= b
					sum[w>>6] |= 1 << (w & 63)
				}
				vals[p] += lv * rp.Val
			}
		}
	}
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
// same order, as ScatterMatches, so every cell's bits, and the drain, agree.
// A match whose inner run (R) is shorter than RunMin, and every match of a
// tile narrower than RunCols, goes to ScatterMatches' per-update loop;
// consecutive short matches go in one call. A longer one takes scatterRun.
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
// sets the sum bit of each word that gained a bit, and the multiply-add
// over the run is then branch-free. The mask is cleared before it returns.
//
//fastcc:hotpath
func (d *Dense) scatterRun(m Match) {
	vals, bm, sum, logTR, maskR := d.vals, d.bm, d.sum, d.logTR, d.maskR
	run, words := d.run, d.runWords
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
			sum[(rowWord+w)>>6] |= 1 << ((rowWord + w) & 63)
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
	d.runWords = words[:0]
}

// Len returns the number of touched positions, by popcount over the
// touched words.
func (d *Dense) Len() int {
	n := 0
	for si, s := range d.sum {
		for ; s != 0; s &= s - 1 {
			n += bits.OnesCount64(d.bm[si<<6|bits.TrailingZeros64(s)])
		}
	}
	return n
}

// DrainBatch moves touched cells into keys and vals in ascending position,
// each as its packed key l<<32 | r and its value, zeroing the cell and
// clearing its touched bits, and returns how many it moved. It moves whole
// bitmask words only, so keys and vals must hold at least 64 cells; it
// stops at the first word that does not fit and the next call resumes
// there. A return of 0 means the tile is empty. No update may come between
// the first call and the one that returns 0.
//
//fastcc:hotpath
func (d *Dense) DrainBatch(keys []uint64, vals []float64) int {
	bm, sum, cells, logTR, maskR := d.bm, d.sum, d.vals, d.logTR, d.maskR
	vals = vals[:len(keys)]
	n := 0
	for si := d.next; si < len(sum); si++ {
		for s := sum[si]; s != 0; s &= s - 1 {
			w := si<<6 | bits.TrailingZeros64(s)
			word := bm[w]
			if n+bits.OnesCount64(word) > len(keys) {
				sum[si], d.next = s, si
				return n
			}
			base := uint32(w) << 6
			for ; word != 0; word &= word - 1 {
				p := base | uint32(bits.TrailingZeros64(word))
				keys[n], vals[n] = uint64(p>>logTR)<<32|uint64(p&maskR), cells[p]
				cells[p] = 0
				n++
			}
			bm[w] = 0
		}
		sum[si] = 0
	}
	d.next = 0
	return n
}

// Drain visits every touched position in ascending order, through
// DrainBatch, and leaves the tile empty.
func (d *Dense) Drain(fn func(l, r uint32, v float64)) { drainBatches(d.DrainBatch, fn) }

// Reset clears without visiting values: it drains into a scratch batch.
func (d *Dense) Reset() {
	var keys [64]uint64
	var vals [64]float64
	for d.DrainBatch(keys[:], vals[:]) > 0 {
	}
}
