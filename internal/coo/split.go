package coo

import (
	"fmt"
	"math/bits"
)

// divisor divides by a runtime-invariant d with one 64×64→128-bit multiply
// and a shift instead of a hardware divide (Granlund & Montgomery, "Division
// by Invariant Integers using Multiplication", PLDI 1994, in the unsigned
// 64-bit form libdivide uses). The quotient is exact for every uint64
// dividend.
type divisor struct {
	magic uint64 // 0 for a power of two: the quotient is a plain shift
	shift uint
	// add marks a 65-bit magic whose implicit top bit is restored by an
	// add-and-halve step before the shift.
	add bool
}

// newDivisor precomputes the multiplier for d; d must be nonzero.
func newDivisor(d uint64) divisor {
	if d == 0 {
		panic("coo: divisor of zero")
	}
	k := uint(63 - bits.LeadingZeros64(d)) // floor(log2 d)
	if d&(d-1) == 0 {
		return divisor{shift: k}
	}
	// m = floor(2^(64+k) / d); 2^k < d, so the 128-by-64 division cannot
	// overflow.
	m, rem := bits.Div64(1<<k, 0, d)
	dv := divisor{shift: k}
	if d-rem >= 1<<k {
		// 2^(64+k) is not precise enough: double to 2^(65+k) and keep the
		// magic's 65th bit implicit.
		m += m
		if twice := rem + rem; twice >= d || twice < rem {
			m++
		}
		dv.add = true
	}
	dv.magic = m + 1
	return dv
}

// div returns x / d.
func (dv divisor) div(x uint64) uint64 {
	if dv.magic == 0 {
		return x >> dv.shift
	}
	q, _ := bits.Mul64(dv.magic, x)
	if dv.add {
		q += (x - q) >> 1
	}
	return q >> dv.shift
}

// Splitter delinearizes row-major indices over fixed mode extents, the
// inverse of Linearize applied to whole index columns. It is built once
// per extent list and peels modes from last to first with one reciprocal
// multiply each, taking the remainder as idx − q·d. Mode 0 keeps the final
// quotient, so a one-mode extent list divides nothing.
type Splitter struct {
	dims []uint64
	divs []divisor // divs[m] divides by dims[m]; divs[0] is never used
}

// NewSplitter returns the splitter for dims. Like LinearSize it rejects a
// zero extent and an extent product that overflows uint64.
func NewSplitter(dims []uint64) (*Splitter, error) {
	if _, err := LinearSize(dims); err != nil {
		return nil, err
	}
	s := &Splitter{dims: append([]uint64(nil), dims...), divs: make([]divisor, len(dims))}
	for m := 1; m < len(dims); m++ {
		s.divs[m] = newDivisor(dims[m])
	}
	return s, nil
}

// Split writes the mode-m coordinate of idxs[i] to dst[m][at+i], for every
// mode m. idxs may be dst[0][at:at+len(idxs)] itself, which then serves as
// the quotient column in place. With no modes Split writes nothing: the
// only valid index is 0.
//
// An index at or beyond the extent product leaves an out-of-range mode-0
// coordinate; the fastcc_checked build panics on it.
//
//fastcc:hotpath
func (s *Splitter) Split(dst [][]uint64, at int, idxs []uint64) {
	if len(s.dims) == 0 {
		return
	}
	top := dst[0][at : at+len(idxs)]
	cur := idxs
	for m := len(s.dims) - 1; m > 0; m-- {
		dv, d := s.divs[m], s.dims[m]
		cs := dst[m][at : at+len(idxs)]
		for i, x := range cur {
			q := dv.div(x)
			cs[i] = x - q*d
			top[i] = q
		}
		cur = top
	}
	if len(s.dims) == 1 {
		copy(top, idxs)
	}
	if Checked {
		s.checkTop(top)
	}
}

// checkTop panics when a mode-0 quotient is out of range, i.e. when the
// index it came from was at or beyond the extent product.
func (s *Splitter) checkTop(top []uint64) {
	for i, q := range top {
		if q >= s.dims[0] {
			panic(fmt.Sprintf("coo: Split: element %d has mode-0 coordinate %d, extent %d: linear index out of range for dims %v",
				i, q, s.dims[0], s.dims))
		}
	}
}
