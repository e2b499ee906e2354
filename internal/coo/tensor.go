// Package coo implements the COOrdinate (COO) sparse tensor representation
// used as the input and output format of FaSTCC, together with the
// linearization machinery that turns an N-mode contraction into the
// matrixized form O[l,r] = sum_c L[l,c]*R[c,r] (paper Section 2.1).
//
// Coordinates are stored structure-of-arrays: Coords[m][i] is the coordinate
// of nonzero i along mode m. This layout keeps per-mode scans (linearization,
// histogramming, sorting keys) sequential in memory.
package coo

import (
	"errors"
	"fmt"
	"math"
)

// Tensor is an N-mode sparse tensor in COO format.
//
// Invariants (checked by Validate):
//   - len(Coords) == len(Dims) (one coordinate array per mode)
//   - all coordinate arrays and Vals have equal length
//   - every coordinate is < the corresponding mode extent
//
// Duplicate coordinates are permitted (they denote pending accumulation)
// until Dedup is called; most consumers require deduplicated input.
type Tensor struct {
	// Dims holds the extent of each mode.
	Dims []uint64
	// Coords[m][i] is the mode-m coordinate of the i-th stored element.
	Coords [][]uint64
	// Vals[i] is the numeric value of the i-th stored element.
	Vals []float64
}

// ErrShape reports a structural problem with a tensor or a contraction spec.
var ErrShape = errors.New("coo: shape error")

// ErrBadSpec reports a contraction spec that is malformed independently of
// the operands' extents: mismatched or empty mode lists, out-of-range modes,
// or a mode contracted twice. It unwraps from every such Validate failure so
// callers can distinguish "fix the spec" from "fix the data" (ErrShape).
var ErrBadSpec = errors.New("coo: bad contraction spec")

// ShapeError reports a contracted-extent mismatch between two operands,
// carrying the mode/extent detail so callers can diagnose programmatically
// via errors.As. It unwraps to ErrShape.
type ShapeError struct {
	LeftMode, RightMode     int
	LeftExtent, RightExtent uint64
}

func (e *ShapeError) Error() string {
	return fmt.Sprintf("%v: contracted extents differ (left mode %d extent %d, right mode %d extent %d)",
		ErrShape, e.LeftMode, e.LeftExtent, e.RightMode, e.RightExtent)
}

// Unwrap makes errors.Is(err, ErrShape) hold for extent mismatches.
func (e *ShapeError) Unwrap() error { return ErrShape }

// New returns an empty tensor with the given mode extents and capacity hint.
func New(dims []uint64, capHint int) *Tensor {
	t := &Tensor{
		Dims:   append([]uint64(nil), dims...),
		Coords: make([][]uint64, len(dims)),
		Vals:   make([]float64, 0, capHint),
	}
	for m := range t.Coords {
		t.Coords[m] = make([]uint64, 0, capHint)
	}
	return t
}

// Alloc returns a tensor of n elements, every coordinate and value zero,
// for callers that then fill each slot: each coordinate array and Vals is
// allocated once, at length n.
func Alloc(dims []uint64, n int) *Tensor {
	t := &Tensor{
		Dims:   append([]uint64(nil), dims...),
		Coords: make([][]uint64, len(dims)),
		Vals:   make([]float64, n),
	}
	for m := range t.Coords {
		t.Coords[m] = make([]uint64, n)
	}
	return t
}

// Order returns the number of modes.
func (t *Tensor) Order() int { return len(t.Dims) }

// NNZ returns the number of stored elements.
func (t *Tensor) NNZ() int { return len(t.Vals) }

// Size returns the total number of positions in the dense index space as a
// float64 (the product of extents can overflow uint64 for large tensors).
func (t *Tensor) Size() float64 {
	s := 1.0
	for _, d := range t.Dims {
		s *= float64(d)
	}
	return s
}

// Density returns NNZ divided by the dense index-space size.
func (t *Tensor) Density() float64 {
	s := t.Size()
	if s == 0 {
		return 0
	}
	return float64(t.NNZ()) / s
}

// Append adds one element. coords must have one entry per mode; it is copied.
func (t *Tensor) Append(coords []uint64, v float64) {
	for m := range t.Coords {
		t.Coords[m] = append(t.Coords[m], coords[m])
	}
	t.Vals = append(t.Vals, v)
}

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{
		Dims:   append([]uint64(nil), t.Dims...),
		Coords: make([][]uint64, len(t.Coords)),
		Vals:   append([]float64(nil), t.Vals...),
	}
	for m := range t.Coords {
		c.Coords[m] = append([]uint64(nil), t.Coords[m]...)
	}
	return c
}

// Validate checks the structural invariants listed on Tensor.
func (t *Tensor) Validate() error {
	if len(t.Coords) != len(t.Dims) {
		return fmt.Errorf("%w: %d coordinate arrays for %d modes", ErrShape, len(t.Coords), len(t.Dims))
	}
	n := len(t.Vals)
	for m, cs := range t.Coords {
		if len(cs) != n {
			return fmt.Errorf("%w: mode %d has %d coords, want %d", ErrShape, m, len(cs), n)
		}
		for i, c := range cs {
			if c >= t.Dims[m] {
				return fmt.Errorf("%w: element %d coord %d out of range for mode %d (extent %d)", ErrShape, i, c, m, t.Dims[m])
			}
		}
	}
	for i, v := range t.Vals {
		if math.IsNaN(v) {
			return fmt.Errorf("%w: element %d is NaN", ErrShape, i)
		}
	}
	return nil
}

// At returns the sum of values stored at the given coordinates. It is a
// linear scan intended for tests and small tensors only.
func (t *Tensor) At(coords []uint64) float64 {
	sum := 0.0
outer:
	for i := range t.Vals {
		for m := range t.Coords {
			if t.Coords[m][i] != coords[m] {
				continue outer
			}
		}
		sum += t.Vals[i]
	}
	return sum
}

// CoordsOf copies the coordinates of element i into dst and returns it.
func (t *Tensor) CoordsOf(i int, dst []uint64) []uint64 {
	dst = dst[:0]
	for m := range t.Coords {
		dst = append(dst, t.Coords[m][i])
	}
	return dst
}

// DropZeros removes elements whose value is exactly zero, in place.
func (t *Tensor) DropZeros() {
	w := 0
	for i, v := range t.Vals {
		if v == 0 {
			continue
		}
		for m := range t.Coords {
			t.Coords[m][w] = t.Coords[m][i]
		}
		t.Vals[w] = v
		w++
	}
	for m := range t.Coords {
		t.Coords[m] = t.Coords[m][:w]
	}
	t.Vals = t.Vals[:w]
}

// String summarizes the tensor without dumping elements.
func (t *Tensor) String() string {
	return fmt.Sprintf("coo.Tensor{order=%d dims=%v nnz=%d}", t.Order(), t.Dims, t.NNZ())
}
