package coo

import "fmt"

// Matrix is a matrixized view of one operand of a contraction: every nonzero
// is described by a linearized external index Ext, a linearized contraction
// index Ctr, and its value. This is the O[l,r] = Σ_c L[l,c]·R[c,r] form the
// paper optimizes (Section 2.1); FaSTCC and all baselines consume it.
type Matrix struct {
	Ext []uint64 // linearized external index per nonzero (l for L, r for R)
	Ctr []uint64 // linearized contraction index per nonzero (c)
	Val []float64

	ExtDim uint64 // extent of the linearized external index space
	CtrDim uint64 // extent of the linearized contraction index space

	ck checkedMatrix // content stamp; zero-sized unless built with fastcc_checked
}

// NNZ returns the number of nonzeros in the view.
func (m *Matrix) NNZ() int { return len(m.Val) }

// Density returns nnz / (ExtDim * CtrDim).
func (m *Matrix) Density() float64 {
	if m.ExtDim == 0 || m.CtrDim == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(m.ExtDim) * float64(m.CtrDim))
}

// Spec names the contracted modes of a binary contraction: mode
// CtrLeft[k] of the left operand is summed against mode CtrRight[k] of the
// right operand. The remaining (external) modes keep their original order;
// the output's modes are the left externals followed by the right externals.
type Spec struct {
	CtrLeft  []int
	CtrRight []int
}

// Validate checks the spec against the two operand tensors. Structural
// problems with the spec itself unwrap to ErrBadSpec; a contracted-extent
// mismatch between the operands is reported as a *ShapeError (which unwraps
// to ErrShape).
func (s Spec) Validate(l, r *Tensor) error {
	if err := s.ValidateModes(l.Order(), r.Order()); err != nil {
		return err
	}
	for k := range s.CtrLeft {
		dl, dr := l.Dims[s.CtrLeft[k]], r.Dims[s.CtrRight[k]]
		if dl != dr {
			return &ShapeError{
				LeftMode: s.CtrLeft[k], LeftExtent: dl,
				RightMode: s.CtrRight[k], RightExtent: dr,
			}
		}
	}
	return nil
}

// ValidateModes checks the spec's structure against the operand orders
// alone, without extents — the part a prepared operand can check before its
// partner is known. Failures unwrap to ErrBadSpec.
func (s Spec) ValidateModes(lOrder, rOrder int) error {
	if len(s.CtrLeft) != len(s.CtrRight) {
		return fmt.Errorf("%w: %d left vs %d right contraction modes", ErrBadSpec, len(s.CtrLeft), len(s.CtrRight))
	}
	if len(s.CtrLeft) == 0 {
		return fmt.Errorf("%w: contraction must sum over at least one mode", ErrBadSpec)
	}
	if len(s.CtrLeft) > lOrder || len(s.CtrRight) > rOrder {
		return fmt.Errorf("%w: more contraction modes than tensor modes", ErrBadSpec)
	}
	if err := checkModeSet(s.CtrLeft, lOrder); err != nil {
		return fmt.Errorf("left operand: %w", err)
	}
	if err := checkModeSet(s.CtrRight, rOrder); err != nil {
		return fmt.Errorf("right operand: %w", err)
	}
	return nil
}

func checkModeSet(modes []int, order int) error {
	seen := make(map[int]bool, len(modes))
	for _, m := range modes {
		if m < 0 || m >= order {
			return fmt.Errorf("%w: mode %d out of range [0,%d)", ErrBadSpec, m, order)
		}
		if seen[m] {
			return fmt.Errorf("%w: mode %d contracted twice", ErrBadSpec, m)
		}
		seen[m] = true
	}
	return nil
}

// ExternalModes returns the modes of a tensor of the given order that are
// not in ctr, preserving their original order.
func ExternalModes(order int, ctr []int) []int {
	isCtr := make([]bool, order)
	for _, m := range ctr {
		isCtr[m] = true
	}
	ext := make([]int, 0, order-len(ctr))
	for m := 0; m < order; m++ {
		if !isCtr[m] {
			ext = append(ext, m)
		}
	}
	return ext
}

// Matrixize linearizes a tensor into a Matrix view: extModes form the
// external index and ctrModes the contraction index. This is the paper's
// pre-processing step; it is accounted for in measured contraction time.
func (t *Tensor) Matrixize(extModes, ctrModes []int) (*Matrix, error) {
	extDims := subDims(t.Dims, extModes)
	ctrDims := subDims(t.Dims, ctrModes)
	extSize, err := LinearSize(extDims)
	if err != nil {
		return nil, err
	}
	ctrSize, err := LinearSize(ctrDims)
	if err != nil {
		return nil, err
	}
	ext, err := t.LinearizeModes(extModes)
	if err != nil {
		return nil, err
	}
	ctr, err := t.LinearizeModes(ctrModes)
	if err != nil {
		return nil, err
	}
	return &Matrix{
		Ext:    ext,
		Ctr:    ctr,
		Val:    t.Vals, // shared: views do not own values
		ExtDim: extSize,
		CtrDim: ctrSize,
	}, nil
}

// FromPairs assembles an output tensor from linearized (l, r) output pairs,
// de-linearizing l over the left external dims and r over the right external
// dims (the paper's post-processing step). The element order of the result
// follows the input order; callers canonicalize via Sort/Dedup if needed.
func FromPairs(ls, rs []uint64, vals []float64, lDims, rDims []uint64) (*Tensor, error) {
	return FromPairsP(ls, rs, vals, lDims, rDims, 1)
}
