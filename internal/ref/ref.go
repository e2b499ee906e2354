// Package ref provides naive, obviously-correct reference implementations
// of sparse tensor contraction used as test oracles for FaSTCC and all
// baselines. Everything here favors clarity over speed.
package ref

import (
	"fastcc/internal/coo"
)

// ContractMatrix computes O[l,r] = Σ_c L[l,c]·R[c,r] with Go maps.
// The result maps packed keys to values via the Pairs type.
func ContractMatrix(l, r *coo.Matrix) map[[2]uint64]float64 {
	// Group the right operand by contraction index.
	rByC := map[uint64][]int{}
	for k := range r.Val {
		rByC[r.Ctr[k]] = append(rByC[r.Ctr[k]], k)
	}
	out := map[[2]uint64]float64{}
	for k := range l.Val {
		c := l.Ctr[k]
		for _, j := range rByC[c] {
			out[[2]uint64{l.Ext[k], r.Ext[j]}] += l.Val[k] * r.Val[j]
		}
	}
	return out
}

// Contract contracts two COO tensors per spec and returns the output tensor
// (sorted, deduplicated, exact zeros kept out).
func Contract(l, r *coo.Tensor, spec coo.Spec) (*coo.Tensor, error) {
	if err := spec.Validate(l, r); err != nil {
		return nil, err
	}
	extL := coo.ExternalModes(l.Order(), spec.CtrLeft)
	extR := coo.ExternalModes(r.Order(), spec.CtrRight)
	lm, err := l.Matrixize(extL, spec.CtrLeft)
	if err != nil {
		return nil, err
	}
	rm, err := r.Matrixize(extR, spec.CtrRight)
	if err != nil {
		return nil, err
	}
	prod := ContractMatrix(lm, rm)
	lDims := make([]uint64, len(extL))
	for i, m := range extL {
		lDims[i] = l.Dims[m]
	}
	rDims := make([]uint64, len(extR))
	for i, m := range extR {
		rDims[i] = r.Dims[m]
	}
	// Element-wise div/mod de-linearization, independent of the splitter
	// the engine's output path uses.
	out := coo.New(append(append([]uint64(nil), lDims...), rDims...), len(prod))
	coords := make([]uint64, len(lDims)+len(rDims))
	for k, v := range prod {
		if v == 0 {
			continue
		}
		coo.Delinearize(k[0], lDims, coords[:len(lDims)])
		coo.Delinearize(k[1], rDims, coords[len(lDims):])
		out.Append(coords, v)
	}
	out.Dedup()
	return out, nil
}

// TriplesToMatrixTensor converts matrixized (l, r, v) triples into a 2-mode
// COO tensor for comparison against reference maps.
func TriplesToMatrixTensor(ls, rs []uint64, vs []float64, lDim, rDim uint64) *coo.Tensor {
	t := coo.New([]uint64{lDim, rDim}, len(vs))
	t.Coords[0] = append(t.Coords[0], ls...)
	t.Coords[1] = append(t.Coords[1], rs...)
	t.Vals = append(t.Vals, vs...)
	return t
}

// MapToMatrixTensor converts a reference result map to a 2-mode COO tensor.
func MapToMatrixTensor(m map[[2]uint64]float64, lDim, rDim uint64) *coo.Tensor {
	t := coo.New([]uint64{lDim, rDim}, len(m))
	for k, v := range m {
		if v == 0 {
			continue
		}
		t.Append([]uint64{k[0], k[1]}, v)
	}
	t.Sort()
	return t
}
