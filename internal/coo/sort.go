package coo

import (
	"math"
	"sort"

	"fastcc/internal/radix"
)

// lessAt compares elements i and j lexicographically over modes 0..order-1.
func (t *Tensor) lessAt(i, j int) bool {
	for m := range t.Coords {
		ci, cj := t.Coords[m][i], t.Coords[m][j]
		if ci != cj {
			return ci < cj
		}
	}
	return false
}

// equalAt reports whether elements i and j have identical coordinates.
func (t *Tensor) equalAt(i, j int) bool {
	for m := range t.Coords {
		if t.Coords[m][i] != t.Coords[m][j] {
			return false
		}
	}
	return true
}

// Sort orders elements lexicographically by coordinate tuple (mode 0
// outermost). When the whole index space linearizes into a uint64 the sort
// uses precomputed keys; otherwise it falls back to tuple comparison.
func (t *Tensor) Sort() {
	n := t.NNZ()
	if n <= 1 {
		return
	}
	if size, err := LinearSize(t.Dims); err == nil && size > 0 {
		modes := make([]int, t.Order())
		for m := range modes {
			modes[m] = m
		}
		keys, kerr := t.LinearizeModes(modes)
		if kerr == nil {
			t.sortByKeys(keys)
			return
		}
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return t.lessAt(perm[a], perm[b]) })
	applyPerm(t, perm)
}

// sortByKeys stably sorts elements by the given per-element keys using the
// parallel radix sort (paper-scale tensors have tens of millions of
// nonzeros, and canonicalization is sort-dominated).
func (t *Tensor) sortByKeys(keys []uint64) {
	n := len(keys)
	if n > 1<<32 {
		// Permutation payload is uint32; fall back for gigantic tensors.
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		sort.Slice(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
		applyPerm(t, perm)
		return
	}
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	radix.SortWithPerm(keys, perm, 0)
	applyPerm(t, perm)
}

// applyPerm reorders all element arrays of t so that new position p holds
// old element perm[p]: a sort.Slice permutation or the radix sort's
// uint32 one.
func applyPerm[P int | uint32](t *Tensor, perm []P) {
	n := len(perm)
	tmpU := make([]uint64, n)
	for m := range t.Coords {
		src := t.Coords[m]
		for p, i := range perm {
			tmpU[p] = src[i]
		}
		copy(src, tmpU)
	}
	tmpV := make([]float64, n)
	for p, i := range perm {
		tmpV[p] = t.Vals[i]
	}
	copy(t.Vals, tmpV)
}

// Dedup sorts the tensor and then sums values of duplicate coordinates,
// compacting in place. The result has strictly increasing coordinate tuples.
func (t *Tensor) Dedup() {
	t.Sort()
	n := t.NNZ()
	if n <= 1 {
		return
	}
	w := 0
	for i := 1; i < n; i++ {
		if t.equalAt(w, i) {
			t.Vals[w] += t.Vals[i]
			continue
		}
		w++
		if w != i {
			for m := range t.Coords {
				t.Coords[m][w] = t.Coords[m][i]
			}
			t.Vals[w] = t.Vals[i]
		}
	}
	w++
	for m := range t.Coords {
		t.Coords[m] = t.Coords[m][:w]
	}
	t.Vals = t.Vals[:w]
}

// Equal reports exact equality of dims and canonicalized (sorted, deduped)
// contents. Both tensors are cloned so the receivers are not mutated.
func Equal(a, b *Tensor) bool {
	return ApproxEqual(a, b, 0)
}

// ApproxEqual reports equality of dims and canonicalized contents with
// per-element absolute-or-relative tolerance tol. Elements with value zero
// are dropped before comparison.
func ApproxEqual(a, b *Tensor, tol float64) bool {
	if len(a.Dims) != len(b.Dims) {
		return false
	}
	for m := range a.Dims {
		if a.Dims[m] != b.Dims[m] {
			return false
		}
	}
	ca, cb := a.Clone(), b.Clone()
	ca.Dedup()
	cb.Dedup()
	ca.dropTiny(tol)
	cb.dropTiny(tol)
	if ca.NNZ() != cb.NNZ() {
		return false
	}
	for i := range ca.Vals {
		for m := range ca.Coords {
			if ca.Coords[m][i] != cb.Coords[m][i] {
				return false
			}
		}
		va, vb := ca.Vals[i], cb.Vals[i]
		if va == vb {
			continue
		}
		diff := math.Abs(va - vb)
		scale := math.Max(math.Abs(va), math.Abs(vb))
		if diff > tol && diff > tol*scale {
			return false
		}
	}
	return true
}

// dropTiny removes entries with |v| <= tol (and exact zeros when tol == 0).
func (t *Tensor) dropTiny(tol float64) {
	w := 0
	for i, v := range t.Vals {
		if math.Abs(v) <= tol {
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

// IsSorted reports whether elements are in nondecreasing lexicographic order.
func (t *Tensor) IsSorted() bool {
	for i := 1; i < t.NNZ(); i++ {
		if t.lessAt(i, i-1) {
			return false
		}
	}
	return true
}
