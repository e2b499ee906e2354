package core

import (
	"math/rand"
	"testing"

	"fastcc/internal/coo"
	"fastcc/internal/model"
	"fastcc/internal/ref"
)

// Boundary-condition tests for the tiled engine: ragged last tiles, tiles
// equal to and exceeding the extents, extreme aspect ratios, and values at
// the tile seams.

func TestContractRaggedLastTile(t *testing.T) {
	// Extents not divisible by the tile: the last tile is ragged and its
	// intra-tile indices must still map back to correct globals.
	l := &coo.Matrix{ExtDim: 100, CtrDim: 3}
	r := &coo.Matrix{ExtDim: 70, CtrDim: 3}
	// Place nonzeros exactly at the seams and in the ragged remainder.
	for _, e := range []uint64{0, 31, 32, 63, 64, 95, 96, 99} {
		l.Ext = append(l.Ext, e)
		l.Ctr = append(l.Ctr, e%3)
		l.Val = append(l.Val, float64(e+1))
	}
	for _, e := range []uint64{0, 31, 32, 63, 64, 69} {
		r.Ext = append(r.Ext, e)
		r.Ctr = append(r.Ctr, e%3)
		r.Val = append(r.Val, float64(e+2))
	}
	out, st, err := contract(l, r, Config{Threads: 3, TileL: 32, TileR: 32})
	if err != nil {
		t.Fatal(err)
	}
	if st.NL != 4 || st.NR != 3 {
		t.Fatalf("grid %dx%d want 4x3", st.NL, st.NR)
	}
	var ls, rs []uint64
	var vs []float64
	out.ForEach(func(tr Triple) { ls = append(ls, tr.L); rs = append(rs, tr.R); vs = append(vs, tr.V) })
	got := ref.TriplesToMatrixTensor(ls, rs, vs, l.ExtDim, r.ExtDim)
	want := ref.MapToMatrixTensor(ref.ContractMatrix(l, r), l.ExtDim, r.ExtDim)
	if !coo.Equal(got, want) {
		t.Fatal("ragged tiling broke seam elements")
	}
}

func TestContractTileLargerThanExtent(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	l := randomMatrix(rng, 10, 5, 30)
	r := randomMatrix(rng, 10, 5, 30)
	// A tile far larger than either extent: one task, full contraction.
	out, st, err := contract(l, r, Config{Threads: 2, TileL: 1 << 12, TileR: 1 << 12, Accum: model.AccumSparse})
	if err != nil {
		t.Fatal(err)
	}
	if st.NL != 1 || st.NR != 1 || st.Tasks > 1 {
		t.Fatalf("grid %dx%d tasks=%d", st.NL, st.NR, st.Tasks)
	}
	var ls, rs []uint64
	var vs []float64
	out.ForEach(func(tr Triple) { ls = append(ls, tr.L); rs = append(rs, tr.R); vs = append(vs, tr.V) })
	got := ref.TriplesToMatrixTensor(ls, rs, vs, l.ExtDim, r.ExtDim)
	want := ref.MapToMatrixTensor(ref.ContractMatrix(l, r), l.ExtDim, r.ExtDim)
	if !coo.Equal(got, want) {
		t.Fatal("single-tile contraction wrong")
	}
}

func TestContractExtremeAspectTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	l := randomMatrix(rng, 128, 16, 400)
	r := randomMatrix(rng, 128, 16, 400)
	for _, tile := range [][2]uint64{{1, 128}, {128, 1}, {2, 64}} {
		out, _, err := contract(l, r, Config{Threads: 2, TileL: tile[0], TileR: tile[1]})
		if err != nil {
			t.Fatalf("tile %v: %v", tile, err)
		}
		var ls, rs []uint64
		var vs []float64
		out.ForEach(func(tr Triple) { ls = append(ls, tr.L); rs = append(rs, tr.R); vs = append(vs, tr.V) })
		got := ref.TriplesToMatrixTensor(ls, rs, vs, l.ExtDim, r.ExtDim)
		want := ref.MapToMatrixTensor(ref.ContractMatrix(l, r), l.ExtDim, r.ExtDim)
		if !coo.Equal(got, want) {
			t.Fatalf("tile %v wrong", tile)
		}
	}
}

func TestContractNonPow2TileWithSparseAccum(t *testing.T) {
	// The dense accumulator requires power-of-two TileR; the sparse one
	// must accept arbitrary tile sizes.
	rng := rand.New(rand.NewSource(35))
	l := randomMatrix(rng, 90, 11, 300)
	r := randomMatrix(rng, 77, 11, 300)
	out, st, err := contract(l, r, Config{Threads: 2, TileL: 30, TileR: 21, Accum: model.AccumSparse})
	if err != nil {
		t.Fatal(err)
	}
	if st.NL != 3 || st.NR != 4 {
		t.Fatalf("grid %dx%d", st.NL, st.NR)
	}
	var ls, rs []uint64
	var vs []float64
	out.ForEach(func(tr Triple) { ls = append(ls, tr.L); rs = append(rs, tr.R); vs = append(vs, tr.V) })
	got := ref.TriplesToMatrixTensor(ls, rs, vs, l.ExtDim, r.ExtDim)
	want := ref.MapToMatrixTensor(ref.ContractMatrix(l, r), l.ExtDim, r.ExtDim)
	if !coo.Equal(got, want) {
		t.Fatal("non-pow2 sparse tiling wrong")
	}
}

func TestContractManyMoreThreadsThanTasks(t *testing.T) {
	l := &coo.Matrix{Ext: []uint64{0}, Ctr: []uint64{0}, Val: []float64{2}, ExtDim: 4, CtrDim: 1}
	r := &coo.Matrix{Ext: []uint64{1}, Ctr: []uint64{0}, Val: []float64{3}, ExtDim: 4, CtrDim: 1}
	out, _, err := contract(l, r, Config{Threads: 16, TileL: 2, TileR: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("nnz=%d", out.Len())
	}
	out.ForEach(func(tr Triple) {
		if tr.L != 0 || tr.R != 1 || tr.V != 6 {
			t.Fatalf("got (%d,%d)=%g", tr.L, tr.R, tr.V)
		}
	})
}

func TestContractSingleC(t *testing.T) {
	// CtrDim == 1: every nonzero pair contributes (a pure outer product).
	l := &coo.Matrix{Ext: []uint64{0, 1, 2}, Ctr: []uint64{0, 0, 0}, Val: []float64{1, 2, 3}, ExtDim: 3, CtrDim: 1}
	r := &coo.Matrix{Ext: []uint64{0, 1}, Ctr: []uint64{0, 0}, Val: []float64{10, 100}, ExtDim: 2, CtrDim: 1}
	out, _, err := contract(l, r, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 6 {
		t.Fatalf("outer product nnz=%d want 6", out.Len())
	}
	sum := 0.0
	out.ForEach(func(tr Triple) { sum += tr.V })
	if sum != (1+2+3)*(10+100) {
		t.Fatalf("sum=%g", sum)
	}
}

func TestContractDuplicateInputCoordinates(t *testing.T) {
	// Duplicates are independent contributions and must accumulate.
	l := &coo.Matrix{Ext: []uint64{5, 5}, Ctr: []uint64{2, 2}, Val: []float64{1, 1}, ExtDim: 8, CtrDim: 4}
	r := &coo.Matrix{Ext: []uint64{3}, Ctr: []uint64{2}, Val: []float64{10}, ExtDim: 8, CtrDim: 4}
	out, _, err := contract(l, r, Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	out.ForEach(func(tr Triple) {
		if tr.V != 20 {
			t.Fatalf("duplicate accumulation wrong: %g", tr.V)
		}
	})
}
