package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"fastcc/internal/coo"
	"fastcc/internal/gen"
	"fastcc/internal/model"
)

// The tests in this file pin the dense tile layout that a two-shard run
// chooses from its shards' average key runs (rMajor) and the ScatterRuns
// scatter every two-shard dense run takes. Their data are QC-shaped:
// caffeine's vv·oo and vv·ov contractions at a tiny scale, whose left key
// runs are several times longer than the right ones, so 128×64 dense tiles
// go R-major. Unlike the integer-valued suites, the values are floats, so
// a change in any cell's summation order shows in its bits.

// TestRMajorChoice pins the layout rule: R-major only when the left runs
// are longer on average than the right ones and reach accum.RunMin, and
// TileL is a power of two of at least accum.RunCols, so that an R-major
// tile always has left runs long enough for ScatterRuns' run mask.
func TestRMajorChoice(t *testing.T) {
	cases := []struct {
		name                         string
		pairsL, keysL, pairsR, keysR int
		tl                           uint64
		want                         bool
	}{
		{"long left runs", 3000, 10, 500, 100, 128, true},
		{"left at RunMin", 160, 10, 50, 10, 64, true},
		{"left below RunMin", 150, 10, 50, 10, 64, false},
		{"short runs on both sides", 300, 100, 200, 100, 128, false},
		{"right runs longer", 500, 100, 3000, 10, 128, false},
		{"equal runs", 3000, 10, 3000, 10, 128, false},
		{"TileL narrower than a mask word", 3000, 10, 500, 100, 32, false},
		{"TileL not a power of two", 3000, 10, 500, 100, 96, false},
		{"empty left shard", 0, 0, 500, 100, 128, false},
		{"empty right shard", 3000, 10, 0, 0, 128, false},
	}
	for _, c := range cases {
		ls := &Shard{pairs: c.pairsL, keys: c.keysL}
		rs := &Shard{pairs: c.pairsR, keys: c.keysR}
		if got := rMajor(ls, rs, c.tl); got != c.want {
			t.Errorf("%s: rMajor = %v, want %v", c.name, got, c.want)
		}
	}
}

// qcTile is the dense tile the tests contract with: TileL 128 is a power of
// two of at least 64, so the left runs can be the R-major inner loop.
var qcTile = Config{TileL: 128, TileR: 64, Accum: model.AccumDense}

// qcOperands returns caffeine's TE_vv and its kind's partner (TE_oo for
// "vvoo", TE_ov for "vvov") at QC scale 0.01, matrixized over the auxiliary
// index. The generator emits each coordinate once. Float values are seeded
// magnitudes in [0.5, 1.5) with the generator's signs, so the pinned bits
// depend on no math library result; with intValues they are seeded
// integers in [1, 9] instead, and each operand gets every seventh entry
// again with a second value, so both sides carry duplicate coordinates
// under the same contraction keys.
func qcOperands(t *testing.T, kind string, intValues bool) (l, r *coo.Matrix) {
	t.Helper()
	lt, rt, spec, err := gen.Caffeine.Scaled(0.01).Contraction(kind)
	if err != nil {
		t.Fatal(err)
	}
	rng := gen.NewRNG(22)
	mats := make([]*coo.Matrix, 2)
	for i, tn := range []*coo.Tensor{lt, rt} {
		for k := range tn.Vals {
			if intValues {
				tn.Vals[k] = rng.IntValue()
			} else {
				tn.Vals[k] = math.Copysign(0.5+rng.Float64(), tn.Vals[k])
			}
		}
		ctr := spec.CtrLeft
		if i == 1 {
			ctr = spec.CtrRight
		}
		m, err := tn.Matrixize(coo.ExternalModes(tn.Order(), ctr), ctr)
		if err != nil {
			t.Fatal(err)
		}
		if intValues {
			for k, n := 0, m.NNZ(); k < n; k += 7 {
				m.Ext = append(m.Ext, m.Ext[k])
				m.Ctr = append(m.Ctr, m.Ctr[k])
				m.Val = append(m.Val, rng.IntValue())
			}
		}
		mats[i] = m
	}
	return mats[0], mats[1]
}

// outputDigest hashes a sorted output's coordinates and value bits.
func outputDigest(tn *coo.Tensor) uint64 {
	h := fnv.New64a()
	var b [24]byte
	for i, v := range tn.Vals {
		binary.LittleEndian.PutUint64(b[0:], tn.Coords[0][i])
		binary.LittleEndian.PutUint64(b[8:], tn.Coords[1][i])
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// transposed returns a sorted copy of the 2-mode tensor tn with its modes
// swapped.
func transposed(tn *coo.Tensor) *coo.Tensor {
	c := tn.Clone()
	c.Dims[0], c.Dims[1] = c.Dims[1], c.Dims[0]
	c.Coords[0], c.Coords[1] = c.Coords[1], c.Coords[0]
	c.Sort()
	return c
}

// TestDenseLayoutGolden pins the output bits of the float-valued QC runs:
// the digests were computed before R-major tiles and ScatterRuns existed,
// when every dense tile was row-major and scattered one update at a time.
// Each cell sums one product per matched key, in the kernel's match order,
// so the new layout and scatter must leave every bit unchanged.
func TestDenseLayoutGolden(t *testing.T) {
	golden := map[string]uint64{
		"vvoo": 0x342c93d3ca8d5304,
		"vvov": 0x7b65bdc5edd763d3,
	}
	for _, kind := range []string{"vvoo", "vvov"} {
		l, r := qcOperands(t, kind, false)
		cfg := qcTile
		cfg.Threads, cfg.Platform = 2, model.Desktop8
		got, st := collectSorted(t, l, r, cfg)
		if !st.RMajor {
			t.Fatalf("%s: not R-major", kind)
		}
		if d := outputDigest(got); d != golden[kind] {
			t.Errorf("%s: output digest %#x, want %#x", kind, d, golden[kind])
		}
	}
}

// distinctKeys counts each tile's distinct contraction keys, by tile index.
func distinctKeys(m *coo.Matrix, tile uint64) map[uint64]int {
	keys := map[uint64]map[uint64]bool{}
	for k := range m.Val {
		i := m.Ext[k] / tile
		if keys[i] == nil {
			keys[i] = map[uint64]bool{}
		}
		keys[i][m.Ctr[k]] = true
	}
	n := map[uint64]int{}
	for i, ks := range keys {
		n[i] = len(ks)
	}
	return n
}

// TestDenseLayoutTranspose is the metamorphic leg: L·R runs R-major (the
// left runs are the longer ones) and R·L row-major with ScatterRuns along
// the same long runs, so (R·L)ᵀ must equal L·R bit for bit at every thread
// count. Both orders accumulate each cell over the same matches in the
// same order as long as the kernel iterates the same table of each tile
// pair in both: it iterates the one with fewer distinct keys, and the left
// one on a tie, so the test first checks that no tile pair ties.
func TestDenseLayoutTranspose(t *testing.T) {
	for _, kind := range []string{"vvoo", "vvov"} {
		l, r := qcOperands(t, kind, false)
		kl, kr := distinctKeys(l, qcTile.TileL), distinctKeys(r, qcTile.TileR)
		for i, a := range kl {
			for j, b := range kr {
				if a == b {
					t.Fatalf("%s: tiles %d and %d tie at %d distinct keys", kind, i, j, a)
				}
			}
		}
		for _, threads := range []int{1, 2, 5} {
			what := fmt.Sprintf("%s threads=%d", kind, threads)
			cfg := qcTile
			cfg.Threads, cfg.Platform = threads, tinyLLC
			lr, st := collectSorted(t, l, r, cfg)
			cfg.TileL, cfg.TileR = qcTile.TileR, qcTile.TileL
			rl, stT := collectSorted(t, r, l, cfg)
			if !st.RMajor || stT.RMajor {
				t.Fatalf("%s: L·R RMajor=%v, R·L RMajor=%v; want true, false", what, st.RMajor, stT.RMajor)
			}
			assertBitIdentical(t, what+": (R·L)ᵀ vs L·R", lr, transposed(rl))
		}
	}
}

// TestDenseLayoutIntegerReference holds the R-major ScatterRuns runs to
// internal/ref on integer values, with duplicate coordinates on both sides.
// Duplicates under one key are the one case where R-major orders a cell's
// products differently from a row-major tile; integer sums are exact in
// any order, so the output must still equal the reference exactly.
func TestDenseLayoutIntegerReference(t *testing.T) {
	for _, kind := range []string{"vvoo", "vvov"} {
		l, r := qcOperands(t, kind, true)
		want := referenceSorted(l, r)
		for _, threads := range []int{1, 2, 5} {
			what := fmt.Sprintf("%s threads=%d", kind, threads)
			cfg := qcTile
			cfg.Threads, cfg.Platform = threads, tinyLLC
			got, st := collectSorted(t, l, r, cfg)
			if !st.RMajor {
				t.Fatalf("%s: not R-major", what)
			}
			if !coo.Equal(got, want) {
				t.Fatalf("%s: output differs from the reference", what)
			}
		}
	}
}
