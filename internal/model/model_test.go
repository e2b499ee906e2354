package model

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func TestDenseTileSidePaperPlatforms(t *testing.T) {
	// Desktop: 16 MiB / 8 cores / 8 B = 256 Ki words, sqrt = 512 (§6.2).
	if got := DenseTileSide(Desktop8); got != 512 {
		t.Fatalf("desktop dense tile = %d want 512", got)
	}
	// Server: 4 MiB share → sqrt = 724 → floor pow2 = 512 (§6.2).
	if got := DenseTileSide(Server64); got != 512 {
		t.Fatalf("server dense tile = %d want 512", got)
	}
}

func TestEstimateOutputDensityKnownValues(t *testing.T) {
	// Dense-ish inputs: pL = pR = 0.5, C = 1 → Pnonzero = 0.25.
	in := Inputs{NNZL: 50, NNZR: 50, LDim: 10, RDim: 10, CDim: 10}
	pL, pR, p := EstimateOutputDensity(in)
	if pL != 0.5 || pR != 0.5 {
		t.Fatalf("pL=%g pR=%g", pL, pR)
	}
	want := 1 - math.Pow(1-0.25, 10)
	if math.Abs(p-want) > 1e-12 {
		t.Fatalf("Pnonzero=%g want %g", p, want)
	}
}

func TestEstimateOutputDensityTinyDensities(t *testing.T) {
	// NIPS-mode-2-like statistics (paper Table 3): pL = pR ≈ 1.83e-6,
	// C = 14036. The direct (1-x)^C would round to 1; log-space must give
	// ≈ C·pL·pR.
	in := Inputs{NNZL: 3101609, NNZR: 3101609, LDim: 120759228, RDim: 120759228, CDim: 14036}
	pL, _, p := EstimateOutputDensity(in)
	if pL < 1.5e-6 || pL > 2.2e-6 {
		t.Fatalf("pL=%g, want ≈1.83e-6", pL)
	}
	approx := float64(in.CDim) * pL * pL
	if p <= 0 || math.Abs(p-approx)/approx > 1e-3 {
		t.Fatalf("Pnonzero=%g want ≈%g", p, approx)
	}
}

func TestEstimateOutputDensityEdges(t *testing.T) {
	if _, _, p := EstimateOutputDensity(Inputs{NNZL: 0, NNZR: 10, LDim: 4, RDim: 4, CDim: 4}); p != 0 {
		t.Fatalf("empty left: p=%g", p)
	}
	// Fully dense inputs: every output element nonzero.
	if _, _, p := EstimateOutputDensity(Inputs{NNZL: 16, NNZR: 16, LDim: 4, RDim: 4, CDim: 4}); p != 1 {
		t.Fatalf("dense inputs: p=%g", p)
	}
	if _, _, p := EstimateOutputDensity(Inputs{LDim: 0, RDim: 4, CDim: 4}); p != 0 {
		t.Fatalf("zero dims: p=%g", p)
	}
}

func TestDecideDenseForDenseOutputs(t *testing.T) {
	// chicago-like: moderate density → expected tile nonzeros >> 1 → dense.
	in := Inputs{NNZL: 5_000_000, NNZR: 5_000_000, LDim: 59136, RDim: 59136, CDim: 6186}
	d, err := Decide(in, Desktop8)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != AccumDense {
		t.Fatalf("kind=%v want dense (ENNZ=%g)", d.Kind, d.ENNZ)
	}
	if d.TileL != 512 || d.TileR != 512 {
		t.Fatalf("tiles %dx%d want 512x512", d.TileL, d.TileR)
	}
	if d.ENNZ < 1 {
		t.Fatalf("ENNZ=%g", d.ENNZ)
	}
}

func TestDecideSparseForUltraSparseOutputs(t *testing.T) {
	// NIPS-mode-2-like: ultra-sparse output → sparse accumulator with a
	// tile far larger than the 512 dense bound (paper: 2^20).
	in := Inputs{NNZL: 3_101_609, NNZR: 3_101_609, LDim: 120_759_228, RDim: 120_759_228, CDim: 14036}
	d, err := Decide(in, Desktop8)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != AccumSparse {
		t.Fatalf("kind=%v want sparse (ENNZ=%g)", d.Kind, d.ENNZ)
	}
	if d.TileL <= 512 {
		t.Fatalf("sparse tile %d should exceed dense bound", d.TileL)
	}
	if d.TileL&(d.TileL-1) != 0 {
		t.Fatalf("tile %d not a power of two", d.TileL)
	}
}

func TestDecideClampsToSmallDims(t *testing.T) {
	in := Inputs{NNZL: 100, NNZR: 100, LDim: 10, RDim: 3000, CDim: 10}
	d, err := Decide(in, Desktop8)
	if err != nil {
		t.Fatal(err)
	}
	if d.TileL != 16 {
		t.Fatalf("TileL=%d want 16 (pow2 ceiling of 10)", d.TileL)
	}
	if d.TileR > 512 {
		t.Fatalf("TileR=%d", d.TileR)
	}
}

func TestDecideErrors(t *testing.T) {
	if _, err := Decide(Inputs{LDim: 0, RDim: 1, CDim: 1}, Desktop8); err == nil {
		t.Fatal("want zero-dim error")
	}
	if _, err := Decide(Inputs{LDim: 1, RDim: 1, CDim: 1}, Platform{Cores: 0, L3Bytes: 1, WordBytes: 8}); err == nil {
		t.Fatal("want platform error")
	}
}

func TestSparseTileSideInverseSqrtOfDensity(t *testing.T) {
	// §5.4: T ∝ 1/sqrt(δ). Quadrupling δ should halve T (up to pow2 rounding).
	t1 := SparseTileSide(Desktop8, 1e-6)
	t2 := SparseTileSide(Desktop8, 4e-6)
	if t1 != t2*2 {
		t.Fatalf("T(δ)=%d, T(4δ)=%d; want exact halving", t1, t2)
	}
	if got := SparseTileSide(Desktop8, 0); got != uint64(1)<<31 {
		t.Fatalf("zero density should give max tile, got %d", got)
	}
}

func TestPow2Helpers(t *testing.T) {
	cases := []struct{ in, floor, ceil uint64 }{
		{0, 1, 1}, {1, 1, 1}, {2, 2, 2}, {3, 2, 4}, {5, 4, 8},
		{724, 512, 1024}, {1 << 20, 1 << 20, 1 << 20},
	}
	for _, c := range cases {
		if got := floorPow2(c.in); got != c.floor {
			t.Errorf("floorPow2(%d)=%d want %d", c.in, got, c.floor)
		}
		if got := ceilPow2(c.in); got != c.ceil {
			t.Errorf("ceilPow2(%d)=%d want %d", c.in, got, c.ceil)
		}
	}
}

func TestDecidePropertyDensityMonotone(t *testing.T) {
	// More input nonzeros never decreases the estimated output density.
	f := func(seed int64) bool {
		n := seed%1000 + 1
		base := Inputs{NNZL: n, NNZR: 500, LDim: 1000, RDim: 1000, CDim: 100}
		more := base
		more.NNZL = n * 2
		_, _, p1 := EstimateOutputDensity(base)
		_, _, p2 := EstimateOutputDensity(more)
		return p2 >= p1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedOutputNNZ(t *testing.T) {
	in := Inputs{NNZL: 16, NNZR: 16, LDim: 4, RDim: 4, CDim: 4}
	if got := ExpectedOutputNNZ(in); got != 16 {
		t.Fatalf("ExpectedOutputNNZ=%g want 16 (dense output)", got)
	}
}

func TestAutoAndWithCores(t *testing.T) {
	p := Auto()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.GOMAXPROCS(0); p.Cores != n || p.L3Bytes != int64(n)*(2<<20) {
		t.Fatalf("Auto() = %+v, want %d cores with a 2 MiB L3 share each", p, n)
	}
	if AccumAuto.String() != "auto" || AccumDense.String() != "dense" || AccumSparse.String() != "sparse" {
		t.Fatal("AccumKind strings")
	}
}

func TestDecideConsistencyProperty(t *testing.T) {
	// Internal consistency of Decision fields: ENNZ = PNonzero·DenseT² and
	// the kind follows the ENNZ >= 1 rule.
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		n := seed%10_000 + 1
		in := Inputs{
			NNZL: n, NNZR: n*2 + 1,
			LDim: uint64(n%977 + 1), RDim: uint64(n%1231 + 1), CDim: uint64(n%53 + 1),
		}
		d, err := Decide(in, Desktop8)
		if err != nil {
			return false
		}
		wantENNZ := d.PNonzero * float64(d.DenseT) * float64(d.DenseT)
		if math.Abs(d.ENNZ-wantENNZ) > 1e-9*math.Max(1, wantENNZ) {
			return false
		}
		if (d.ENNZ >= 1) != (d.Kind == AccumDense) {
			return false
		}
		return d.TileL > 0 && d.TileR > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBiggerCacheNeverShrinksTiles(t *testing.T) {
	in := Inputs{NNZL: 5000, NNZR: 5000, LDim: 1 << 20, RDim: 1 << 20, CDim: 1 << 10}
	small := Platform{Name: "s", Cores: 8, L3Bytes: 8 << 20, WordBytes: 8}
	big := Platform{Name: "b", Cores: 8, L3Bytes: 64 << 20, WordBytes: 8}
	ds, err := Decide(in, small)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Decide(in, big)
	if err != nil {
		t.Fatal(err)
	}
	if db.TileL < ds.TileL {
		t.Fatalf("bigger L3 shrank tile: %d -> %d", ds.TileL, db.TileL)
	}
}

func TestForceKind(t *testing.T) {
	in := Inputs{NNZL: 100, NNZR: 100, LDim: 1 << 24, RDim: 1 << 24, CDim: 64}
	d, err := Decide(in, Desktop8)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != AccumSparse {
		t.Fatalf("expected sparse baseline decision, got %v", d.Kind)
	}
	forced := d.ForceKind(AccumDense, in, Desktop8)
	if forced.Kind != AccumDense {
		t.Fatal("kind not forced")
	}
	if forced.TileL != d.DenseT {
		t.Fatalf("forced dense tile %d want %d", forced.TileL, d.DenseT)
	}
	// Forcing the same kind or Auto is a no-op.
	if same := d.ForceKind(AccumSparse, in, Desktop8); same.TileL != d.TileL {
		t.Fatal("same-kind force changed tiles")
	}
	if same := d.ForceKind(AccumAuto, in, Desktop8); same.Kind != d.Kind {
		t.Fatal("auto force changed kind")
	}
	// Round trip back to sparse restores a sparse-sized tile.
	back := forced.ForceKind(AccumSparse, in, Desktop8)
	if back.TileL <= back.DenseT {
		t.Fatalf("sparse tile %d should exceed dense bound %d", back.TileL, back.DenseT)
	}
}
