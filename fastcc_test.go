package fastcc

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fastcc/internal/coo"
	"fastcc/internal/ref"
)

func randomTensor(rng *rand.Rand, dims []uint64, nnz int) *Tensor {
	t := NewTensor(dims, nnz)
	coords := make([]uint64, len(dims))
	for i := 0; i < nnz; i++ {
		for m, d := range dims {
			coords[m] = rng.Uint64() % d
		}
		t.Append(coords, float64(rng.Intn(9)+1))
	}
	return t
}

func TestContractMatrixMultiply(t *testing.T) {
	// 2x2 matrix multiply through the full tensor pipeline.
	l := NewTensor([]uint64{2, 2}, 4)
	l.Append([]uint64{0, 0}, 1)
	l.Append([]uint64{0, 1}, 2)
	l.Append([]uint64{1, 1}, 3)
	r := NewTensor([]uint64{2, 2}, 4)
	r.Append([]uint64{0, 0}, 4)
	r.Append([]uint64{1, 0}, 5)
	r.Append([]uint64{1, 1}, 6)
	out, st, err := Contract(l, r, Spec{CtrLeft: []int{1}, CtrRight: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Order() != 2 || out.Dims[0] != 2 || out.Dims[1] != 2 {
		t.Fatalf("output shape %v", out.Dims)
	}
	want := map[[2]uint64]float64{{0, 0}: 14, {0, 1}: 12, {1, 0}: 15, {1, 1}: 18}
	for k, v := range want {
		if got := out.At([]uint64{k[0], k[1]}); got != v {
			t.Fatalf("O[%d,%d]=%g want %g", k[0], k[1], got, v)
		}
	}
	if st.OutputNNZ != 4 || st.TotalTime <= 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestContractHigherOrderAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := randomTensor(rng, []uint64{6, 7, 8}, 120)
	r := randomTensor(rng, []uint64{8, 5, 6}, 120)
	// Contract l mode 2 with r mode 0 AND l mode 0 with r mode 2.
	spec := Spec{CtrLeft: []int{2, 0}, CtrRight: []int{0, 2}}
	got, _, err := Contract(l, r, spec, WithThreads(3))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Contract(l, r, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, want) {
		t.Fatalf("mismatch: got %d nnz want %d", got.NNZ(), want.NNZ())
	}
	// Output modes: l ext (mode 1) then r ext (mode 1): dims 7 x 5.
	if len(got.Dims) != 2 || got.Dims[0] != 7 || got.Dims[1] != 5 {
		t.Fatalf("output dims %v", got.Dims)
	}
}

func TestSelfContract(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomTensor(rng, []uint64{9, 4, 5}, 60)
	got, _, err := SelfContract(a, []int{0}, WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Contract(a, a, Spec{CtrLeft: []int{0}, CtrRight: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, want) {
		t.Fatal("self-contraction mismatch")
	}
	if len(got.Dims) != 4 {
		t.Fatalf("output order %d want 4", len(got.Dims))
	}
}

func TestOperandSwapSymmetry(t *testing.T) {
	// L·R and R·L give the same tensor up to mode permutation; verify via
	// reference on transposed spec.
	rng := rand.New(rand.NewSource(13))
	l := randomTensor(rng, []uint64{5, 6}, 12)
	r := randomTensor(rng, []uint64{6, 4}, 12)
	lr, _, err := Contract(l, r, Spec{CtrLeft: []int{1}, CtrRight: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	rl, _, err := Contract(r, l, Spec{CtrLeft: []int{0}, CtrRight: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	// lr has dims (5,4); rl has dims (4,5); compare transposed.
	if lr.NNZ() != rl.NNZ() {
		t.Fatalf("nnz differ: %d vs %d", lr.NNZ(), rl.NNZ())
	}
	for i := 0; i < rl.NNZ(); i++ {
		if got := lr.At([]uint64{rl.Coords[1][i], rl.Coords[0][i]}); got != rl.Vals[i] {
			t.Fatalf("transpose mismatch at %d", i)
		}
	}
}

func TestContractOptionsApplied(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomTensor(rng, []uint64{40, 40, 10}, 300)
	out, st, err := SelfContract(a, []int{2},
		WithThreads(2), WithTileSize(64, 64), WithAccumulator(AccumSparse),
		WithPlatform(Desktop8), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if st.TileL != 64 || st.TileR != 64 {
		t.Fatalf("tile override ignored: %dx%d", st.TileL, st.TileR)
	}
	if st.Threads != 2 {
		t.Fatalf("threads=%d", st.Threads)
	}
	if st.Counters.Updates == 0 {
		t.Fatal("metrics not collected")
	}
	want, _ := ref.Contract(a, a, Spec{CtrLeft: []int{2}, CtrRight: []int{2}})
	if !Equal(out, want) {
		t.Fatal("mismatch with options")
	}
}

func TestContractValidation(t *testing.T) {
	a := NewTensor([]uint64{4, 4}, 0)
	b := NewTensor([]uint64{5, 5}, 0)
	if _, _, err := Contract(a, b, Spec{CtrLeft: []int{0}, CtrRight: []int{0}}); err == nil {
		t.Fatal("extent mismatch should fail")
	}
	if _, _, err := Contract(a, a, Spec{}); err == nil {
		t.Fatal("empty spec should fail")
	}
	bad := NewTensor([]uint64{4, 4}, 1)
	bad.Append([]uint64{1, 1}, 1)
	bad.Coords[0][0] = 9
	if _, _, err := Contract(bad, a, Spec{CtrLeft: []int{0}, CtrRight: []int{0}}); err == nil {
		t.Fatal("invalid operand should fail")
	}
}

func TestContractAllModesContracted(t *testing.T) {
	// Full inner product: scalar output (0 external modes each side).
	l := NewTensor([]uint64{3, 3}, 2)
	l.Append([]uint64{1, 1}, 2)
	l.Append([]uint64{0, 2}, 3)
	r := l.Clone()
	out, _, err := Contract(l, r, Spec{CtrLeft: []int{0, 1}, CtrRight: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Order() != 0 || out.NNZ() != 1 || out.Vals[0] != 13 {
		t.Fatalf("inner product: order=%d nnz=%d vals=%v", out.Order(), out.NNZ(), out.Vals)
	}
}

func TestContractPropertyAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := uint64(rng.Intn(8) + 1)
		l := randomTensor(rng, []uint64{uint64(rng.Intn(10) + 1), c, uint64(rng.Intn(10) + 1)}, rng.Intn(80))
		r := randomTensor(rng, []uint64{uint64(rng.Intn(10) + 1), c}, rng.Intn(80))
		spec := Spec{CtrLeft: []int{1}, CtrRight: []int{1}}
		got, _, err := Contract(l, r, spec, WithThreads(rng.Intn(4)+1))
		if err != nil {
			return false
		}
		want, err := ref.Contract(l, r, spec)
		if err != nil {
			return false
		}
		return Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTNSHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randomTensor(rng, []uint64{6, 6}, 10)
	a.Dedup()
	var sb strings.Builder
	if err := WriteTNS(&sb, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadTNS(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(a, b) {
		t.Fatal("round trip")
	}
	dir := t.TempDir()
	path := dir + "/x.tns"
	if err := SaveTNS(path, a); err != nil {
		t.Fatal(err)
	}
	c, err := LoadTNS(path)
	if err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(a, c, 0) {
		t.Fatal("file round trip")
	}
	if _, err := LoadTNS(dir + "/missing.tns"); err == nil {
		t.Fatal("missing file should error")
	}
}

var _ = coo.ErrShape // keep explicit dependency for doc cross-reference

func TestFileFormatDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	a := randomTensor(rng, []uint64{12, 9}, 30)
	a.Dedup()
	dir := t.TempDir()
	for _, name := range []string{"a.tns", "a.tns.gz", "a.btns", "a.btns.gz"} {
		path := dir + "/" + name
		if err := SaveTNS(path, a); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		got, err := LoadTNS(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if !Equal(a, got) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}

func TestBTNSStreamHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randomTensor(rng, []uint64{7, 7, 7}, 25)
	a.Dedup()
	var sb strings.Builder
	if err := WriteBTNS(&sb, a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBTNS(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(a, got) {
		t.Fatal("stream round trip mismatch")
	}
}
