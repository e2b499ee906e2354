package fastcc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"fastcc/internal/gen"
	"fastcc/internal/ref"
)

// floatTensor is randomTensor with float values, and every fifth element
// appended again at the same coordinates with a second value, so the
// contraction sums duplicates and a change in summation order shows in
// the value bits.
func floatTensor(rng *rand.Rand, dims []uint64, nnz int) *Tensor {
	t := NewTensor(dims, nnz+nnz/5)
	coords := make([]uint64, len(dims))
	for i := 0; i < nnz; i++ {
		for m, d := range dims {
			coords[m] = rng.Uint64() % d
		}
		t.Append(coords, rng.NormFloat64())
		if i%5 == 0 {
			t.Append(coords, rng.NormFloat64())
		}
	}
	return t
}

// btnsCase is one request for the BTNS result path: operands, contracted
// modes, options and the schedule the run must take.
type btnsCase struct {
	name   string
	l, r   *Tensor
	lm, rm []int
	opts   []Option
	check  func(*Stats) error
	intRef bool // integer values: the decoded result must equal internal/ref's
}

func wantSchedule(kind AccumKind, rmajor, sym bool) func(*Stats) error {
	return func(st *Stats) error {
		if st.Decision.Kind != kind || st.RMajor != rmajor || st.Symmetric != sym || st.NL*st.NR < 2 {
			return fmt.Errorf("%v accumulator, RMajor %v, Symmetric %v, grid %dx%d; want %v, %v, %v on a multi-tile grid",
				st.Decision.Kind, st.RMajor, st.Symmetric, st.NL, st.NR, kind, rmajor, sym)
		}
		return nil
	}
}

// TestContractPreparedBTNSMatchesWriteBTNS requires the BTNS result path
// to return exactly the bytes WriteBTNS writes for ContractPrepared's
// result of the same request, at threads 1, 2 and 5: dense row-major,
// dense R-major, symmetric dense on a multi-tile grid, and sparse runs,
// over float operands with duplicate coordinates. The integer-valued
// cases' decoded results must also equal internal/ref's.
func TestContractPreparedBTNSMatchesWriteBTNS(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	a, b := floatTensor(rng, []uint64{90, 7, 40}, 3000), floatTensor(rng, []uint64{40, 110}, 2500)
	ai, bi := randomTensor(rng, []uint64{30, 40}, 500), randomTensor(rng, []uint64{40, 6, 9}, 600)
	vv, ov := gen.Caffeine.Scaled(0.02).TEvv(), gen.Caffeine.Scaled(0.02).TEov()
	chicago, err := gen.FrosttByName("chicago")
	if err != nil {
		t.Fatal(err)
	}
	cs := chicago.Scaled(0.002)
	c, err := gen.Uniform(cs.Dims, cs.NNZ, 23, gen.Options{Skew: cs.Skew})
	if err != nil {
		t.Fatal(err)
	}
	tile := WithTileSize(16, 16)
	cases := []btnsCase{
		{name: "dense row-major", l: a, r: b, lm: []int{2}, rm: []int{0},
			opts: []Option{tile, WithAccumulator(AccumDense)}, check: wantSchedule(AccumDense, false, false)},
		{name: "dense R-major", l: vv, r: ov, lm: []int{2}, rm: []int{2},
			opts: []Option{WithPlatform(Desktop8)}, check: wantSchedule(AccumDense, true, false)},
		{name: "symmetric dense", l: c, r: c, lm: []int{1, 2, 3}, rm: []int{1, 2, 3},
			opts: []Option{WithPlatform(Desktop8)}, check: wantSchedule(AccumDense, false, true)},
		{name: "sparse", l: a, r: b, lm: []int{2}, rm: []int{0},
			opts: []Option{tile, WithAccumulator(AccumSparse)}, check: wantSchedule(AccumSparse, false, false)},
		{name: "integer dense", l: ai, r: bi, lm: []int{1}, rm: []int{0},
			opts: []Option{tile, WithAccumulator(AccumDense)}, check: wantSchedule(AccumDense, false, false), intRef: true},
		{name: "integer sparse", l: ai, r: bi, lm: []int{1}, rm: []int{0},
			opts: []Option{tile, WithAccumulator(AccumSparse)}, check: wantSchedule(AccumSparse, false, false), intRef: true},
	}
	for _, tc := range cases {
		ls, err := Preshard(tc.l, tc.lm)
		if err != nil {
			t.Fatal(err)
		}
		rs := ls
		if tc.r != tc.l {
			if rs, err = Preshard(tc.r, tc.rm); err != nil {
				t.Fatal(err)
			}
		}
		for _, threads := range []int{1, 2, 5} {
			what := fmt.Sprintf("%s threads=%d", tc.name, threads)
			opts := append(tc.opts[:len(tc.opts):len(tc.opts)], WithThreads(threads))
			out, _, err := ContractPrepared(ls, rs, opts...)
			if err != nil {
				t.Fatalf("%s: ContractPrepared: %v", what, err)
			}
			var want bytes.Buffer
			if err := WriteBTNS(&want, out); err != nil {
				t.Fatal(err)
			}
			got, st, err := ContractPreparedBTNS(ls, rs, opts...)
			if err != nil {
				t.Fatalf("%s: ContractPreparedBTNS: %v", what, err)
			}
			if err := tc.check(st); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%s: %d bytes differ from WriteBTNS's %d", what, len(got), want.Len())
			}
			if st.OutputNNZ != out.NNZ() || st.TotalTime < st.DelinearizeTime || st.DelinearizeTime <= 0 {
				t.Fatalf("%s: OutputNNZ %d (want %d), TotalTime %v, DelinearizeTime %v", what, st.OutputNNZ, out.NNZ(), st.TotalTime, st.DelinearizeTime)
			}
			if tc.intRef {
				dec, err := ReadBTNS(bytes.NewReader(got))
				if err != nil {
					t.Fatal(err)
				}
				wantRef, err := ref.Contract(tc.l, tc.r, Spec{CtrLeft: tc.lm, CtrRight: tc.rm})
				if err != nil {
					t.Fatal(err)
				}
				if !Equal(dec, wantRef) {
					t.Fatalf("%s: decoded result differs from internal/ref's", what)
				}
			}
		}
		ls.Drop()
		rs.Drop()
	}
}

// TestContractPreparedBTNSIndexSpace requires an output whose index space
// overflows a uint64 to fail with ErrBadSpec, not to encode: two nonzeros
// of a (2^33, 8) operand contracted with itself over mode 1 give a
// 2^33 × 2^33 output.
func TestContractPreparedBTNSIndexSpace(t *testing.T) {
	x := NewTensor([]uint64{1 << 33, 8}, 2)
	x.Append([]uint64{5, 1}, 1)
	x.Append([]uint64{1<<33 - 1, 1}, 2)
	s, err := Preshard(x, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drop()
	if _, _, err := ContractPreparedBTNS(s, s); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("err = %v, want ErrBadSpec", err)
	}
	if _, _, err := ContractPrepared(s, s); err != nil {
		t.Fatalf("ContractPrepared: %v", err)
	}
}
