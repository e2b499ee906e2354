package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"fastcc/internal/coo"
	"fastcc/internal/gen"
	"fastcc/internal/mempool"
	"fastcc/internal/model"
	"fastcc/internal/testutil"
)

// The tests in this file pin the output's element order and the key step
// built on it: execute concatenates one segment per tile task in (ii, jj)
// order, so a dense run's raw output depends only on the inputs and the
// plan, and OutputKeys puts it in key order with one counting sort.

// orderCase is one contraction whose output order the tests pin: l and r
// are matrixized operands, and self marks a self-contraction sharing one
// operand, which takes the symmetric schedule.
type orderCase struct {
	name string
	l, r *coo.Matrix
	self bool
	// lDims, rDims are the output's external extents; their products are
	// l.ExtDim and r.ExtDim.
	lDims, rDims []uint64
}

// qcCase returns one of serve-churn's QC contractions at the given scale:
// kind "ovov" contracts TE_ov with itself, as the daemon does once both
// uploads resolve to one operand.
func qcCase(t testing.TB, mol gen.Molecule, scale float64, kind string) orderCase {
	t.Helper()
	lt, rt, spec, err := mol.Scaled(scale).Contraction(kind)
	if err != nil {
		t.Fatal(err)
	}
	c := orderCase{name: fmt.Sprintf("%s-%s", mol.Name, kind), self: kind == "ovov"}
	c.l, c.lDims = matrixize(t, lt, spec.CtrLeft)
	c.r, c.rDims = matrixize(t, rt, spec.CtrRight)
	return c
}

// frosttCase returns a FROSTT self-contraction (frosttSelf's operand).
func frosttCase(t *testing.T, tensor string, ctr []int, scale float64) orderCase {
	t.Helper()
	spec, err := gen.FrosttByName(tensor)
	if err != nil {
		t.Fatal(err)
	}
	var dims []uint64
	for _, m := range coo.ExternalModes(len(spec.Dims), ctr) {
		dims = append(dims, spec.Scaled(scale).Dims[m])
	}
	m := frosttSelf(t, tensor, ctr, scale)
	return orderCase{name: gen.ContractionName(tensor, ctr), l: m, r: m, self: true, lDims: dims, rDims: dims}
}

func matrixize(t testing.TB, tn *coo.Tensor, ctr []int) (*coo.Matrix, []uint64) {
	t.Helper()
	ext := coo.ExternalModes(tn.Order(), ctr)
	m, err := tn.Matrixize(ext, ctr)
	if err != nil {
		t.Fatal(err)
	}
	dims := make([]uint64, len(ext))
	for i, e := range ext {
		dims[i] = tn.Dims[e]
	}
	return m, dims
}

// run contracts the case with cfg and returns the raw output, in list
// order, and the list itself, which the caller recycles.
func (c orderCase) run(t *testing.T, cfg Config) ([]Triple, *mempool.List[Triple], *Stats) {
	t.Helper()
	lo := NewOperand(c.l)
	defer lo.Close()
	ro := lo
	if !c.self {
		ro = NewOperand(c.r)
		defer ro.Close()
	}
	out, st, err := ContractOperands(lo, ro, cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	ts := make([]Triple, 0, out.Len())
	out.ForEach(func(x Triple) { ts = append(ts, x) })
	return ts, out, st
}

// sameTriples reports the first difference between two raw outputs:
// coordinates, value bits and order.
func sameTriples(got, want []Triple) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d elements, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.L != w.L || g.R != w.R || math.Float64bits(g.V) != math.Float64bits(w.V) {
			return fmt.Errorf("element %d = %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// wantKeys is OutputKeys' oracle: the triples' keys l·nR + r and values,
// sorted by key with a comparison sort.
func wantKeys(ts []Triple, nR uint64) ([]uint64, []float64) {
	s := slices.Clone(ts)
	slices.SortFunc(s, func(a, b Triple) int { return cmp.Compare(a.L*nR+a.R, b.L*nR+b.R) })
	keys, vals := make([]uint64, len(s)), make([]float64, len(s))
	for i, x := range s {
		keys[i], vals[i] = x.L*nR+x.R, x.V
	}
	return keys, vals
}

// checkKeys runs OutputKeys on a run's list and checks its columns against
// wantKeys, returning whether the counting sort produced them.
func checkKeys(t *testing.T, what string, c orderCase, ts []Triple, out *mempool.List[Triple], dense bool) bool {
	t.Helper()
	keys, vals, counted, err := OutputKeys(out, c.lDims, c.rDims, dense)
	if err != nil {
		t.Fatalf("%s: OutputKeys: %v", what, err)
	}
	nR, err := coo.LinearSize(c.rDims)
	if err != nil {
		t.Fatal(err)
	}
	wk, wv := wantKeys(ts, nR)
	if !slices.Equal(keys, wk) {
		t.Fatalf("%s: keys differ from the sorted triples' (counted=%v)", what, counted)
	}
	for i := range vals {
		if math.Float64bits(vals[i]) != math.Float64bits(wv[i]) {
			t.Fatalf("%s: value %d = %v, want %v", what, i, vals[i], wv[i])
		}
	}
	return counted
}

// TestDenseOutputOrderDeterministic pins a dense run's raw output,
// coordinates, value bits and element order, to be the same at threads 1,
// 2 and 5 and across repeated runs: a two-operand R-major run and a
// symmetric run, each on a multi-tile grid whose blocks spread over the
// workers. Concatenated in worker order the outputs would differ whenever
// a second worker claimed a block. The two-operand run must also list its
// output tiles in row-major order.
func TestDenseOutputOrderDeterministic(t *testing.T) {
	cases := []orderCase{
		qcCase(t, gen.Guanine, 0.05, "vvov"),
		frosttCase(t, "chicago", []int{1, 2, 3}, 0.002),
	}
	for _, c := range cases {
		var want []Triple
		for _, threads := range []int{1, 2, 5, 2, 5, 1} {
			ts, out, st := c.run(t, Config{Threads: threads, Platform: model.Desktop8})
			RecycleOutput(out)
			if st.Decision.Kind != model.AccumDense || st.RMajor == c.self || st.Symmetric != c.self || st.NL*st.NR < 4 {
				t.Fatalf("%s: kind %v, RMajor %v, Symmetric %v, grid %dx%d; want a dense multi-tile grid, R-major unless symmetric",
					c.name, st.Decision.Kind, st.RMajor, st.Symmetric, st.NL, st.NR)
			}
			if !c.self {
				// Each output tile of a two-operand run is one task's
				// segment, so the tiles come in row-major (ii, jj) order.
				for i := 1; i < len(ts); i++ {
					a, b := ts[i-1], ts[i]
					if ta, tb := a.L/st.TileL, b.L/st.TileL; tb < ta || tb == ta && b.R/st.TileR < a.R/st.TileR {
						t.Fatalf("%s threads=%d: element %d %+v lies in a tile before element %d's %+v", c.name, threads, i, b, i-1, a)
					}
				}
			}
			if want == nil {
				want = ts
				continue
			}
			if err := sameTriples(ts, want); err != nil {
				t.Fatalf("%s threads=%d: raw output differs from the first run's: %v", c.name, threads, err)
			}
		}
	}
}

// TestOutputKeysCountingPath requires every dense run with |L| <= nnz to
// take OutputKeys' counting sort, never the radix fallback, at threads 1,
// 2 and 5: serve-churn's six QC kinds at QC scale 0.05, and the FROSTT
// suites' dense self-contractions at scale 0.002, under the model's choice
// on Desktop8 (dense for all of them). nips-2, the suites' sparse case,
// must take the radix path. Either way the columns must equal the sorted
// triples'.
func TestOutputKeysCountingPath(t *testing.T) {
	var cases []orderCase
	for _, mol := range []gen.Molecule{gen.Caffeine, gen.Guanine} {
		for _, kind := range []string{"vvoo", "vvov", "ovov"} {
			cases = append(cases, qcCase(t, mol, 0.05, kind))
		}
	}
	for _, f := range []struct {
		tensor string
		ctr    []int
	}{{"chicago", []int{0}}, {"chicago", []int{1, 2, 3}}, {"chicago", []int{0, 1}}, {"uber", []int{1, 2, 3}}, {"vast", []int{0, 1}}, {"nips", []int{2}}} {
		cases = append(cases, frosttCase(t, f.tensor, f.ctr, 0.002))
	}
	for _, c := range cases {
		for _, threads := range []int{1, 2, 5} {
			what := fmt.Sprintf("%s threads=%d", c.name, threads)
			ts, out, st := c.run(t, Config{Threads: threads, Platform: model.Desktop8})
			dense := st.Decision.Kind == model.AccumDense
			counted := checkKeys(t, what, c, ts, out, dense)
			RecycleOutput(out)
			// Every case but nips-2 is dense with |L| <= nnz, so it must
			// count.
			if want := c.name != "nips-2"; dense != want || counted != want {
				t.Errorf("%s: %v accumulator, |L|=%d, nnz=%d: counted=%v, want %v", what, st.Decision.Kind, c.l.ExtDim, len(ts), counted, want)
			}
		}
	}
}

// TestOutputKeysFallback feeds OutputKeys lists it must not count: a
// "dense" list whose row lists a cell out of order falls back to the radix
// sort, and so does one whose |L| exceeds its nnz; both still come out in
// key order.
func TestOutputKeysFallback(t *testing.T) {
	cases := []struct {
		name         string
		lDims, rDims []uint64
		ts           []Triple
	}{
		{"row out of order", []uint64{2}, []uint64{3, 2}, []Triple{{0, 1, 1}, {1, 5, 2}, {1, 0, 3}, {0, 4, 4}}},
		{"|L| above nnz", []uint64{7, 9}, []uint64{4}, []Triple{{60, 3, 1}, {2, 0, 2}, {2, 1, 3}}},
	}
	for _, tc := range cases {
		p := mempool.New[Triple](2)
		for _, x := range tc.ts {
			p.Append(x)
		}
		c := orderCase{name: tc.name, lDims: tc.lDims, rDims: tc.rDims}
		if checkKeys(t, tc.name, c, tc.ts, mempool.Concat(p), true) {
			t.Errorf("%s: took the counting sort", tc.name)
		}
	}
}

// TestOutputChunksComeBackWhole runs a symmetric and an R-major dense case
// whose outputs span several chunks at threads 1, 2 and 5, recycling every
// output, and at two workers cancels a run at each cancellation check in
// turn until one completes. The output chunk cache must get every
// chunk back whole: OutputChunksOutstanding returns to its baseline and no
// chunk is dropped, which a Release of the list's views would do.
func TestOutputChunksComeBackWhole(t *testing.T) {
	outstanding := testutil.Gauge{Name: "output chunks", Read: OutputChunksOutstanding}
	dropped := testutil.Gauge{Name: "dropped output chunks", Read: func() int64 { return int64(outputChunks.Dropped()) }}
	base := testutil.Capture(outstanding, dropped)
	for _, c := range []orderCase{frosttCase(t, "chicago", []int{1, 2, 3}, 0.002), qcCase(t, gen.Guanine, 0.05, "vvov")} {
		for _, threads := range []int{1, 2, 5} {
			ts, out, _ := c.run(t, Config{Threads: threads, Platform: model.Desktop8})
			if len(ts) <= mempool.DefaultChunkLen {
				t.Fatalf("%s: %d elements fit in one chunk", c.name, len(ts))
			}
			RecycleOutput(out)
		}
		lo := NewOperand(c.l)
		ro := lo
		if !c.self {
			ro = NewOperand(c.r)
		}
		for checks := int64(0); ; checks++ {
			out, _, err := ContractOperands(lo, ro, Config{Threads: 2, Platform: model.Desktop8, Context: newCountdownCtx(checks)})
			if err == nil {
				RecycleOutput(out)
				break
			}
			if !errors.Is(err, context.Canceled) || checks > 1000 {
				t.Fatalf("%s: canceled after %d checks: err = %v", c.name, checks, err)
			}
		}
		lo.Close()
		ro.Close()
	}
	base.Assert(t)
}

// BenchmarkOutputKeys times the key step on serve-churn's six QC outputs
// at QC scale 0.1 (one worker, Auto platform, every run dense): "counting"
// is the path a dense run takes, "radix" the radix sort and value gather
// every other run takes, which a fetch paid before the daemon encoded from
// the engine's output.
func BenchmarkOutputKeys(b *testing.B) {
	for _, mol := range []gen.Molecule{gen.Caffeine, gen.Guanine} {
		for _, kind := range []string{"vvov", "vvoo", "ovov"} {
			c := qcCase(b, mol, 0.1, kind)
			lo := NewOperand(c.l)
			ro := lo
			if !c.self {
				ro = NewOperand(c.r)
			}
			out, st, err := ContractOperands(lo, ro, Config{Threads: 1})
			if err != nil {
				b.Fatal(err)
			}
			for _, path := range []string{"counting", "radix"} {
				b.Run(c.name+"/"+path, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						_, _, counted, err := OutputKeys(out, c.lDims, c.rDims, path == "counting")
						if err != nil || counted != (path == "counting") {
							b.Fatalf("counted=%v, err=%v (%v)", counted, err, st.Decision.Kind)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(out.Len()), "ns/elem")
				})
			}
			RecycleOutput(out)
			lo.Close()
			ro.Close()
		}
	}
}
