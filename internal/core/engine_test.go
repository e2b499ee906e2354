package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"fastcc/internal/coo"
	"fastcc/internal/hashtable"
	"fastcc/internal/mempool"
	"fastcc/internal/metrics"
	"fastcc/internal/model"
	"fastcc/internal/ref"
	"fastcc/internal/scheduler"
	"fastcc/internal/testutil"
)

// randomMatrix builds a matrixized operand with nnz random entries (values
// are small integers so accumulation is exact in float64).
func randomMatrix(rng *rand.Rand, extDim, ctrDim uint64, nnz int) *coo.Matrix {
	m := &coo.Matrix{ExtDim: extDim, CtrDim: ctrDim}
	for i := 0; i < nnz; i++ {
		m.Ext = append(m.Ext, rng.Uint64()%extDim)
		m.Ctr = append(m.Ctr, rng.Uint64()%ctrDim)
		m.Val = append(m.Val, float64(rng.Intn(9)-4))
	}
	return m
}

// contract runs ContractOperands on transient operands, dropping their
// shards before returning, so a test leaves nothing charged to the shard
// cache.
func contract(l, r *coo.Matrix, cfg Config) (*mempool.List[Triple], *Stats, error) {
	lo := NewOperand(l)
	defer lo.Close()
	ro := lo
	if r != l {
		ro = NewOperand(r)
		defer ro.Close()
	}
	return ContractOperands(lo, ro, cfg)
}

// runAndCompare contracts with cfg and checks the result against the map
// reference. Returns the stats for further assertions.
func runAndCompare(t *testing.T, l, r *coo.Matrix, cfg Config) *Stats {
	t.Helper()
	out, st, err := contract(l, r, cfg)
	if err != nil {
		t.Fatalf("contract: %v", err)
	}
	var ls, rs []uint64
	var vs []float64
	out.ForEach(func(tr Triple) {
		ls = append(ls, tr.L)
		rs = append(rs, tr.R)
		vs = append(vs, tr.V)
	})
	got := ref.TriplesToMatrixTensor(ls, rs, vs, l.ExtDim, r.ExtDim)
	want := ref.MapToMatrixTensor(ref.ContractMatrix(l, r), l.ExtDim, r.ExtDim)
	if !coo.Equal(got, want) {
		t.Fatalf("result mismatch: got %d nnz want %d nnz (cfg=%+v)", got.NNZ(), want.NNZ(), cfg)
	}
	return st
}

func TestContractTinyKnown(t *testing.T) {
	// L = [[1,2],[0,3]] (l x c), R = [[4,0],[5,6]] (c x r)
	// O = L·R = [[14,12],[15,18]]
	l := &coo.Matrix{
		Ext: []uint64{0, 0, 1}, Ctr: []uint64{0, 1, 1},
		Val: []float64{1, 2, 3}, ExtDim: 2, CtrDim: 2,
	}
	r := &coo.Matrix{
		Ext: []uint64{0, 0, 1}, Ctr: []uint64{0, 1, 1},
		Val: []float64{4, 5, 6}, ExtDim: 2, CtrDim: 2,
	}
	out, st, err := contract(l, r, Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.OutputNNZ != 4 {
		t.Fatalf("output nnz=%d", st.OutputNNZ)
	}
	want := map[[2]uint64]float64{{0, 0}: 14, {0, 1}: 12, {1, 0}: 15, {1, 1}: 18}
	out.ForEach(func(tr Triple) {
		if want[[2]uint64{tr.L, tr.R}] != tr.V {
			t.Fatalf("(%d,%d)=%g", tr.L, tr.R, tr.V)
		}
		delete(want, [2]uint64{tr.L, tr.R})
	})
	if len(want) != 0 {
		t.Fatalf("missing outputs: %v", want)
	}
}

func TestContractMatchesReferenceAcrossConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := randomMatrix(rng, 300, 50, 2000)
	r := randomMatrix(rng, 200, 50, 1500)
	cfgs := []Config{
		{Threads: 1},
		{Threads: 4},
		{Threads: 4, TileL: 32, TileR: 32},
		{Threads: 4, TileL: 8, TileR: 64},
		{Threads: 2, Accum: model.AccumDense, TileL: 64, TileR: 64},
		{Threads: 2, Accum: model.AccumSparse, TileL: 64, TileR: 64},
		{Threads: 3, Accum: model.AccumSparse, TileL: 512, TileR: 512},
		{Threads: 8, TileL: 1, TileR: 1}, // degenerate 1x1 tiles
	}
	for _, cfg := range cfgs {
		runAndCompare(t, l, r, cfg)
	}
}

func TestContractDeterministicAcrossThreads(t *testing.T) {
	// Same tile size → identical bit-exact output regardless of threads.
	rng := rand.New(rand.NewSource(7))
	l := randomMatrix(rng, 500, 80, 4000)
	r := randomMatrix(rng, 400, 80, 3000)
	collect := func(threads int) *coo.Tensor {
		out, _, err := contract(l, r, Config{Threads: threads, TileL: 64, TileR: 64})
		if err != nil {
			t.Fatal(err)
		}
		var ls, rs []uint64
		var vs []float64
		out.ForEach(func(tr Triple) { ls = append(ls, tr.L); rs = append(rs, tr.R); vs = append(vs, tr.V) })
		tn := ref.TriplesToMatrixTensor(ls, rs, vs, l.ExtDim, r.ExtDim)
		tn.Sort()
		return tn
	}
	a, b := collect(1), collect(7)
	if !coo.Equal(a, b) {
		t.Fatal("thread count changed results")
	}
	for i := range a.Vals {
		if a.Vals[i] != b.Vals[i] {
			t.Fatal("bit-exact determinism violated")
		}
	}
}

func TestContractEmptyOperands(t *testing.T) {
	l := &coo.Matrix{ExtDim: 10, CtrDim: 10}
	r := &coo.Matrix{ExtDim: 10, CtrDim: 10}
	out, st, err := contract(l, r, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 || st.OutputNNZ != 0 || st.Tasks != 0 {
		t.Fatalf("empty contraction produced %d nnz, %d tasks", out.Len(), st.Tasks)
	}
}

func TestContractDisjointContractionIndices(t *testing.T) {
	// L only has c=0, R only has c=1: product is empty.
	l := &coo.Matrix{Ext: []uint64{3}, Ctr: []uint64{0}, Val: []float64{5}, ExtDim: 8, CtrDim: 2}
	r := &coo.Matrix{Ext: []uint64{4}, Ctr: []uint64{1}, Val: []float64{7}, ExtDim: 8, CtrDim: 2}
	out, _, err := contract(l, r, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("got %d nnz", out.Len())
	}
}

func TestContractErrors(t *testing.T) {
	ok := &coo.Matrix{ExtDim: 4, CtrDim: 4}
	cases := []struct {
		name string
		l, r *coo.Matrix
		cfg  Config
	}{
		{"zero extent", &coo.Matrix{ExtDim: 0, CtrDim: 4}, ok, Config{}},
		{"ctr mismatch", ok, &coo.Matrix{ExtDim: 4, CtrDim: 5}, Config{}},
		{"dense non-pow2 TR", ok, ok, Config{Accum: model.AccumDense, TileL: 4, TileR: 12}},
		{"dense tile too big", ok, ok, Config{Accum: model.AccumDense, TileL: 1 << 20, TileR: 1 << 20}},
		{"bad platform", ok, ok, Config{Platform: model.Platform{Name: "x", Cores: -1, L3Bytes: 1, WordBytes: 8}}},
	}
	for _, c := range cases {
		if _, _, err := contract(c.l, c.r, c.cfg); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

func TestContractCountersPlausible(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := randomMatrix(rng, 100, 30, 500)
	r := randomMatrix(rng, 100, 30, 500)
	var c metrics.Counters
	_, st, err := contract(l, r, Config{Threads: 2, TileL: 32, TileR: 32, Counters: &c})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	// Updates must equal the exact multiply-accumulate count.
	want := int64(0)
	byC := map[uint64][2]int64{}
	for _, cc := range l.Ctr {
		e := byC[cc]
		e[0]++
		byC[cc] = e
	}
	for _, cc := range r.Ctr {
		e := byC[cc]
		e[1]++
		byC[cc] = e
	}
	for _, e := range byC {
		want += e[0] * e[1]
	}
	if s.Updates != want {
		t.Fatalf("updates=%d want %d", s.Updates, want)
	}
	if s.Output != int64(st.OutputNNZ) {
		t.Fatalf("output counter=%d stats=%d", s.Output, st.OutputNNZ)
	}
	if s.Queries <= 0 || s.Volume <= 0 {
		t.Fatalf("counters not collected: %+v", s)
	}
	// Tiled-CO queries are bounded by C per tile pair (Section 5.3).
	if s.Queries > int64(st.Tasks)*int64(l.CtrDim) {
		t.Fatalf("queries=%d exceed tasks*C=%d", s.Queries, int64(st.Tasks)*int64(l.CtrDim))
	}
}

func TestContractStatsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := randomMatrix(rng, 1000, 40, 3000)
	r := randomMatrix(rng, 900, 40, 3000)
	st := runAndCompare(t, l, r, Config{Threads: 4, TileL: 128, TileR: 256})
	if st.NL != 8 || st.NR != 4 {
		t.Fatalf("NL=%d NR=%d want 8, 4", st.NL, st.NR)
	}
	if st.TileL != 128 || st.TileR != 256 {
		t.Fatalf("tiles %dx%d", st.TileL, st.TileR)
	}
	if st.Tasks <= 0 || st.Tasks > st.NL*st.NR {
		t.Fatalf("tasks=%d", st.Tasks)
	}
	// The drain is a sub-phase of each worker's share of the contract.
	if st.DrainTime <= 0 || st.DrainTime > time.Duration(st.Threads)*st.ContractTime {
		t.Fatalf("drain %v outside (0, %d × contract %v]", st.DrainTime, st.Threads, st.ContractTime)
	}
	if s := st.String(); !strings.Contains(s, fmt.Sprintf("[drain=%v]", st.DrainTime)) {
		t.Fatalf("stats line %q does not show the drain time", s)
	}
}

func TestContractTilingInvarianceProperty(t *testing.T) {
	// Any tile size must give the same (integer-exact) result.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		extL := uint64(rng.Intn(60) + 1)
		extR := uint64(rng.Intn(60) + 1)
		ctr := uint64(rng.Intn(20) + 1)
		l := randomMatrix(rng, extL, ctr, rng.Intn(150))
		r := randomMatrix(rng, extR, ctr, rng.Intn(150))
		want := ref.MapToMatrixTensor(ref.ContractMatrix(l, r), extL, extR)
		for _, tile := range []uint64{1, 4, 16, 512} {
			out, _, err := contract(l, r, Config{Threads: 3, TileL: tile, TileR: tile})
			if err != nil {
				return false
			}
			var ls, rs []uint64
			var vs []float64
			out.ForEach(func(tr Triple) { ls = append(ls, tr.L); rs = append(rs, tr.R); vs = append(vs, tr.V) })
			got := ref.TriplesToMatrixTensor(ls, rs, vs, extL, extR)
			if !coo.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestModelDrivenRunPicksConfiguredPlatform(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := randomMatrix(rng, 2000, 64, 8000)
	r := randomMatrix(rng, 2000, 64, 8000)
	st := runAndCompare(t, l, r, Config{Threads: 2, Platform: model.Desktop8})
	if st.Decision.DenseT != 512 {
		t.Fatalf("desktop dense tile = %d", st.Decision.DenseT)
	}
	if st.Decision.Kind != model.AccumDense {
		t.Fatalf("dense-ish workload should pick dense, got %v (ENNZ=%g)", st.Decision.Kind, st.Decision.ENNZ)
	}
}

// TestContractOutputChunksReturnToBaseline wires the leak-accounting helper
// into the engine suite: every output chunk Contract vends must come back
// through RecycleOutput, across both cold and warm runs. A drifting gauge
// here means a contraction path dropped a List on the floor.
func TestContractOutputChunksReturnToBaseline(t *testing.T) {
	base := testutil.Capture(testutil.Gauge{Name: "output chunks", Read: OutputChunksOutstanding})
	rng := rand.New(rand.NewSource(77))
	l := randomMatrix(rng, 120, 40, 900)
	r := randomMatrix(rng, 150, 40, 900)
	for i := 0; i < 3; i++ {
		out, _, err := contract(l, r, Config{Threads: 3})
		if err != nil {
			t.Fatal(err)
		}
		RecycleOutput(out)
	}
	base.Assert(t)
}

// handShard assembles a built shard from per-tile sealed tables, bypassing
// the partition, so a tile can hold an index the tile side cannot address.
func handShard(tile uint64, tables ...*hashtable.Sealed) *Shard {
	s := &Shard{Key: ShardKey{Tile: tile}, sealed: tables}
	for i, tb := range tables {
		s.nonEmpty = append(s.nonEmpty, i)
		s.pairs += tb.Pairs()
		s.keys += tb.Len()
	}
	s.stampBuilt()
	return s
}

// TestExecuteTaskPanicFailsTheRun: a tile task that panics fails its run
// with an error wrapping scheduler.ErrTaskPanic instead of ending the
// process. Left tile 1 holds a pair whose index (1000) overruns the 8×8
// dense tile, behind an in-range pair of the same key, so its task panics
// with the tile half-scattered; the run has two tasks on two workers. The
// run hands every output chunk back and parks no accumulator: the next run
// with the same tile shape, which would take a parked one, still matches
// the reference.
func TestExecuteTaskPanicFailsTheRun(t *testing.T) {
	const tile = 8
	sealed := func(ctr []uint64, intra []uint32) *hashtable.Sealed {
		val := make([]float64, len(ctr))
		for k := range val {
			val[k] = float64(k + 1)
		}
		return hashtable.BuildSealed(ctr, intra, val, len(ctr))
	}
	ls := handShard(tile, sealed([]uint64{0, 1}, []uint32{1, 2}), sealed([]uint64{0, 0}, []uint32{3, 1000}))
	rs := handShard(tile, sealed([]uint64{0, 0, 1}, []uint32{0, 5, 4}))
	defer func() {
		for _, s := range []*Shard{ls, rs} {
			for _, tb := range s.sealed {
				tb.Recycle()
			}
		}
	}()

	chunks := testutil.Capture(testutil.Gauge{Name: "output chunks", Read: OutputChunksOutstanding})
	dec := model.Decision{Kind: model.AccumDense, TileL: tile, TileR: tile}
	st := &Stats{}
	out, _, err := execute(ls, rs, dec, 2, Config{Platform: model.Desktop8}, st)
	if !errors.Is(err, scheduler.ErrTaskPanic) || out != nil {
		t.Fatalf("execute over an overrunning tile: out=%v err=%v, want a nil output and ErrTaskPanic", out, err)
	}
	if st.Tasks != 2 || st.Blocks != 2 {
		t.Fatalf("%d tasks in %d blocks, want 2 in 2, so that two workers run", st.Tasks, st.Blocks)
	}
	chunks.Assert(t)

	rng := rand.New(rand.NewSource(31))
	l := randomMatrix(rng, 200, 30, 1500)
	r := randomMatrix(rng, 180, 30, 1500)
	got, _ := collectSorted(t, l, r, Config{Threads: 2, TileL: tile, TileR: tile, Accum: model.AccumDense})
	if !coo.Equal(got, referenceSorted(l, r)) {
		t.Fatal("the run after a task panic differs from the reference")
	}
	chunks.Assert(t)
}
