package fastcc

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"fastcc/internal/core"
	"fastcc/internal/ref"
	"fastcc/internal/testutil"
)

// TestContractPreparedMatchesContract checks that the prepared path computes
// the same result as the one-shot path and the reference, cold and warm.
func TestContractPreparedMatchesContract(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l := randomTensor(rng, []uint64{30, 12, 20}, 400)
	r := randomTensor(rng, []uint64{20, 9, 30}, 400)
	spec := Spec{CtrLeft: []int{2, 0}, CtrRight: []int{0, 2}}

	want, err := ref.Contract(l, r, spec)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := Preshard(l, spec.CtrLeft)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Preshard(r, spec.CtrRight)
	if err != nil {
		t.Fatal(err)
	}
	cold, coldSt, err := ContractPrepared(ls, rs, WithThreads(3))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(cold, want) {
		t.Fatal("cold prepared contraction mismatch")
	}
	if coldSt.ShardReused {
		t.Fatal("cold run should not report a full shard hit")
	}
	warm, warmSt, err := ContractPrepared(ls, rs, WithThreads(3))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(warm, want) {
		t.Fatal("warm prepared contraction mismatch")
	}
	if !warmSt.ShardReusedL || !warmSt.ShardReusedR || !warmSt.ShardReused {
		t.Fatalf("warm run should reuse both shards: %+v", warmSt)
	}
	if warmSt.Build != 0 {
		t.Fatalf("warm run reports Build=%v, want 0", warmSt.Build)
	}
	if warmSt.Linearize != 0 {
		t.Fatalf("warm run reports Linearize=%v, want 0", warmSt.Linearize)
	}
}

// TestSelfContractAliasing checks the aliasing fast path: contracting a
// tensor with itself must equal contracting two independent deep copies,
// and must shard the operand exactly once (the right side reports reuse).
func TestSelfContractAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randomTensor(rng, []uint64{25, 8, 25}, 350)
	spec := Spec{CtrLeft: []int{0, 2}, CtrRight: []int{0, 2}}

	aliased, st, err := Contract(a, a, spec, WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	copies, _, err := Contract(a.Clone(), a.Clone(), spec, WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(aliased, copies) {
		t.Fatal("aliased self-contraction differs from independent copies")
	}
	if !st.ShardReusedR || st.ShardReusedL {
		t.Fatalf("self-contraction should build once and reuse on the right: %+v", st)
	}
	if err := VerifySample(a, a, spec, aliased, 64, 7, 1e-9); err != nil {
		t.Fatal(err)
	}
}

// TestShardedReusedAcrossPartners contracts one prepared operand against two
// different partners and checks both results against fresh contractions.
// With a pinned tile grid every run lands on the same ShardKey, so the
// second and third contraction reuse the left shard.
func TestShardedReusedAcrossPartners(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shared := randomTensor(rng, []uint64{40, 15, 12}, 500)
	p1 := randomTensor(rng, []uint64{15, 12, 33}, 450)
	p2 := randomTensor(rng, []uint64{15, 12, 27}, 450)
	modes := []int{1, 2}
	opts := []Option{WithThreads(2), WithTileSize(128, 128)}

	ls, err := Preshard(shared, modes, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []*Tensor{p1, p2} {
		spec := Spec{CtrLeft: modes, CtrRight: []int{0, 1}}
		rs, err := Preshard(p, spec.CtrRight, opts...)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := ContractPrepared(ls, rs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := Contract(shared, p, spec, WithThreads(2))
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(got, want) {
			t.Fatalf("partner %d: prepared result differs from fresh Contract", i)
		}
		// Preshard with WithTileSize builds eagerly, so even the first
		// contraction is a full shard hit.
		if !st.ShardReused || st.Build != 0 {
			t.Fatalf("partner %d: want eager-shard hit, got %+v", i, st)
		}
		if err := VerifySample(shared, p, spec, got, 48, uint64(i), 1e-9); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedConcurrentUse hammers one *Sharded pair from many goroutines;
// run with -race this checks the memoized build and the shared read path.
func TestShardedConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	l := randomTensor(rng, []uint64{30, 10, 18}, 420)
	r := randomTensor(rng, []uint64{10, 18, 26}, 420)
	ls, err := Preshard(l, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Preshard(r, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Contract(l, r, Spec{CtrLeft: []int{1, 2}, CtrRight: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	outs := make([]*Tensor, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			outs[g], _, errs[g] = ContractPrepared(ls, rs, WithThreads(2))
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !Equal(outs[g], want) {
			t.Fatalf("goroutine %d: result mismatch", g)
		}
	}
}

// TestContractContextCancel checks cooperative cancellation: a pre-canceled
// context fails fast with an error matching context.Canceled, and a valid
// context leaves the result untouched.
func TestContractContextCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	l := randomTensor(rng, []uint64{30, 30}, 300)
	r := randomTensor(rng, []uint64{30, 30}, 300)
	spec := Spec{CtrLeft: []int{1}, CtrRight: []int{0}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ContractContext(ctx, l, r, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, _, err := Contract(l, r, spec, WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("WithContext: want context.Canceled, got %v", err)
	}

	out, _, err := ContractContext(context.Background(), l, r, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Contract(l, r, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(out, want) {
		t.Fatal("uncanceled ContractContext mismatch")
	}
}

// TestOptionValidation checks the eager ErrBadOption rejections.
func TestOptionValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	a := randomTensor(rng, []uint64{10, 10}, 50)
	spec := Spec{CtrLeft: []int{1}, CtrRight: []int{0}}
	cases := []struct {
		name string
		opts []Option
	}{
		{"negative threads", []Option{WithThreads(-1)}},
		{"huge tile", []Option{WithTileSize(1<<40, 64)}},
		{"dense non-pow2 tr", []Option{WithAccumulator(AccumDense), WithTileSize(64, 100)}},
		{"dense oversized tile", []Option{WithAccumulator(AccumDense), WithTileSize(1<<20, 1<<20)}},
		{"unknown accumulator", []Option{WithAccumulator(AccumKind(99))}},
		{"unknown representation", []Option{WithInputRep(InputRep(99))}},
	}
	for _, tc := range cases {
		if _, _, err := Contract(a, a, spec, tc.opts...); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: Contract err = %v, want ErrBadOption", tc.name, err)
		}
		if _, err := Preshard(a, []int{1}, tc.opts...); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: Preshard err = %v, want ErrBadOption", tc.name, err)
		}
	}
	// Valid combinations must still pass.
	if _, _, err := Contract(a, a, spec, WithAccumulator(AccumDense), WithTileSize(64, 64)); err != nil {
		t.Fatalf("valid dense override rejected: %v", err)
	}
}

// TestTypedErrors checks the errors.Is / errors.As contract on the
// validation paths: specs, shapes, expressions.
func TestTypedErrors(t *testing.T) {
	a := NewTensor([]uint64{4, 4}, 0)
	b := NewTensor([]uint64{5, 5}, 0)

	_, _, err := Contract(a, a, Spec{})
	if !errors.Is(err, ErrBadSpec) {
		t.Errorf("empty spec: err = %v, want ErrBadSpec", err)
	}
	_, _, err = Contract(a, a, Spec{CtrLeft: []int{0, 0}, CtrRight: []int{0, 1}})
	if !errors.Is(err, ErrBadSpec) {
		t.Errorf("duplicate mode: err = %v, want ErrBadSpec", err)
	}

	_, _, err = Contract(a, b, Spec{CtrLeft: []int{0}, CtrRight: []int{0}})
	if !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("extent mismatch: err = %v, want ErrShapeMismatch", err)
	}
	var se *ShapeError
	if !errors.As(err, &se) {
		t.Fatalf("extent mismatch: err = %v, want *ShapeError", err)
	}
	if se.LeftExtent != 4 || se.RightExtent != 5 || se.LeftMode != 0 || se.RightMode != 0 {
		t.Errorf("ShapeError detail = %+v", se)
	}

	if _, err := ParseEinsum("ij,jk", 2, 2); !errors.Is(err, ErrBadExpr) {
		t.Errorf("missing arrow: err = %v, want ErrBadExpr", err)
	}
	if _, err := ParseEinsum("ij,jk->ki", 2, 2); !errors.Is(err, ErrBadExpr) {
		t.Errorf("bad output order: err = %v, want ErrBadExpr", err)
	}
	if _, _, err := Einsum("ii,ij->j", a, a); !errors.Is(err, ErrBadExpr) {
		t.Errorf("trace: err = %v, want ErrBadExpr", err)
	}
	if _, _, err := EinsumN("ij", []*Tensor{a}, nil...); !errors.Is(err, ErrBadExpr) {
		t.Errorf("EinsumN missing arrow: err = %v, want ErrBadExpr", err)
	}
}

// TestEinsumNRepeatedOperandReusesShards checks the per-evaluation shard
// cache: the same tensor in two operand slots over the same contracted
// modes is prepared once, so the contraction step reports shard reuse.
func TestEinsumNRepeatedOperandReusesShards(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	a := randomTensor(rng, []uint64{18, 14}, 160)
	out, plan, err := EinsumN("ab,cb->ac", []*Tensor{a, a})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Contract(a, a, Spec{CtrLeft: []int{1}, CtrRight: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(out, want) {
		t.Fatal("EinsumN repeated-operand result mismatch")
	}
	if len(plan.Steps) != 1 {
		t.Fatalf("plan has %d steps, want 1", len(plan.Steps))
	}
	st := plan.Steps[0].Stats
	if !st.ShardReusedR {
		t.Fatalf("repeated operand should reuse its shard: %+v", st)
	}
}

// TestPreparedDropLeavesNothingOutstanding wires the leak-accounting helper
// into the prepared suite: after contracting prepared operands and dropping
// them, the shard cache must return to its captured charge and every output
// chunk must be back in its pool — zero outstanding, the Drop contract.
func TestPreparedDropLeavesNothingOutstanding(t *testing.T) {
	base := testutil.Capture(
		testutil.Gauge{Name: "shard-cache bytes", Read: func() int64 { return ShardCacheStats().CachedBytes }},
		testutil.Gauge{Name: "shard-cache shards", Read: func() int64 { return ShardCacheStats().Shards }},
		testutil.Gauge{Name: "output chunks", Read: core.OutputChunksOutstanding},
	)

	rng := rand.New(rand.NewSource(91))
	l := randomTensor(rng, []uint64{12, 10, 9}, 400)
	r := randomTensor(rng, []uint64{9, 8, 12}, 400)
	ls, err := Preshard(l, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Preshard(r, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // cold then warm: both paths must balance
		if _, _, err := ContractPrepared(ls, rs, WithThreads(2)); err != nil {
			t.Fatal(err)
		}
	}
	ls.Drop()
	rs.Drop()
	base.Assert(t)
}

func TestShardedLifecycleSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	l := randomTensor(rng, []uint64{30, 25}, 300)
	r := randomTensor(rng, []uint64{25, 20}, 280)

	lsh, err := Preshard(l, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	defer lsh.Drop()
	rsh, err := Preshard(r, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	defer rsh.Drop()

	// Freshly prepared operands hold no built shards: the heavy build is
	// lazy, so the accounting view reports cold and zero-sized.
	if lsh.Warm() {
		t.Fatal("Warm() = true before any contraction")
	}
	if got := lsh.SizeBytes(); got != 0 {
		t.Fatalf("SizeBytes() = %d before any contraction, want 0", got)
	}

	if _, _, err := ContractPrepared(lsh, rsh); err != nil {
		t.Fatal(err)
	}
	if !lsh.Warm() {
		t.Fatal("Warm() = false after a contraction built and cached shards")
	}
	if got := lsh.SizeBytes(); got <= 0 {
		t.Fatalf("SizeBytes() = %d after a contraction, want > 0", got)
	}

	// Close is Drop under the io.Closer spelling: never fails, releases the
	// resident shards, and leaves the operand usable.
	var c interface{ Close() error } = lsh
	if err := c.Close(); err != nil {
		t.Fatalf("Close() = %v, want nil", err)
	}
	if lsh.Warm() {
		t.Fatal("Warm() = true after Close")
	}
	if got := lsh.SizeBytes(); got != 0 {
		t.Fatalf("SizeBytes() = %d after Close, want 0", got)
	}
	if _, _, err := ContractPrepared(lsh, rsh); err != nil {
		t.Fatalf("contraction after Close: %v", err)
	}
	if !lsh.Warm() {
		t.Fatal("operand did not rewarm after Close")
	}
	if err := lsh.Close(); err != nil {
		t.Fatalf("second Close() = %v, want nil", err)
	}
}

// TestPreparedSpillRepin drives the disk tier through the public prepared
// API: after a cold ContractPrepared, every shard is evicted through the
// spill tier, and the next ContractPrepared must re-pin the shards from
// their spill files — a full shard hit, one spill read per shard, no
// fallback to rebuild — and reproduce the pre-eviction output bit for bit.
// The self-contraction puts one *Sharded on both sides, so its single shard
// carries one pin and is read back once.
func TestPreparedSpillRepin(t *testing.T) {
	if err := ConfigureSpill(t.TempDir(), 0, false); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := ConfigureSpill("", 0, false); err != nil {
			t.Errorf("disabling spill: %v", err)
		}
	})

	rng := rand.New(rand.NewSource(29))
	a := randomTensor(rng, []uint64{40, 12, 30}, 700)
	b := randomTensor(rng, []uint64{12, 30, 35}, 600)
	for _, c := range []struct {
		name   string
		l, r   *Tensor
		spec   Spec
		shards int64
	}{
		{"self", a, a, Spec{CtrLeft: []int{1, 2}, CtrRight: []int{1, 2}}, 1},
		{"pair", a, b, Spec{CtrLeft: []int{1, 2}, CtrRight: []int{0, 1}}, 2},
	} {
		ls, err := Preshard(c.l, c.spec.CtrLeft)
		if err != nil {
			t.Fatal(err)
		}
		rs := ls
		if c.r != c.l {
			if rs, err = Preshard(c.r, c.spec.CtrRight); err != nil {
				t.Fatal(err)
			}
		}
		cold, _, err := ContractPrepared(ls, rs, WithThreads(2))
		if err != nil {
			t.Fatalf("%s: cold: %v", c.name, err)
		}
		if cold.NNZ() == 0 {
			t.Fatalf("%s: empty output leaves nothing to compare", c.name)
		}

		// A 1-byte budget evicts every unpinned shard, and with the spill
		// tier on each eviction writes the shard image to disk. The next
		// run re-applies its own (default) budget.
		before := ShardCacheStats()
		core.SetShardBudget(1)
		if ls.Warm() || rs.Warm() {
			t.Fatalf("%s: shards still resident after eviction", c.name)
		}
		got, st, err := ContractPrepared(ls, rs, WithThreads(2))
		if err != nil {
			t.Fatalf("%s: re-pin: %v", c.name, err)
		}
		after := ShardCacheStats()
		if !st.ShardReused || st.Build != 0 {
			t.Fatalf("%s: re-pin run rebuilt instead of reading the spill files: %+v", c.name, st)
		}
		if n := after.SpillReads - before.SpillReads; n != c.shards {
			t.Fatalf("%s: %d spill reads, want %d", c.name, n, c.shards)
		}
		if n := after.SpillFallbacks - before.SpillFallbacks; n != 0 {
			t.Fatalf("%s: %d spill fallbacks to rebuild", c.name, n)
		}
		assertSameBits(t, c.name, cold, got)
		ls.Drop()
		if rs != ls {
			rs.Drop()
		}
	}
}

// assertSameBits demands the same coordinates and identical value bits,
// compared in sorted order.
func assertSameBits(t *testing.T, what string, want, got *Tensor) {
	t.Helper()
	w, g := want.Clone(), got.Clone()
	w.Sort()
	g.Sort()
	if w.NNZ() != g.NNZ() {
		t.Fatalf("%s: %d nonzeros, want %d", what, g.NNZ(), w.NNZ())
	}
	for i := range w.Vals {
		for m := range w.Coords {
			if w.Coords[m][i] != g.Coords[m][i] {
				t.Fatalf("%s: coordinate %d of nonzero %d differs", what, m, i)
			}
		}
		if math.Float64bits(w.Vals[i]) != math.Float64bits(g.Vals[i]) {
			t.Fatalf("%s: value bits differ at nonzero %d", what, i)
		}
	}
}
