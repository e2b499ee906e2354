package fastcc

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"fastcc/internal/core"
	"fastcc/internal/metrics"
	"fastcc/internal/model"
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
	if warmSt.BuildTime != 0 {
		t.Fatalf("warm run reports BuildTime=%v, want 0", warmSt.BuildTime)
	}
	if warmSt.LinearizeTime != 0 {
		t.Fatalf("warm run reports LinearizeTime=%v, want 0", warmSt.LinearizeTime)
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
		if !st.ShardReused || st.BuildTime != 0 {
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

// TestContractContextCancel checks cooperative cancellation through
// WithContext: a pre-canceled context fails fast with an error matching
// context.Canceled, a later WithContext overrides an earlier one, and a
// live context leaves the result untouched.
func TestContractContextCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	l := randomTensor(rng, []uint64{30, 30}, 300)
	r := randomTensor(rng, []uint64{30, 30}, 300)
	spec := Spec{CtrLeft: []int{1}, CtrRight: []int{0}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Contract(l, r, spec, WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, _, err := Contract(l, r, spec, WithContext(context.Background()), WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("last WithContext: want context.Canceled, got %v", err)
	}

	out, _, err := Contract(l, r, spec, WithContext(ctx), WithContext(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Contract(l, r, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(out, want) {
		t.Fatal("uncanceled contraction mismatch")
	}
}

// badOptions are option sets every entry point rejects with ErrBadOption
// on optionInput. The eager ones are knowable from the options alone, so
// Preshard rejects them too; the others conflict with the model's decision
// and so need both operands.
var badOptions = []struct {
	name  string
	opts  []Option
	eager bool
}{
	{"negative threads", []Option{WithThreads(-1)}, true},
	{"huge tile", []Option{WithTileSize(1<<40, 64)}, true},
	{"dense non-pow2 tr", []Option{WithAccumulator(AccumDense), WithTileSize(64, 100)}, true},
	{"dense oversized tile", []Option{WithAccumulator(AccumDense), WithTileSize(1<<20, 1<<20)}, true},
	{"unknown accumulator", []Option{WithAccumulator(AccumKind(99))}, true},
	{"platform without cores", []Option{WithPlatform(Platform{Name: "bad", Cores: 0, L3Bytes: 1 << 20, WordBytes: 8})}, true},
	{"model-dense non-pow2 tr", []Option{WithTileSize(16, 12)}, false},
}

// optionInput is a 64×64 operand dense enough that the model picks the
// dense accumulator for its product with itself over mode 1.
func optionInput() (*Tensor, Spec) {
	rng := rand.New(rand.NewSource(26))
	return randomTensor(rng, []uint64{64, 64}, 400), Spec{CtrLeft: []int{1}, CtrRight: []int{0}}
}

// TestOptionValidation checks that every entry point rejects each of
// badOptions with ErrBadOption, Preshard the eager ones.
func TestOptionValidation(t *testing.T) {
	a, spec := optionInput()
	_, st, err := Contract(a, a, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Decision.Kind != AccumDense {
		t.Fatalf("model picked %v on the option input, want dense", st.Decision.Kind)
	}
	ls, err := Preshard(a, spec.CtrLeft)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Drop()
	rs, err := Preshard(a, spec.CtrRight)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Drop()
	for _, tc := range badOptions {
		if _, _, err := Contract(a, a, spec, tc.opts...); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: Contract err = %v, want ErrBadOption", tc.name, err)
		}
		if _, _, err := ContractPrepared(ls, rs, tc.opts...); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: ContractPrepared err = %v, want ErrBadOption", tc.name, err)
		}
		if _, _, err := Einsum("ij,jk->ik", a, a, tc.opts...); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: Einsum err = %v, want ErrBadOption", tc.name, err)
		}
		if _, _, err := EinsumN("ij,jk->ik", []*Tensor{a, a}, tc.opts...); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: EinsumN err = %v, want ErrBadOption", tc.name, err)
		}
		if !tc.eager {
			continue
		}
		if _, err := Preshard(a, []int{1}, tc.opts...); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: Preshard err = %v, want ErrBadOption", tc.name, err)
		}
	}
	// Valid combinations must still pass.
	if _, _, err := Contract(a, a, spec, WithAccumulator(AccumDense), WithTileSize(64, 64)); err != nil {
		t.Fatalf("valid dense override rejected: %v", err)
	}
	if _, _, err := Contract(a, a, spec, WithTileSize(16, 16)); err != nil {
		t.Fatalf("valid tile override on a model-dense run rejected: %v", err)
	}
	if _, _, err := Contract(a, a, spec, WithPlatform(Platform{})); err != nil {
		t.Fatalf("zero platform (Auto) rejected: %v", err)
	}
}

// TestEntryPointsAgree checks that every way into the engine gives one
// answer: Contract, ContractPrepared, Einsum and core.ContractOperands
// report the same decision, geometry, work and counters on one input, and
// core.ContractOperands rejects every bad option set with ErrBadOption.
func TestEntryPointsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	l := randomTensor(rng, []uint64{50, 40}, 600)
	r := randomTensor(rng, []uint64{40, 70}, 700)
	spec := Spec{CtrLeft: []int{1}, CtrRight: []int{0}}
	opts := []Option{WithThreads(2), WithPlatform(Desktop8), WithMetrics()}
	ls, err := Preshard(l, spec.CtrLeft)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Drop()
	rs, err := Preshard(r, spec.CtrRight)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Drop()

	// answer is the part of Stats that does not depend on timing or on
	// which shards were already cached.
	type answer struct {
		Decision              model.Decision
		TileL, TileR          uint64
		NL, NR, Tasks, Blocks int
		OutputNNZ             int
		Counters              metrics.Snapshot
	}
	of := func(st *Stats) answer {
		return answer{st.Decision, st.TileL, st.TileR, st.NL, st.NR, st.Tasks, st.Blocks, st.OutputNNZ, st.Counters}
	}
	paths := []struct {
		name string
		run  func() (*Stats, error)
	}{
		{"Contract", func() (*Stats, error) { _, st, err := Contract(l, r, spec, opts...); return st, err }},
		{"ContractPrepared", func() (*Stats, error) { _, st, err := ContractPrepared(ls, rs, opts...); return st, err }},
		{"ContractPreparedBTNS", func() (*Stats, error) { _, st, err := ContractPreparedBTNS(ls, rs, opts...); return st, err }},
		{"Einsum", func() (*Stats, error) { _, st, err := Einsum("ij,jk->ik", l, r, opts...); return st, err }},
		{"core.ContractOperands", func() (*Stats, error) {
			out, st, err := core.ContractOperands(ls.op, rs.op, core.Config{Threads: 2, Platform: Desktop8, Counters: &metrics.Counters{}})
			if err == nil {
				core.RecycleOutput(out)
			}
			return st, err
		}},
	}
	var want answer
	for i, p := range paths {
		st, err := p.run()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		got := of(st)
		if got.Counters.Updates == 0 || got.Tasks == 0 {
			t.Fatalf("%s: no work recorded: %+v", p.name, got)
		}
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("%s reports %+v, want Contract's %+v", p.name, got, want)
		}
	}

	a, aspec := optionInput()
	lo, err := Preshard(a, aspec.CtrLeft)
	if err != nil {
		t.Fatal(err)
	}
	defer lo.Drop()
	for _, tc := range badOptions {
		var cfg core.Config
		for _, o := range tc.opts {
			o(&cfg)
		}
		if _, _, err := core.ContractOperands(lo.op, lo.op, cfg); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: core.ContractOperands err = %v, want ErrBadOption", tc.name, err)
		}
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

	// Drop releases the resident shards and leaves the operand usable.
	lsh.Drop()
	if lsh.Warm() {
		t.Fatal("Warm() = true after Drop")
	}
	if got := lsh.SizeBytes(); got != 0 {
		t.Fatalf("SizeBytes() = %d after Drop, want 0", got)
	}
	if _, _, err := ContractPrepared(lsh, rsh); err != nil {
		t.Fatalf("contraction after Drop: %v", err)
	}
	if !lsh.Warm() {
		t.Fatal("operand did not rewarm after Drop")
	}
	lsh.Drop()
	if lsh.Warm() {
		t.Fatal("Warm() = true after a second Drop")
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
		SetShardBudget(0)
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
		// The previous case left a 1-byte budget in force; the cold run must
		// keep its shards resident for the squeeze below to spill.
		SetShardBudget(-1)
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
		// tier on each eviction writes the shard image to disk.
		before := ShardCacheStats()
		SetShardBudget(1)
		if ls.Warm() || rs.Warm() {
			t.Fatalf("%s: shards still resident after eviction", c.name)
		}
		got, st, err := ContractPrepared(ls, rs, WithThreads(2))
		if err != nil {
			t.Fatalf("%s: re-pin: %v", c.name, err)
		}
		after := ShardCacheStats()
		if !st.ShardReused || st.BuildTime != 0 {
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
