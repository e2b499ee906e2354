package fastcc

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"fastcc/internal/metrics"
	"fastcc/internal/ref"
)

func TestEinsumNChain(t *testing.T) {
	// O[i,m] = Σ_{k,l} T1[i,k]·T2[k,l]·T3[l,m], validated against two
	// explicit pairwise reference contractions.
	rng := rand.New(rand.NewSource(6))
	t1 := randomTensor(rng, []uint64{5, 6}, 15)
	t2 := randomTensor(rng, []uint64{6, 7}, 18)
	t3 := randomTensor(rng, []uint64{7, 4}, 14)
	out, plan, err := EinsumN("ik,kl,lm->im", []*Tensor{t1, t2, t3})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 {
		t.Fatalf("plan %v", plan)
	}
	t12, err := ref.Contract(t1, t2, Spec{CtrLeft: []int{1}, CtrRight: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Contract(t12, t3, Spec{CtrLeft: []int{1}, CtrRight: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(out, want, 1e-9) {
		t.Fatalf("chain result wrong: %d vs %d nnz", out.NNZ(), want.NNZ())
	}
	if out.Dims[0] != 5 || out.Dims[1] != 4 {
		t.Fatalf("dims %v", out.Dims)
	}
}

func TestEinsumNOutputPermutation(t *testing.T) {
	// Unlike pairwise Einsum, EinsumN permutes the final result to any
	// requested output order.
	rng := rand.New(rand.NewSource(8))
	t1 := randomTensor(rng, []uint64{4, 5}, 12)
	t2 := randomTensor(rng, []uint64{5, 3}, 12)
	natural, _, err := EinsumN("ik,kj->ij", []*Tensor{t1, t2})
	if err != nil {
		t.Fatal(err)
	}
	swapped, _, err := EinsumN("ik,kj->ji", []*Tensor{t1, t2})
	if err != nil {
		t.Fatal(err)
	}
	if swapped.Dims[0] != 3 || swapped.Dims[1] != 4 {
		t.Fatalf("swapped dims %v", swapped.Dims)
	}
	for i := 0; i < natural.NNZ(); i++ {
		v := swapped.At([]uint64{natural.Coords[1][i], natural.Coords[0][i]})
		if v != natural.Vals[i] {
			t.Fatal("transpose mismatch")
		}
	}
}

func TestEinsumNGreedyPrefersSmallIntermediate(t *testing.T) {
	// A star network where contracting the two small operands first is
	// clearly cheaper; verify the planner picks a valid order and the
	// result matches the reference regardless.
	rng := rand.New(rand.NewSource(10))
	big := randomTensor(rng, []uint64{30, 8, 9}, 100) // A[i,k,l]
	s1 := randomTensor(rng, []uint64{8, 4}, 10)       // B[k,j]
	s2 := randomTensor(rng, []uint64{9, 5}, 10)       // C[l,m]
	out, plan, err := EinsumN("ikl,kj,lm->ijm", []*Tensor{big, s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 || plan.String() == "" {
		t.Fatalf("plan %v", plan)
	}
	ab, err := ref.Contract(big, s1, Spec{CtrLeft: []int{1}, CtrRight: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	// ab has modes (i, l, j); contract l with C mode 0 → (i, j, m).
	abc, err := ref.Contract(ab, s2, Spec{CtrLeft: []int{1}, CtrRight: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(out, abc, 1e-9) {
		t.Fatal("star network result wrong")
	}
}

func TestEinsumNSingleOperandPermutes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomTensor(rng, []uint64{3, 4}, 8)
	out, plan, err := EinsumN("ij->ji", []*Tensor{a})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 0 {
		t.Fatal("single operand should need no contractions")
	}
	if out.Dims[0] != 4 || out.Dims[1] != 3 {
		t.Fatalf("dims %v", out.Dims)
	}
	if out.At([]uint64{a.Coords[1][0], a.Coords[0][0]}) != a.Vals[0] {
		t.Fatal("permutation wrong")
	}
}

func TestEinsumNQuantumChemistryPair(t *testing.T) {
	// The ovov assembly as a 2-operand network must agree with Einsum.
	rng := rand.New(rand.NewSource(14))
	te := randomTensor(rng, []uint64{4, 5, 6}, 30)
	a, _, err := Einsum("iak,jbk->iajb", te, te)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := EinsumN("iak,jbk->iajb", []*Tensor{te, te})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(a, b) {
		t.Fatal("EinsumN disagrees with Einsum on a pair")
	}
}

func TestEinsumNErrors(t *testing.T) {
	a := NewTensor([]uint64{2, 2}, 0)
	cases := []struct {
		expr string
		ts   []*Tensor
	}{
		{"ij,jk", []*Tensor{a, a}},            // no arrow
		{"ij->ij", []*Tensor{a, a}},           // operand count mismatch
		{"->", nil},                           // no operands
		{"ijk,jk->i", []*Tensor{a, a}},        // arity mismatch
		{"ii->i", []*Tensor{a}},               // repeated label
		{"ij,kl->ijkl", []*Tensor{a, a}},      // nothing to contract, wrong order anyway
		{"ij,jk,jm->ikm", []*Tensor{a, a, a}}, // j shared three ways (batch)
		{"ij,jk->iq", []*Tensor{a, a}},        // unknown output label
	}
	for i, c := range cases {
		if _, _, err := EinsumN(c.expr, c.ts); err == nil {
			t.Errorf("case %d %q: want error", i, c.expr)
		}
	}
}

func TestPlanString(t *testing.T) {
	p := &Plan{Steps: []PlanStep{{Left: "ik", Right: "kl", Result: "il"}}}
	if !strings.Contains(p.String(), "ik×kl→il") {
		t.Fatalf("plan string %q", p.String())
	}
}

func TestEinsumNContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	t1 := randomTensor(rng, []uint64{5, 6}, 15)
	t2 := randomTensor(rng, []uint64{6, 7}, 18)
	t3 := randomTensor(rng, []uint64{7, 4}, 12)
	ts := []*Tensor{t1, t2, t3}

	// An already-canceled context must abandon the evaluation before (or
	// inside) the first step, with the context error visible via errors.Is
	// — the same single cancellation path every entry point shares.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := EinsumN("ik,kl,lm->im", ts, WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("EinsumN with canceled context: err = %v, want context.Canceled", err)
	}

	// Options are validated eagerly, before any parsing or contraction.
	_, _, err = EinsumN("ik,kl,lm->im", ts, WithThreads(-1))
	if !errors.Is(err, ErrBadOption) {
		t.Fatalf("EinsumN eager validation: err = %v, want ErrBadOption", err)
	}
}

func TestPlanTotalStats(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	t1 := randomTensor(rng, []uint64{8, 9}, 30)
	t2 := randomTensor(rng, []uint64{9, 7}, 28)
	t3 := randomTensor(rng, []uint64{7, 6}, 20)

	_, plan, err := EinsumN("ik,kl,lm->im", []*Tensor{t1, t2, t3}, WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 {
		t.Fatalf("plan has %d steps, want 2", len(plan.Steps))
	}
	agg := plan.TotalStats()

	var total, contract int64
	var tasks int64
	var sum metrics.Snapshot
	for _, s := range plan.Steps {
		if s.Stats == nil {
			t.Fatal("step carries no Stats")
		}
		total += int64(s.Stats.TotalTime)
		contract += int64(s.Stats.ContractTime)
		tasks += int64(s.Stats.Tasks)
		c := s.Stats.Counters
		sum.Updates += c.Updates
		sum.ProbeBatches += c.ProbeBatches
		sum.ProbeHits += c.ProbeHits
		sum.ProbeMisses += c.ProbeMisses
	}
	if int64(agg.TotalTime) != total || int64(agg.ContractTime) != contract {
		t.Fatalf("TotalStats timings total=%v contract=%v, want sums %v / %v",
			agg.TotalTime, agg.ContractTime, time.Duration(total), time.Duration(contract))
	}
	if int64(agg.Tasks) != tasks {
		t.Fatalf("TotalStats.Tasks = %d, want %d", agg.Tasks, tasks)
	}
	if sum.ProbeBatches == 0 {
		t.Fatalf("steps recorded no probe batches: %+v", sum)
	}
	got := agg.Counters
	if got.Updates != sum.Updates || got.ProbeBatches != sum.ProbeBatches || got.ProbeHits != sum.ProbeHits ||
		got.ProbeMisses != sum.ProbeMisses {
		t.Fatalf("TotalStats.Counters = %+v, want step sums %+v", got, sum)
	}
	if agg.OutputNNZ != plan.Steps[len(plan.Steps)-1].Stats.OutputNNZ {
		t.Fatalf("TotalStats.OutputNNZ = %d, want final step's %d",
			agg.OutputNNZ, plan.Steps[len(plan.Steps)-1].Stats.OutputNNZ)
	}

	// An empty plan aggregates to zeros without reporting phantom reuse.
	empty := (&Plan{}).TotalStats()
	if empty.TotalTime != 0 || empty.ShardReused {
		t.Fatalf("empty plan TotalStats = %+v, want zeros", empty)
	}
}
