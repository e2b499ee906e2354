package core

import (
	"math/rand"
	"testing"

	"fastcc/internal/coo"
	"fastcc/internal/model"
	"fastcc/internal/ref"
)

// The tests in this file pin the partitioned-build + sealed-shard +
// blocked-schedule pipeline against the reference contraction and against
// itself: every {representation × accumulator} combination must produce the
// same output, bit for bit, and a reused shard must reproduce the cold run
// exactly. Values are small integers, so float64 accumulation is exact and
// "equal" means identical bits regardless of accumulation order.

// collectSorted contracts and returns the output as a sorted tensor.
func collectSorted(t *testing.T, l, r *coo.Matrix, cfg Config) *coo.Tensor {
	t.Helper()
	out, _, err := Contract(l, r, cfg)
	if err != nil {
		t.Fatalf("Contract(%+v): %v", cfg, err)
	}
	var ls, rs []uint64
	var vs []float64
	out.ForEach(func(tr Triple) { ls = append(ls, tr.L); rs = append(rs, tr.R); vs = append(vs, tr.V) })
	tn := ref.TriplesToMatrixTensor(ls, rs, vs, l.ExtDim, r.ExtDim)
	tn.Sort()
	return tn
}

// tinyLLC forces small super-blocks so the blocked schedule has interior
// block boundaries even on test-sized grids (a 32 KiB L3 puts only a couple
// of tiles in each panel budget).
var tinyLLC = model.Platform{Name: "tiny-llc-test", Cores: 4, L3Bytes: 32 << 10, WordBytes: 8}

func TestEquivalenceAcrossRepAndAccum(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	// 300/17 and 260/17 leave partial edge tiles, and the non-empty tile
	// counts do not divide the block sides chosen from tinyLLC.
	l := randomMatrix(rng, 300, 40, 2500)
	r := randomMatrix(rng, 260, 40, 2000)
	want := ref.MapToMatrixTensor(ref.ContractMatrix(l, r), l.ExtDim, r.ExtDim)
	want.Sort()

	type combo struct {
		name string
		rep  InputRep
		acc  model.AccumKind
	}
	combos := []combo{
		{"hash/dense", RepHash, model.AccumDense},
		{"hash/sparse", RepHash, model.AccumSparse},
		{"sorted/dense", RepSorted, model.AccumDense},
		{"sorted/sparse", RepSorted, model.AccumSparse},
	}
	outs := make([]*coo.Tensor, len(combos))
	for k, c := range combos {
		outs[k] = collectSorted(t, l, r, Config{
			Threads: 4, TileL: 17, TileR: 32, Accum: c.acc, Rep: c.rep,
			Platform: tinyLLC,
		})
		if !coo.Equal(outs[k], want) {
			t.Fatalf("%s: result differs from reference", c.name)
		}
	}
	// Pairwise bit-for-bit: same sorted coordinates and identical value bits.
	for k := 1; k < len(outs); k++ {
		if !coo.Equal(outs[0], outs[k]) {
			t.Fatalf("%s vs %s: outputs differ", combos[0].name, combos[k].name)
		}
		for i := range outs[0].Vals {
			if outs[0].Vals[i] != outs[k].Vals[i] {
				t.Fatalf("%s vs %s: value bits differ at %d", combos[0].name, combos[k].name, i)
			}
		}
	}
}

func TestBlockedScheduleMatchesAcrossThreadsAndPlatforms(t *testing.T) {
	// The block shape depends on the platform and worker count; the output
	// must not. Partial edge blocks (counts not dividing block sides) are
	// forced by the tiny-LLC platform.
	rng := rand.New(rand.NewSource(55))
	l := randomMatrix(rng, 500, 60, 4000)
	r := randomMatrix(rng, 470, 60, 3500)
	base := collectSorted(t, l, r, Config{Threads: 1, TileL: 32, TileR: 32})
	for _, threads := range []int{2, 5, 8} {
		for _, p := range []model.Platform{tinyLLC, model.Desktop8} {
			got := collectSorted(t, l, r, Config{Threads: threads, TileL: 32, TileR: 32, Platform: p})
			if !coo.Equal(base, got) {
				t.Fatalf("threads=%d platform=%s: blocked schedule changed the result", threads, p.Name)
			}
			for i := range base.Vals {
				if base.Vals[i] != got.Vals[i] {
					t.Fatalf("threads=%d platform=%s: value bits differ at %d", threads, p.Name, i)
				}
			}
		}
	}
}

func TestShardReuseBitIdentity(t *testing.T) {
	// A warm run over cached shards must reproduce the cold run bit for bit
	// and report the reuse (Build == 0, sealed tables served from cache).
	rng := rand.New(rand.NewSource(77))
	lm := randomMatrix(rng, 400, 50, 3000)
	rm := randomMatrix(rng, 350, 50, 2800)
	for _, rep := range []InputRep{RepHash, RepSorted} {
		l, r := NewOperand(lm), NewOperand(rm)
		cfg := Config{Threads: 4, TileL: 64, TileR: 64, Rep: rep, Platform: tinyLLC}
		run := func() (*coo.Tensor, *Stats) {
			out, st, err := ContractOperands(l, r, cfg)
			if err != nil {
				t.Fatalf("rep=%v: %v", rep, err)
			}
			var ls, rs []uint64
			var vs []float64
			out.ForEach(func(tr Triple) { ls = append(ls, tr.L); rs = append(rs, tr.R); vs = append(vs, tr.V) })
			tn := ref.TriplesToMatrixTensor(ls, rs, vs, lm.ExtDim, rm.ExtDim)
			tn.Sort()
			return tn, st
		}
		cold, coldSt := run()
		warm, warmSt := run()
		if coldSt.ShardReusedL || coldSt.ShardReusedR {
			t.Fatalf("rep=%v: cold run claims shard reuse", rep)
		}
		if !warmSt.ShardReusedL || !warmSt.ShardReusedR || warmSt.BuildTime != 0 {
			t.Fatalf("rep=%v: warm run did not reuse shards (%+v)", rep, warmSt)
		}
		if warmSt.Blocks <= 0 || warmSt.BlockL <= 0 || warmSt.BlockR <= 0 {
			t.Fatalf("rep=%v: block stats not populated: %+v", rep, warmSt)
		}
		if !coo.Equal(cold, warm) {
			t.Fatalf("rep=%v: warm output differs from cold", rep)
		}
		for i := range cold.Vals {
			if cold.Vals[i] != warm.Vals[i] {
				t.Fatalf("rep=%v: warm value bits differ at %d", rep, i)
			}
		}
	}
}

// TestEvictionEquivalence is the lifecycle acceptance test: contract,
// force-evict everything with a 1-byte budget, contract again over the
// rebuilt shards, and demand bit-identical output — for every
// {representation × accumulator} combination, plus a run under an
// adversarially small budget that rebuilds both shards and evicts them as
// its pins drop.
func TestEvictionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	lm := randomMatrix(rng, 300, 40, 2500)
	rm := randomMatrix(rng, 260, 40, 2000)

	type combo struct {
		name string
		rep  InputRep
		acc  model.AccumKind
	}
	combos := []combo{
		{"hash/dense", RepHash, model.AccumDense},
		{"hash/sparse", RepHash, model.AccumSparse},
		{"sorted/dense", RepSorted, model.AccumDense},
		{"sorted/sparse", RepSorted, model.AccumSparse},
	}
	for _, c := range combos {
		l, r := NewOperand(lm), NewOperand(rm)
		cfg := Config{Threads: 4, TileL: 17, TileR: 32, Accum: c.acc, Rep: c.rep, Platform: tinyLLC}
		run := func(cfg Config) (*coo.Tensor, *Stats) {
			out, st, err := ContractOperands(l, r, cfg)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			var ls, rs []uint64
			var vs []float64
			out.ForEach(func(tr Triple) { ls = append(ls, tr.L); rs = append(rs, tr.R); vs = append(vs, tr.V) })
			tn := ref.TriplesToMatrixTensor(ls, rs, vs, lm.ExtDim, rm.ExtDim)
			tn.Sort()
			return tn, st
		}
		cold, _ := run(cfg)

		// Force-evict every resident shard, then rebuild.
		before := CacheStats()
		SetShardBudget(1)
		if after := CacheStats(); after.Evictions <= before.Evictions {
			t.Fatalf("%s: 1-byte budget evicted nothing (%d -> %d)", c.name, before.Evictions, after.Evictions)
		}
		SetShardBudget(-1)
		rebuilt, st := run(cfg)
		if st.ShardReusedL || st.ShardReusedR {
			t.Fatalf("%s: post-eviction run claims shard reuse", c.name)
		}
		assertBitIdentical(t, c.name+" rebuilt", cold, rebuilt)

		// Adversarially small budget: the run rebuilds both shards, they are
		// evicted as soon as its pins drop, and the result must still match.
		SetShardBudget(1)
		squeezed, _ := run(cfg)
		SetShardBudget(-1)
		assertBitIdentical(t, c.name+" squeezed", cold, squeezed)
		if _, n := l.Resident(); n != 0 {
			t.Fatalf("%s: %d left shards resident after a squeezed run", c.name, n)
		}
		if _, n := r.Resident(); n != 0 {
			t.Fatalf("%s: %d right shards resident after a squeezed run", c.name, n)
		}

		l.Close()
		r.Close()
	}
	SetShardBudget(0)
}

// assertBitIdentical demands the same sorted coordinates and identical
// float64 bit patterns.
func assertBitIdentical(t *testing.T, what string, want, got *coo.Tensor) {
	t.Helper()
	if !coo.Equal(want, got) {
		t.Fatalf("%s: output differs", what)
	}
	for i := range want.Vals {
		if want.Vals[i] != got.Vals[i] {
			t.Fatalf("%s: value bits differ at %d", what, i)
		}
	}
}

// FuzzContractTiling throws arbitrary tile geometries at the pipeline —
// including tile sides that do not divide the extents and non-empty counts
// that do not divide the block sides — and checks both representations
// against the reference. Seeds pin the partial-edge-block cases; the budget
// seeds force mid-sequence eviction (shards reclaimed between the hash and
// sorted runs) through adversarially small shard budgets; the spill
// seeds route those evictions through the disk tier (including budgets tiny
// enough that the spill write itself fails over budget and falls back),
// so reload, adoption-miss and fallback paths all fuzz under arbitrary
// non-dividing tile geometry.
func FuzzContractTiling(f *testing.F) {
	f.Add(int64(1), uint16(100), uint16(90), uint16(30), uint16(7), uint16(13), uint16(600), uint16(0), uint16(0))
	f.Add(int64(2), uint16(257), uint16(129), uint16(17), uint16(16), uint16(16), uint16(900), uint16(0), uint16(0)) // pow2 tiles, odd extents
	f.Add(int64(3), uint16(64), uint16(64), uint16(8), uint16(64), uint16(64), uint16(200), uint16(0), uint16(0))    // single tile
	f.Add(int64(4), uint16(500), uint16(3), uint16(50), uint16(1), uint16(1), uint16(800), uint16(0), uint16(0))     // 1x1 tiles, skewed grid
	f.Add(int64(5), uint16(33), uint16(470), uint16(25), uint16(10), uint16(100), uint16(700), uint16(0), uint16(0)) // blocks clip at both edges
	f.Add(int64(6), uint16(100), uint16(90), uint16(30), uint16(7), uint16(13), uint16(600), uint16(1), uint16(0))   // 1-byte budget: evict everything
	f.Add(int64(7), uint16(257), uint16(129), uint16(17), uint16(16), uint16(16), uint16(900), uint16(4096), uint16(0))
	// Batched-probe boundary: ~62 distinct contraction keys per tile — not a
	// multiple of the probe batch width — so LookupBatch's remainder chunk is
	// exercised on the hash-rep leg of every fuzz execution of this seed.
	f.Add(int64(8), uint16(120), uint16(110), uint16(61), uint16(40), uint16(40), uint16(800), uint16(0), uint16(0))
	// Disk-tier seeds: 1-byte cache budget spills every cold shard, with
	// non-dividing tile sides so partial remainder tiles round-trip through
	// the spill encoding. Seed 10's 48-byte spill budget cannot hold any
	// real shard image — every spill attempt fails over budget and must
	// fall back to plain eviction + rebuild.
	f.Add(int64(9), uint16(100), uint16(90), uint16(30), uint16(7), uint16(13), uint16(600), uint16(1), uint16(32768))
	f.Add(int64(10), uint16(257), uint16(129), uint16(17), uint16(23), uint16(31), uint16(900), uint16(1), uint16(48))
	f.Fuzz(func(t *testing.T, seed int64, extL16, extR16, ctr16, tl16, tr16, nnz16, budget16, spill16 uint16) {
		extL := uint64(extL16%1000) + 1
		extR := uint64(extR16%1000) + 1
		ctr := uint64(ctr16%100) + 1
		tileL := uint64(tl16%200) + 1
		tileR := uint64(tr16%200) + 1
		nnz := int(nnz16 % 2000)
		// 0 keeps eviction out of the picture (unlimited); anything else is
		// a byte budget small enough to churn test-sized shards. The budget
		// is process state, so the default comes back when the execution
		// ends.
		budget := int64(-1)
		if budget16 != 0 {
			budget = int64(budget16)
		}
		SetShardBudget(budget)
		defer SetShardBudget(0)
		// Nonzero spill16 enables the disk tier with that byte budget for
		// this execution only; corrupt round trips are impossible here, so
		// whatever the geometry, the outputs below must stay bit-identical.
		if spill16 != 0 {
			if err := ConfigureSpill(t.TempDir(), int64(spill16), false); err != nil {
				t.Fatalf("ConfigureSpill: %v", err)
			}
			defer func() {
				if err := ConfigureSpill("", 0, false); err != nil {
					t.Errorf("disabling spill: %v", err)
				}
			}()
		}
		rng := rand.New(rand.NewSource(seed))
		l := randomMatrix(rng, extL, ctr, nnz)
		r := randomMatrix(rng, extR, ctr, nnz)
		want := ref.MapToMatrixTensor(ref.ContractMatrix(l, r), extL, extR)
		want.Sort()
		var first *coo.Tensor
		for _, rep := range []InputRep{RepHash, RepSorted} {
			// Sparse accumulator: no power-of-two TileR constraint, so every
			// fuzzed geometry is legal.
			out, _, err := Contract(l, r, Config{
				Threads: 3, TileL: tileL, TileR: tileR,
				Accum: model.AccumSparse, Rep: rep, Platform: tinyLLC,
			})
			if err != nil {
				t.Fatalf("rep=%v tile=%dx%d: %v", rep, tileL, tileR, err)
			}
			var ls, rs []uint64
			var vs []float64
			out.ForEach(func(tr Triple) { ls = append(ls, tr.L); rs = append(rs, tr.R); vs = append(vs, tr.V) })
			got := ref.TriplesToMatrixTensor(ls, rs, vs, extL, extR)
			got.Sort()
			if !coo.Equal(got, want) {
				t.Fatalf("rep=%v tile=%dx%d: mismatch vs reference", rep, tileL, tileR)
			}
			if first == nil {
				first = got
			} else {
				for i := range first.Vals {
					if first.Vals[i] != got.Vals[i] {
						t.Fatalf("tile=%dx%d: hash and sorted reps differ in value bits", tileL, tileR)
					}
				}
			}
		}
	})
}
