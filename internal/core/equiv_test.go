package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"fastcc/internal/coo"
	"fastcc/internal/model"
	"fastcc/internal/ref"
)

// The tests in this file pin the partitioned-build + sealed-shard +
// blocked-schedule pipeline against the reference contraction and against
// itself: both accumulators must produce the same output, bit for bit, and
// a reused shard must reproduce the cold run exactly. Values are small integers, so float64 accumulation is exact and
// "equal" means identical bits regardless of accumulation order.

// collectSorted contracts and returns the output as a sorted tensor, with
// the run's stats. Passing the same matrix on both sides shares one Operand,
// so the run takes the symmetric schedule when the tile sides agree.
func collectSorted(t *testing.T, l, r *coo.Matrix, cfg Config) (*coo.Tensor, *Stats) {
	t.Helper()
	out, st, err := contract(l, r, cfg)
	if err != nil {
		t.Fatalf("contract(%+v): %v", cfg, err)
	}
	var ls, rs []uint64
	var vs []float64
	out.ForEach(func(tr Triple) { ls = append(ls, tr.L); rs = append(rs, tr.R); vs = append(vs, tr.V) })
	RecycleOutput(out)
	tn := ref.TriplesToMatrixTensor(ls, rs, vs, l.ExtDim, r.ExtDim)
	tn.Sort()
	return tn, st
}

// twin returns a second matrix over m's storage. Contracting m with its twin
// shards each side separately, so the run takes the full tile grid: the
// reference schedule the symmetric one must reproduce.
func twin(m *coo.Matrix) *coo.Matrix {
	c := *m
	return &c
}

// referenceSorted is internal/ref's contraction of l and r as a sorted
// tensor.
func referenceSorted(l, r *coo.Matrix) *coo.Tensor {
	want := ref.MapToMatrixTensor(ref.ContractMatrix(l, r), l.ExtDim, r.ExtDim)
	want.Sort()
	return want
}

// checkSelfLeg contracts l with itself under cfg, whose tile sides must
// agree, once on one shared Operand (the symmetric schedule) and once
// against its twin (the full grid). The symmetric output must equal the
// reference want exactly and the full-grid output bit for bit, explicit
// zeros included. It returns the symmetric run's stats.
func checkSelfLeg(t *testing.T, what string, l *coo.Matrix, cfg Config, want *coo.Tensor) *Stats {
	t.Helper()
	self, st := collectSorted(t, l, l, cfg)
	full, fst := collectSorted(t, l, twin(l), cfg)
	if !st.Symmetric || fst.Symmetric {
		t.Fatalf("%s: Symmetric = %v on one operand, %v on two; want true, false", what, st.Symmetric, fst.Symmetric)
	}
	if !coo.Equal(self, want) {
		t.Fatalf("%s: symmetric output differs from reference", what)
	}
	assertBitIdentical(t, what+" symmetric vs full grid", full, self)
	return st
}

// tinyLLC forces small super-blocks so the blocked schedule has interior
// block boundaries even on test-sized grids (a 32 KiB L3 puts only a couple
// of tiles in each panel budget).
var tinyLLC = model.Platform{Name: "tiny-llc-test", Cores: 4, L3Bytes: 32 << 10, WordBytes: 8}

// TestEquivalenceAcrossAccum runs both accumulators against the reference
// and against each other, bit for bit, on two two-operand legs and a self
// leg. The first leg's dense tiles are row-major. The second leg's are
// R-major (rMajor): 8 contraction keys give the left operand about 60
// pairs per key and tile against the right's 5, at least accum.RunMin, and
// TileL 64 is a power of two as wide as accum.RunCols, so ScatterRuns marks
// cells along the left runs.
func TestEquivalenceAcrossAccum(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	// 300/17 and 260/17 leave partial edge tiles, and the non-empty tile
	// counts do not divide the block sides chosen from tinyLLC.
	l := randomMatrix(rng, 300, 40, 2500)
	r := randomMatrix(rng, 260, 40, 2000)
	legs := []struct {
		name   string
		l, r   *coo.Matrix
		tl, tr uint64
		rmajor bool
	}{
		{"row-major", l, r, 17, 32, false},
		{"R-major", randomMatrix(rng, 300, 8, 2500), randomMatrix(rng, 260, 8, 400), 64, 32, true},
	}
	accs := []model.AccumKind{model.AccumDense, model.AccumSparse}
	for _, leg := range legs {
		want := referenceSorted(leg.l, leg.r)
		outs := make([]*coo.Tensor, len(accs))
		for k, acc := range accs {
			var st *Stats
			outs[k], st = collectSorted(t, leg.l, leg.r, Config{
				Threads: 4, TileL: leg.tl, TileR: leg.tr, Accum: acc, Platform: tinyLLC,
			})
			if !coo.Equal(outs[k], want) {
				t.Fatalf("%s %v: result differs from reference", leg.name, acc)
			}
			if wantR := leg.rmajor && acc == model.AccumDense; st.RMajor != wantR {
				t.Fatalf("%s %v: RMajor = %v, want %v", leg.name, acc, st.RMajor, wantR)
			}
		}
		// Bit-for-bit: same sorted coordinates and identical value bits.
		assertBitIdentical(t, leg.name+" dense vs sparse", outs[0], outs[1])
	}
	// Self leg: one Operand on both sides runs the symmetric schedule. With
	// 16-wide tiles a tinyLLC panel holds two tiles, so blocks straddle the
	// diagonal: one block runs diagonal, mirrored and skipped pairs.
	wantSelf := referenceSorted(l, l)
	for _, acc := range accs {
		cfg := Config{Threads: 4, TileL: 16, TileR: 16, Accum: acc, Platform: tinyLLC}
		st := checkSelfLeg(t, fmt.Sprintf("self %v", acc), l, cfg, wantSelf)
		if st.BlockL < 2 || st.BlockR < 2 {
			t.Fatalf("self %v: block %dx%d cannot straddle the diagonal", acc, st.BlockL, st.BlockR)
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
	base, _ := collectSorted(t, l, r, Config{Threads: 1, TileL: 32, TileR: 32})
	for _, threads := range []int{2, 5, 8} {
		for _, p := range []model.Platform{tinyLLC, model.Desktop8} {
			got, _ := collectSorted(t, l, r, Config{Threads: threads, TileL: 32, TileR: 32, Platform: p})
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
	// Self leg: the symmetric schedule's upper-triangle block enumeration
	// changes with the block shape, which the worker count and platform
	// set; the output must not.
	wantSelf := referenceSorted(l, l)
	for _, threads := range []int{1, 2, 5, 8} {
		for _, p := range []model.Platform{tinyLLC, model.Desktop8} {
			cfg := Config{Threads: threads, TileL: 32, TileR: 32, Platform: p}
			checkSelfLeg(t, fmt.Sprintf("self threads=%d platform=%s", threads, p.Name), l, cfg, wantSelf)
		}
	}
}

func TestShardReuseBitIdentity(t *testing.T) {
	// A warm run over cached shards must reproduce the cold run bit for bit
	// and report the reuse (BuildTime == 0, sealed tables served from cache).
	rng := rand.New(rand.NewSource(77))
	lm := randomMatrix(rng, 400, 50, 3000)
	rm := randomMatrix(rng, 350, 50, 2800)
	l, r := NewOperand(lm), NewOperand(rm)
	cfg := Config{Threads: 4, TileL: 64, TileR: 64, Platform: tinyLLC}
	run := func() (*coo.Tensor, *Stats) {
		out, st, err := ContractOperands(l, r, cfg)
		if err != nil {
			t.Fatal(err)
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
		t.Fatal("cold run claims shard reuse")
	}
	if !warmSt.ShardReusedL || !warmSt.ShardReusedR || warmSt.BuildTime != 0 {
		t.Fatalf("warm run did not reuse shards (%+v)", warmSt)
	}
	if warmSt.Blocks <= 0 || warmSt.BlockL <= 0 || warmSt.BlockR <= 0 {
		t.Fatalf("block stats not populated: %+v", warmSt)
	}
	assertBitIdentical(t, "warm vs cold", cold, warm)
}

// TestEvictionEquivalence is the lifecycle acceptance test: contract,
// force-evict everything with a 1-byte budget, contract again over the
// rebuilt shards, and demand bit-identical output — for both
// accumulators, plus a run under an adversarially small budget that
// rebuilds both shards and evicts them as its pins drop.
func TestEvictionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	lm := randomMatrix(rng, 300, 40, 2500)
	rm := randomMatrix(rng, 260, 40, 2000)

	for _, acc := range []model.AccumKind{model.AccumDense, model.AccumSparse} {
		name := acc.String()
		l, r := NewOperand(lm), NewOperand(rm)
		cfg := Config{Threads: 4, TileL: 17, TileR: 32, Accum: acc, Platform: tinyLLC}
		run := func(cfg Config) (*coo.Tensor, *Stats) {
			out, st, err := ContractOperands(l, r, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
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
			t.Fatalf("%s: 1-byte budget evicted nothing (%d -> %d)", name, before.Evictions, after.Evictions)
		}
		SetShardBudget(-1)
		rebuilt, st := run(cfg)
		if st.ShardReusedL || st.ShardReusedR {
			t.Fatalf("%s: post-eviction run claims shard reuse", name)
		}
		assertBitIdentical(t, name+" rebuilt", cold, rebuilt)

		// Adversarially small budget: the run rebuilds both shards, they are
		// evicted as soon as its pins drop, and the result must still match.
		SetShardBudget(1)
		squeezed, _ := run(cfg)
		SetShardBudget(-1)
		assertBitIdentical(t, name+" squeezed", cold, squeezed)
		if _, n := l.Resident(); n != 0 {
			t.Fatalf("%s: %d left shards resident after a squeezed run", name, n)
		}
		if _, n := r.Resident(); n != 0 {
			t.Fatalf("%s: %d right shards resident after a squeezed run", name, n)
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

// pow2Ceil rounds x >= 1 up to a power of two.
func pow2Ceil(x uint64) uint64 { return 1 << bits.Len64(x-1) }

// FuzzContractTiling throws arbitrary tile geometries at the pipeline —
// including tile sides that do not divide the extents and non-empty counts
// that do not divide the block sides — and checks both accumulators
// against the reference. Seeds pin the partial-edge-block cases; the budget
// seeds force mid-sequence eviction (shards reclaimed between the runs)
// through adversarially small shard budgets; the spill
// seeds route those evictions through the disk tier (including budgets tiny
// enough that the spill write itself fails over budget and falls back),
// so reload, adoption-miss and fallback paths all fuzz under arbitrary
// non-dividing tile geometry.
//
// A dense leg runs the same contraction through the dense kernel, with
// TileR rounded up to a power of two. When tl16's top bit is set, TileL is
// rounded up to a power of two of at least 64 too, so a run whose left key
// runs are longer, and at least accum.RunMin, goes R-major. Seeds 11 and
// 12 use two contraction keys (ctr16 1), so runs on a side with few wide
// tiles average hundreds of pairs: seed 11 runs R-major and seed 12
// row-major, both along the long runs in ScatterRuns' run mask. Seed 13,
// with 100 keys, has longer left runs that stay below RunMin, so it stays
// row-major; its TileR of 8 is narrower than accum.RunCols, so ScatterRuns
// hands every match to the per-update loop. Seeds 3, 5 and 8 (TileR 64 or
// 128) send their short matches there one batch at a time.
//
// The self leg runs l against itself with square tiles, with the sparse
// accumulator and, over TileL rounded up to a power of two, the dense one.
// When ctr16's top bit is set it draws its own operand with a key extent
// 1000 times wider, so most of a tile's keys live in no other tile and the
// runs iterate partial shared-key lists: seeds 14–17 cut 16 to 102
// tiles of few nonzeros each, and nearly every tile lists a strict subset
// of its keys, most tiles of seeds 14 and 16 none at all.
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
	// exercised on every fuzz execution of this seed.
	f.Add(int64(8), uint16(120), uint16(110), uint16(61), uint16(40), uint16(40), uint16(800), uint16(0), uint16(0))
	// Disk-tier seeds: 1-byte cache budget spills every cold shard, with
	// non-dividing tile sides so partial remainder tiles round-trip through
	// the spill encoding. Seed 10's 48-byte spill budget cannot hold any
	// real shard image — every spill attempt fails over budget and must
	// fall back to plain eviction + rebuild.
	f.Add(int64(9), uint16(100), uint16(90), uint16(30), uint16(7), uint16(13), uint16(600), uint16(1), uint16(32768))
	f.Add(int64(10), uint16(257), uint16(129), uint16(17), uint16(23), uint16(31), uint16(900), uint16(1), uint16(48))
	// Dense-layout seeds (see above): TileL 100 with the top bit set rounds
	// to 128.
	f.Add(int64(11), uint16(100), uint16(999), uint16(1), uint16(32899), uint16(3), uint16(1500), uint16(0), uint16(0))
	f.Add(int64(12), uint16(999), uint16(100), uint16(1), uint16(3), uint16(99), uint16(1500), uint16(0), uint16(0))
	f.Add(int64(13), uint16(100), uint16(999), uint16(99), uint16(32899), uint16(7), uint16(800), uint16(0), uint16(0))
	// Shared-key list seeds (see above): ctr16 0x8000|c widens the self
	// leg's key extent to 1000·(c+1).
	f.Add(int64(14), uint16(999), uint16(500), uint16(0x8000|99), uint16(11), uint16(16), uint16(600), uint16(0), uint16(0))
	f.Add(int64(15), uint16(999), uint16(500), uint16(0x8000|49), uint16(20), uint16(16), uint16(1500), uint16(0), uint16(0))
	f.Add(int64(16), uint16(800), uint16(300), uint16(0x8000|99), uint16(6), uint16(16), uint16(250), uint16(0), uint16(0))
	f.Add(int64(17), uint16(999), uint16(500), uint16(0x8000|9), uint16(40), uint16(16), uint16(1999), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, extL16, extR16, ctr16, tl16, tr16, nnz16, budget16, spill16 uint16) {
		extL := uint64(extL16%1000) + 1
		extR := uint64(extR16%1000) + 1
		ctr := uint64(ctr16&0x7fff%100) + 1
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
		want := referenceSorted(l, r)
		// Sparse accumulator: no power-of-two TileR constraint, so every
		// fuzzed geometry is legal.
		got, _ := collectSorted(t, l, r, Config{
			Threads: 3, TileL: tileL, TileR: tileR,
			Accum: model.AccumSparse, Platform: tinyLLC,
		})
		if !coo.Equal(got, want) {
			t.Fatalf("tile=%dx%d: mismatch vs reference", tileL, tileR)
		}
		// Dense leg: integer values, so every layout and scatter must match
		// the reference exactly, duplicate coordinates included.
		denseL, denseR := tileL, pow2Ceil(tileR)
		if tl16&0x8000 != 0 {
			denseL = max(64, pow2Ceil(tileL))
		}
		got, st := collectSorted(t, l, r, Config{
			Threads: 3, TileL: denseL, TileR: denseR,
			Accum: model.AccumDense, Platform: tinyLLC,
		})
		if !coo.Equal(got, want) {
			t.Fatalf("dense tile=%dx%d rmajor=%v: mismatch vs reference", denseL, denseR, st.RMajor)
		}
		// Self leg: an operand against itself with square tiles takes the
		// symmetric schedule, with both accumulators.
		self := l
		if ctr16&0x8000 != 0 {
			self = randomMatrix(rng, extL, 1000*ctr, nnz)
		}
		wantSelf := referenceSorted(self, self)
		for _, leg := range []struct {
			acc  model.AccumKind
			tile uint64
		}{{model.AccumSparse, tileL}, {model.AccumDense, pow2Ceil(tileL)}} {
			cfg := Config{
				Threads: 3, TileL: leg.tile, TileR: leg.tile,
				Accum: leg.acc, Platform: tinyLLC,
			}
			checkSelfLeg(t, fmt.Sprintf("self %v tile=%d", leg.acc, leg.tile), self, cfg, wantSelf)
		}
	})
}
