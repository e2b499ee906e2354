package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fastcc/internal/coo"
	"fastcc/internal/hashtable"
	"fastcc/internal/mempool"
	"fastcc/internal/metrics"
	"fastcc/internal/model"
)

// TestKernelResolution pins the once-per-run dispatch: the run's
// accumulator kind, model-chosen or forced, picks the kernel, and every
// tile task is counted in KernelTasks under that kind and no other.
func TestKernelResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := randomMatrix(rng, 120, 30, 900)
	r := randomMatrix(rng, 110, 30, 800)
	for _, acc := range []model.AccumKind{model.AccumAuto, model.AccumDense, model.AccumSparse} {
		var ctr metrics.Counters
		cfg := Config{Threads: 2, TileL: 32, TileR: 32, Accum: acc, Platform: tinyLLC, Counters: &ctr}
		out, st, err := contract(l, r, cfg)
		if err != nil {
			t.Fatalf("%v: %v", acc, err)
		}
		RecycleOutput(out)
		kind := st.Decision.Kind
		if acc != model.AccumAuto && kind != acc {
			t.Fatalf("%v: the run took kind %v", acc, kind)
		}
		tasks := ctr.Snapshot().KernelTasks
		var total int64
		for _, n := range tasks {
			total += n
		}
		if tasks[kind] != int64(st.Tasks) || total != int64(st.Tasks) {
			t.Fatalf("%v: kernel tasks %v, want all %d under kind %v", acc, tasks, st.Tasks, kind)
		}
	}
}

// tileCols collects one tile's nonzeros as the (key, intra index, value)
// columns a partition segment holds, for hashtable.BuildSealed.
type tileCols struct {
	ctr   []uint64
	intra []uint32
	val   []float64
}

func (c *tileCols) add(key uint64, idx uint32, v float64) {
	c.ctr = append(c.ctr, key)
	c.intra = append(c.intra, idx)
	c.val = append(c.val, v)
}

func (c *tileCols) build(keyHint int) *hashtable.Sealed {
	return hashtable.BuildSealed(c.ctr, c.intra, c.val, keyHint)
}

// TestIterateSmallerSideByDistinctKeys is the heuristic regression test: an
// asymmetric tile pair where the LEFT table has many distinct keys with one
// pair each and the RIGHT has few keys with many pairs each. Iterating by
// distinct-key count means the query count equals the right side's key
// count; a pair-count (or fixed-side) heuristic would iterate the left.
// Both hash kernels must make this choice — their accumulation order (and
// so the output bits) depends on it.
func TestIterateSmallerSideByDistinctKeys(t *testing.T) {
	const manyKeys, fewKeys, pairsPerKey = 90, 7, 40
	var big, small tileCols
	for k := 0; k < manyKeys; k++ {
		big.add(uint64(k), uint32(k%31), 1)
	}
	for k := 0; k < fewKeys; k++ {
		for p := 0; p < pairsPerKey; p++ {
			small.add(uint64(k), uint32(p), 1) // pair count 280 >> big's 90
		}
	}
	hl, hr := big.build(manyKeys), small.build(fewKeys)
	for _, dir := range []struct {
		name   string
		hl, hr *hashtable.Sealed
	}{{"small-right", hl, hr}, {"small-left", hr, hl}} {
		iter, probeInto, _ := chooseSides(dir.hl, dir.hr)
		if iter.Len() != fewKeys || probeInto.Len() != manyKeys {
			t.Fatalf("%s: chooseSides iterated the %d-key side", dir.name, iter.Len())
		}
		for _, kern := range []struct {
			name string
			kind model.AccumKind
			run  func(wk *worker, ctr *metrics.Counters)
		}{
			{"hash-dense", model.AccumDense, func(wk *worker, ctr *metrics.Counters) {
				contractHashDense(dir.hl, dir.hr, nil, nil, wk, ctr, hashtable.LookupBatchMax)
			}},
			{"hash-sparse", model.AccumSparse, func(wk *worker, ctr *metrics.Counters) {
				contractHashSparse(dir.hl, dir.hr, nil, nil, wk, ctr, hashtable.LookupBatchMax)
			}},
		} {
			var ctr metrics.Counters
			wk := newWorker(kern.kind, 128, 32, 64)
			pool := outputChunks.NewPool()
			kern.run(wk, &ctr)
			wk.drain(pool, 0, 0, false)
			outputChunks.Release(mempool.Concat(pool))
			if q := ctr.Snapshot().Queries; q != fewKeys {
				t.Fatalf("%s/%s: %d queries, want %d (cheaper side not iterated)",
					dir.name, kern.name, q, fewKeys)
			}
		}
	}
}

// TestHashKernelProbeCounters checks the new observability: the kernels
// report probe batches, and hits+misses add up to queries.
func TestHashKernelProbeCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l := randomMatrix(rng, 200, 40, 1500)
	r := randomMatrix(rng, 180, 40, 1300)
	for _, acc := range []model.AccumKind{model.AccumDense, model.AccumSparse} {
		var ctr metrics.Counters
		out, st, err := contract(l, r, Config{
			Threads: 2, TileL: 32, TileR: 32, Accum: acc, Platform: tinyLLC, Counters: &ctr,
		})
		if err != nil {
			t.Fatalf("accum=%v: %v", acc, err)
		}
		RecycleOutput(out)
		s := ctr.Snapshot()
		if s.ProbeBatches == 0 {
			t.Fatalf("accum=%v: no probe batches recorded", acc)
		}
		if s.ProbeHits+s.ProbeMisses != s.Queries {
			t.Fatalf("accum=%v: hits %d + misses %d != queries %d", acc, s.ProbeHits, s.ProbeMisses, s.Queries)
		}
		if s.ProbeHits == 0 {
			t.Fatalf("accum=%v: contraction with output found no probe hits", acc)
		}
		if got := s.KernelTasks[st.Decision.Kind]; got != int64(st.Tasks) {
			t.Fatalf("accum=%v: kernel ran %d tasks, stats say %d", acc, got, st.Tasks)
		}
	}
}

// diagonalCounts is what the diagonal pairs of a self-contraction of m with
// square tiles of side tile add up to: one query per distinct key of each
// tile, each key run counted twice in the volume, and its length squared
// in the updates.
func diagonalCounts(m *coo.Matrix, tile uint64) (queries, volume, updates int64) {
	runs := map[[2]uint64]int64{}
	for k := range m.Ext {
		runs[[2]uint64{m.Ext[k] / tile, m.Ctr[k]}]++
	}
	for _, n := range runs {
		queries++
		volume += 2 * n
		updates += n * n
	}
	return queries, volume, updates
}

// offDiagonalQueries is what the off-diagonal pairs of a symmetric run
// over m with square tiles of side tile add to Queries: per pair of
// non-empty tiles, the length of the iterated side's shared-key list, or
// its key count when it keeps none. The iterated side is the tile with
// fewer keys, the left one on a tie (chooseSides). lists reports whether
// the shard keeps any list.
func offDiagonalQueries(m *coo.Matrix, tile uint64) (queries int64, lists bool) {
	o := NewOperand(m)
	defer o.Close()
	s, _ := o.Shard(ShardKey{Tile: tile}, 1)
	defer s.Unpin()
	ne := s.NonEmpty()
	for a, i := range ne {
		for _, j := range ne[a+1:] {
			it := i
			if s.sealed[j].Len() < s.sealed[i].Len() {
				it = j
			}
			if l := s.sharedAt(it); l != nil {
				queries += int64(len(l))
			} else {
				queries += int64(s.sealed[it].Len())
			}
		}
	}
	return queries, s.shared != nil
}

// TestSymmetricScheduleCounters pins the symmetric schedule's accounting
// against the full grid over the same matrix, for both kernels. It runs
// nT·(nT+1)/2 tasks, each counted in KernelTasks. Diagonal pairs add
// queries, volume and updates but no probe batches, hits or misses. Each
// off-diagonal pair counts once for the two pairs (i, j) and (j, i) the
// full grid runs, except for queries and misses: there an off-diagonal
// pair iterates only its shared-key list. The second
// matrix's contraction extent is 13 times its nonzero count, so most of
// its tiles' keys live in no other tile and its multi-tile shards keep
// lists; every key of the first is shared, so its shards keep none.
func TestSymmetricScheduleCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	mats := []*coo.Matrix{
		randomMatrix(rng, 200, 40, 1500),
		randomMatrix(rng, 200, 20000, 1500),
	}
	for mi, m := range mats {
		for _, tile := range []uint64{32, 256} {
			nT := int((m.ExtDim + tile - 1) / tile)
			dq, dv, du := diagonalCounts(m, tile)
			oq, lists := offDiagonalQueries(m, tile)
			if lists != (mi == 1 && nT > 1) {
				t.Fatalf("matrix %d tile=%d: shard keeps lists = %v", mi, tile, lists)
			}
			for _, acc := range []model.AccumKind{model.AccumDense, model.AccumSparse} {
				name := fmt.Sprintf("matrix %d tile=%d %v", mi, tile, acc)
				run := func(r *coo.Matrix) (*Stats, metrics.Snapshot) {
					var ctr metrics.Counters
					out, st, err := contract(m, r, Config{
						Threads: 2, TileL: tile, TileR: tile, Accum: acc,
						Platform: tinyLLC, Counters: &ctr,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					RecycleOutput(out)
					return st, ctr.Snapshot()
				}
				st, s := run(m)
				fst, f := run(twin(m))
				if !st.Symmetric || st.Tasks != nT*(nT+1)/2 || fst.Symmetric || fst.Tasks != nT*nT {
					t.Fatalf("%s: tasks %d (symmetric %v) and %d (symmetric %v), want %d and %d",
						name, st.Tasks, st.Symmetric, fst.Tasks, fst.Symmetric, nT*(nT+1)/2, nT*nT)
				}
				k := st.Decision.Kind
				if s.KernelTasks[k] != int64(st.Tasks) || f.KernelTasks[k] != int64(fst.Tasks) {
					t.Fatalf("%s: kernel tasks %d and %d, stats say %d and %d",
						name, s.KernelTasks[k], f.KernelTasks[k], st.Tasks, fst.Tasks)
				}
				if !strings.Contains(st.String(), " sym ") || strings.Contains(fst.String(), " sym") {
					t.Fatalf("%s: sym marker wrong:\n%s\n%s", name, st.String(), fst.String())
				}
				if s.Output != f.Output {
					t.Fatalf("%s: %d output triples, full grid %d", name, s.Output, f.Output)
				}
				for _, q := range []struct {
					what             string
					self, full, diag int64
				}{
					{"volume", s.Volume, f.Volume, dv},
					{"updates", s.Updates, f.Updates, du},
				} {
					if q.full-q.diag != 2*(q.self-q.diag) {
						t.Fatalf("%s: %s %d on the symmetric schedule, %d on the full grid, diagonal %d",
							name, q.what, q.self, q.full, q.diag)
					}
				}
				// Only off-diagonal pairs probe, and only the listed keys of
				// the side they iterate. On the full grid every diagonal key
				// hits its twin table, and the lists drop no hit.
				if s.Queries != dq+oq {
					t.Fatalf("%s: %d queries on the symmetric schedule, want %d diagonal keys + %d listed",
						name, s.Queries, dq, oq)
				}
				if s.ProbeHits+s.ProbeMisses != s.Queries-dq || f.ProbeHits != dq+2*s.ProbeHits {
					t.Fatalf("%s: symmetric hits %d misses %d queries %d, full grid hits %d, diagonal keys %d",
						name, s.ProbeHits, s.ProbeMisses, s.Queries, f.ProbeHits, dq)
				}
				if lists && 2*s.ProbeMisses >= f.ProbeMisses || !lists && 2*s.ProbeMisses != f.ProbeMisses {
					t.Fatalf("%s: symmetric misses %d, full grid %d, lists %v",
						name, s.ProbeMisses, f.ProbeMisses, lists)
				}
				if nT == 1 && s.ProbeBatches != 0 {
					t.Fatalf("%s: a lone diagonal pair made %d probe batches", name, s.ProbeBatches)
				}
			}
		}
	}

	// Spill leg: a shard reloaded from the disk tier rebuilds its lists, so
	// a symmetric run over it probes exactly as over the built shard.
	enableSpill(t, 0)
	defer SetShardBudget(0)
	SetShardBudget(-1)
	o := NewOperand(mats[1])
	defer o.Close()
	cfg := Config{Threads: 2, TileL: 32, TileR: 32, Accum: model.AccumSparse, Platform: tinyLLC}
	probe := func() metrics.Snapshot {
		var ctr metrics.Counters
		cfg.Counters = &ctr
		out, _, err := ContractOperands(o, o, cfg)
		if err != nil {
			t.Fatal(err)
		}
		RecycleOutput(out)
		return ctr.Snapshot()
	}
	built := probe()
	before := CacheStats()
	SetShardBudget(1)
	SetShardBudget(-1)
	reloaded := probe()
	if now := CacheStats(); now.SpillWrites == before.SpillWrites || now.SpillReads == before.SpillReads {
		t.Fatalf("the shard did not go through the disk tier: %+v then %+v", before, now)
	}
	if reloaded.Queries != built.Queries || reloaded.ProbeMisses != built.ProbeMisses {
		t.Fatalf("reloaded shard: %d queries, %d misses; built: %d queries, %d misses",
			reloaded.Queries, reloaded.ProbeMisses, built.Queries, built.ProbeMisses)
	}
}

// TestWorkspaceCountsClaimedWorkers checks the dense workspace against the
// accumulators that exist: one tile per worker that claimed a block. The
// pool starts no more workers than there are blocks, so a one-block run at
// four threads holds one 64×64 accumulator, not four.
func TestWorkspaceCountsClaimedWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	l := randomMatrix(rng, 50, 20, 300)
	r := randomMatrix(rng, 60, 20, 300)
	var ctr metrics.Counters
	out, st, err := contract(l, r, Config{
		Threads: 4, TileL: 64, TileR: 64, Accum: model.AccumDense, Counters: &ctr,
	})
	if err != nil {
		t.Fatal(err)
	}
	RecycleOutput(out)
	if st.Blocks != 1 {
		t.Fatalf("%d blocks, want 1", st.Blocks)
	}
	if got := ctr.Snapshot().WorkspaceWords; got != 64*64 {
		t.Fatalf("workspace %d words, want %d: one worker claimed the one block", got, 64*64)
	}
}

// TestTileNNZHintClamps pins the sparse-hint clamp boundaries, including the
// NaN expectation a degenerate PNonzero produces (int(NaN) is
// implementation-defined, so NaN must take the floor branch explicitly).
func TestTileNNZHintClamps(t *testing.T) {
	mk := func(p float64) model.Decision { return model.Decision{PNonzero: p} }
	cases := []struct {
		name   string
		dec    model.Decision
		tl, tr uint64
		want   int
	}{
		{"below floor", mk(1e-9), 100, 100, 64},
		{"at floor", mk(1), 8, 8, 64},
		{"just above floor", mk(1), 13, 5, 65},
		{"interior", mk(0.5), 1000, 1000, 500000},
		{"above ceiling", mk(1), 1 << 16, 1 << 16, 1 << 22},
		{"zero pnonzero", mk(0), 1000, 1000, 64},
		{"nan pnonzero", mk(math.NaN()), 1000, 1000, 64},
		{"nan from inf times zero", mk(math.Inf(1)), 0, 1000, 64},
	}
	for _, c := range cases {
		if got := tileNNZHint(c.dec, c.tl, c.tr); got != c.want {
			t.Errorf("%s: tileNNZHint = %d, want %d", c.name, got, c.want)
		}
	}
}

// benchTilePairData builds one asymmetric tile pair with a realistic key
// overlap.
type benchTilePairData struct {
	hl, hr *hashtable.Sealed
}

func newBenchTilePair(nKeysL, nKeysR, pairsPerKey int) *benchTilePairData {
	mkSealed := func(nKeys, stride int) *hashtable.Sealed {
		var tc tileCols
		for k := 0; k < nKeys; k++ {
			for p := 0; p < pairsPerKey; p++ {
				tc.add(uint64(k*stride), uint32((k+p)%32), 1.25)
			}
		}
		return tc.build(nKeys)
	}
	// Left keys stride 1, right stride 2: half the smaller side intersects.
	return &benchTilePairData{hl: mkSealed(nKeysL, 1), hr: mkSealed(nKeysR, 2)}
}

// BenchmarkTilePair times each microkernel on one tile pair —
// `go test -bench TilePair ./internal/core` isolates the inner loops from
// build, scheduling and output handling.
func BenchmarkTilePair(b *testing.B) {
	const tl, tr = 64, 32
	d := newBenchTilePair(1024, 512, 8)
	run := func(name string, kind model.AccumKind, fn func(wk *worker)) {
		b.Run(name, func(b *testing.B) {
			wk := newWorker(kind, tl, tr, 1<<12)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pool := outputChunks.NewPool()
				fn(wk)
				wk.drain(pool, 0, 0, false)
				outputChunks.Release(mempool.Concat(pool))
			}
		})
	}
	run("hash/dense", model.AccumDense, func(wk *worker) {
		contractHashDense(d.hl, d.hr, nil, nil, wk, nil, hashtable.LookupBatchMax)
	})
	run("hash/sparse", model.AccumSparse, func(wk *worker) {
		contractHashSparse(d.hl, d.hr, nil, nil, wk, nil, hashtable.LookupBatchMax)
	})
}
