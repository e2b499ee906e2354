package accum

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// batchAccum is what the engine drains: an accumulator with the batched
// scatter and the batch drain.
type batchAccum interface {
	Accumulator
	ScatterMatches(ms []Match)
	DrainBatch(keys []uint64, vals []float64) int
}

// cell is one drained cell: its packed key l<<32 | r and its value bits.
type cell struct{ key, bits uint64 }

// drainInBatches drains a through DrainBatch with buffers of width cells and
// returns the cells in drain order and each batch's size.
func drainInBatches(a batchAccum, width int) (cells []cell, sizes []int) {
	keys, vals := make([]uint64, width), make([]float64, width)
	for n := a.DrainBatch(keys, vals); n > 0; n = a.DrainBatch(keys, vals) {
		for i := range n {
			cells = append(cells, cell{keys[i], math.Float64bits(vals[i])})
		}
		sizes = append(sizes, n)
	}
	return cells, sizes
}

// drainFn drains a through the Accumulator interface's Drain.
func drainFn(a Accumulator) []cell {
	var cells []cell
	a.Drain(func(l, r uint32, v float64) {
		cells = append(cells, cell{uint64(l)<<32 | uint64(r), math.Float64bits(v)})
	})
	return cells
}

// slotOrder lists a sparse tile's keys in slot order.
func slotOrder(s *Sparse) []uint64 {
	var keys []uint64
	s.t.ForEach(func(k uint64, _ float64) { keys = append(keys, k) })
	return keys
}

// TestBatchDrainProperty drives Dense and Sparse through random float
// scatters, ScatterMatches, ScatterRuns and Upsert mixed, and drains them in
// batches of 64, 65 and DrainWidth cells. Tiles narrower than one bitmask
// word, one word wide and wider, and R-major-shaped ones (more rows than
// columns) all run; each tile is reused over rounds that leave it empty,
// filled sparsely or nearly full, or Reset mid-drain. Every round must
// drain each touched cell once with the bits of an Upsert-order model, in
// ascending position for Dense and in the table's slot order for Sparse,
// cell for cell as Drain(fn) drains a twin fed the same updates; a second
// drain must return nothing. Dense rounds that touch cell 0 and the whole
// second bitmask word must stop a 64-cell batch before that word and
// resume at it; TestFloatTableDrainBatchEdge does the same for Sparse's
// table.
func TestBatchDrainProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	shapes := []struct{ tl, tr uint32 }{{24, 16}, {40, 32}, {32, 64}, {16, 512}, {512, 64}}
	for _, sh := range shapes {
		for _, width := range []int{64, 65, DrainWidth} {
			name := fmt.Sprintf("%dx%d/width=%d", sh.tl, sh.tr, width)
			accs := []struct {
				kind    string
				a, twin batchAccum
			}{
				{kind: "dense", a: NewDense(sh.tl, sh.tr), twin: NewDense(sh.tl, sh.tr)},
				{kind: "sparse", a: NewSparse(8), twin: NewSparse(8)},
			}
			for _, acc := range accs {
				for round := 0; round < 8; round++ {
					what := fmt.Sprintf("%s/%s/round %d", name, acc.kind, round)
					model := map[uint64]float64{}
					upsert := func(l, r uint32, v float64) {
						acc.a.Upsert(l, r, v)
						acc.twin.Upsert(l, r, v)
						model[uint64(l)<<32|uint64(r)] += v
					}
					edge := acc.kind == "dense" && round == 1
					switch {
					case round == 0: // empty tile
					case edge:
						upsert(0, 0, rng.NormFloat64())
						for p := uint32(64); p < 128; p++ {
							upsert(p/sh.tr, p%sh.tr, rng.NormFloat64())
						}
					default:
						cells := int(sh.tl) * int(sh.tr)
						for u := rng.Intn(cells * (1 + round%4)); u > 0; {
							m := Match{
								L: floatRun(rng, 1+rng.Intn(8), sh.tl, rng.Intn(2) == 0),
								R: floatRun(rng, runLens[rng.Intn(len(runLens))], sh.tr, rng.Intn(2) == 0),
							}
							for _, lp := range m.L {
								for _, rp := range m.R {
									model[uint64(lp.Idx)<<32|uint64(rp.Idx)] += lp.Val * rp.Val
								}
							}
							u -= len(m.L) * len(m.R)
							ms := []Match{m}
							if d, ok := acc.a.(*Dense); ok && rng.Intn(2) == 0 {
								d.ScatterRuns(ms)
							} else {
								acc.a.ScatterMatches(ms)
							}
							acc.twin.ScatterMatches(ms)
						}
						if rng.Intn(3) == 0 {
							upsert(uint32(rng.Intn(int(sh.tl))), uint32(rng.Intn(int(sh.tr))), rng.NormFloat64())
						}
					}
					if got := acc.a.Len(); got != len(model) {
						t.Fatalf("%s: Len %d, want %d", what, got, len(model))
					}
					if round == 5 {
						// Reset mid-drain: the next round must start from zero.
						keys, vals := make([]uint64, width), make([]float64, width)
						acc.a.DrainBatch(keys, vals)
						acc.a.Reset()
						acc.twin.Reset()
						if acc.a.Len() != 0 {
							t.Fatalf("%s: Len %d after Reset", what, acc.a.Len())
						}
						continue
					}
					var order []uint64
					if s, ok := acc.a.(*Sparse); ok {
						order = slotOrder(s)
					}
					got, sizes := drainInBatches(acc.a, width)
					if len(got) != len(model) {
						t.Fatalf("%s: drained %d cells, want %d", what, len(got), len(model))
					}
					for i, c := range got {
						if want, ok := model[c.key]; !ok || math.Float64bits(want) != c.bits {
							t.Fatalf("%s: cell (%d,%d) drained bits %#x, want %#x (touched %v)", what, c.key>>32, uint32(c.key), c.bits, math.Float64bits(want), ok)
						}
						delete(model, c.key)
						if order != nil && c.key != order[i] {
							t.Fatalf("%s: cell %d drained key %#x, slot order %#x", what, i, c.key, order[i])
						}
						if order == nil && i > 0 && c.key <= got[i-1].key {
							t.Fatalf("%s: cell %d key %#x after %#x, not ascending", what, i, c.key, got[i-1].key)
						}
					}
					for _, n := range sizes {
						if n > width {
							t.Fatalf("%s: batch of %d cells in a %d-cell buffer", what, n, width)
						}
					}
					if edge && fmt.Sprint(sizes) != map[int]string{64: "[1 64]", 65: "[65]", DrainWidth: "[65]"}[width] {
						t.Fatalf("%s: batches %v around a full word", what, sizes)
					}
					if twin := drainFn(acc.twin); !slices.Equal(twin, got) {
						t.Fatalf("%s: Drain(fn) drained %d cells, batches %d, or in another order or with other bits", what, len(twin), len(got))
					}
					if again, _ := drainInBatches(acc.a, width); len(again) != 0 || acc.a.Len() != 0 {
						t.Fatalf("%s: second drain returned %d cells, Len %d", what, len(again), acc.a.Len())
					}
				}
			}
		}
	}
}

var drainSink float64

// BenchmarkTileDrain times the drain alone, after an untimed scatter, and
// reports ns per drained cell: 512×512 dense tiles at the fills of the QC
// tiles (1%), chicago-0's (33%) and chicago-01's (86%), touched in random
// order, and a sparse table of 2^19 entries. Each drains through DrainBatch
// (batch), as the engine does, and through Drain with a closure per cell
// (fn).
func BenchmarkTileDrain(b *testing.B) {
	const side = 512
	type tile struct {
		name  string
		a     batchAccum
		cells []uint64
	}
	var tiles []tile
	rng := rand.New(rand.NewSource(1))
	for _, pct := range []int{1, 33, 86} {
		perm := rng.Perm(side * side)[:side*side*pct/100]
		cells := make([]uint64, len(perm))
		for i, p := range perm {
			cells[i] = uint64(p/side)<<32 | uint64(p%side)
		}
		tiles = append(tiles, tile{fmt.Sprintf("dense-%d%%", pct), NewDense(side, side), cells})
	}
	sparse := make([]uint64, 1<<19)
	for i := range sparse {
		sparse[i] = uint64(rng.Intn(1<<20))<<32 | uint64(rng.Intn(1<<20))
	}
	tiles = append(tiles, tile{"sparse-2^19", NewSparse(1 << 19), sparse})
	for _, tl := range tiles {
		for _, via := range []string{"batch", "fn"} {
			b.Run(tl.name+"/"+via, func(b *testing.B) {
				var keys [DrainWidth]uint64
				var vals [DrainWidth]float64
				sum, drained := 0.0, 0
				var spent time.Duration
				for i := 0; i < b.N; i++ {
					for _, k := range tl.cells {
						tl.a.Upsert(uint32(k>>32), uint32(k), 1)
					}
					t0 := time.Now()
					if via == "batch" {
						for n := tl.a.DrainBatch(keys[:], vals[:]); n > 0; n = tl.a.DrainBatch(keys[:], vals[:]) {
							for _, v := range vals[:n] {
								sum += v
							}
							drained += n
						}
					} else {
						tl.a.Drain(func(_, _ uint32, v float64) { sum += v; drained++ })
					}
					spent += time.Since(t0)
				}
				b.ReportMetric(float64(spent.Nanoseconds())/float64(drained), "ns/cell")
				drainSink = sum
			})
		}
	}
}
