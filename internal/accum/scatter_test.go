package accum

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"fastcc/internal/hashtable"
)

// runLens are the inner-run lengths the ScatterRuns property test draws
// from: empty, below, at and above RunMin, and runs longer than a 64-wide
// row, which must repeat indices.
var runLens = []int{0, 1, RunMin - 1, RunMin, RunMin + 1, 3 * RunMin, 150}

// floatRun builds a pair run of n float values with indices below bound.
// With dups set the indices come from a quarter of the range, so most
// longer runs repeat some.
func floatRun(rng *rand.Rand, n int, bound uint32, dups bool) []hashtable.Pair {
	span := int(bound)
	if dups && span > 4 {
		span /= 4
	}
	ps := make([]hashtable.Pair, n)
	for i := range ps {
		ps[i] = hashtable.Pair{Idx: uint32(rng.Intn(span)), Val: rng.NormFloat64()}
	}
	return ps
}

// drainBits drains a dense tile into a map of value bits, failing on a
// position drained twice.
func drainBits(t *testing.T, d *Dense) map[[2]uint32]uint64 {
	t.Helper()
	m := map[[2]uint32]uint64{}
	d.Drain(func(l, r uint32, v float64) {
		k := [2]uint32{l, r}
		if _, dup := m[k]; dup {
			t.Fatalf("position (%d,%d) drained twice", l, r)
		}
		m[k] = math.Float64bits(v)
	})
	return m
}

// TestScatterRunsMatchesScatterMatches is the ScatterRuns property test: on
// random float matches it must touch the same cells as ScatterMatches (Len)
// and leave the same bits in every one, for row widths below one mask word
// (the per-update fallback) and of one, eight and 64 words, with inner runs
// below, at and above RunMin and indices repeated on both sides. Several
// batches share each tile before the drain, so first touches also meet
// cells an earlier batch set, and the run mask must be clear after every
// call.
func TestScatterRunsMatchesScatterMatches(t *testing.T) {
	const tl = 24
	rng := rand.New(rand.NewSource(22))
	for _, tr := range []uint32{16, 64, 512, 4096} {
		want, got := NewDense(tl, tr), NewDense(tl, tr)
		for trial := 0; trial < 40; trial++ {
			for batch := rng.Intn(3); batch >= 0; batch-- {
				var ms []Match
				for k := rng.Intn(6); k >= 0; k-- {
					ms = append(ms, Match{
						L: floatRun(rng, rng.Intn(30), tl, rng.Intn(2) == 0),
						R: floatRun(rng, runLens[rng.Intn(len(runLens))], tr, rng.Intn(2) == 0),
					})
				}
				want.ScatterMatches(ms)
				got.ScatterRuns(ms)
				for w, bits := range got.run {
					if bits != 0 {
						t.Fatalf("TR=%d trial %d: run mask word %d = %#x after ScatterRuns", tr, trial, w, bits)
					}
				}
				if len(got.runWords) != 0 {
					t.Fatalf("TR=%d trial %d: %d run words listed after ScatterRuns", tr, trial, len(got.runWords))
				}
			}
			if want.Len() != got.Len() {
				t.Fatalf("TR=%d trial %d: Len %d, ScatterMatches %d", tr, trial, got.Len(), want.Len())
			}
			wm, gm := drainBits(t, want), drainBits(t, got)
			if len(wm) != len(gm) {
				t.Fatalf("TR=%d trial %d: drained %d cells, ScatterMatches %d", tr, trial, len(gm), len(wm))
			}
			for k, bits := range wm {
				if gb, ok := gm[k]; !ok || gb != bits {
					t.Fatalf("TR=%d trial %d: (%d,%d) bits %#x, ScatterMatches %#x", tr, trial, k[0], k[1], gb, bits)
				}
			}
		}
	}
}

// distinctRun builds a pair run of n distinct indices below bound, as one
// key's run in a duplicate-free tile.
func distinctRun(rng *rand.Rand, n int, bound uint32) []hashtable.Pair {
	ps := make([]hashtable.Pair, n)
	for i, idx := range rng.Perm(int(bound))[:n] {
		ps[i] = hashtable.Pair{Idx: uint32(idx), Val: rng.NormFloat64()}
	}
	return ps
}

var denseSink float64

// BenchmarkDenseScatter times one 512×512 dense tile's scatter and drain
// and reports ns per update, for ScatterMatches on the row-major tile
// (matches) and ScatterRuns on the R-major one (runs), whose matches carry
// the same runs swapped. The qc cases are vv·ov- and vv·oo-shaped, with a
// left run of 300 pairs and a right run of 16 or 4; the frostt cases have
// runs of 1 and of 7 on both sides, which ScatterRuns sends to its
// per-update loop. Matches go in batches of 16, as the kernels send them.
func BenchmarkDenseScatter(b *testing.B) {
	const side = 512
	cases := []struct {
		name           string
		long, short, n int
	}{
		{"qc-300x16", 300, 16, 256},
		{"qc-300x4", 300, 4, 1024},
		{"frostt-1", 1, 1, 8192},
		{"frostt-7", 7, 7, 1024},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(1))
		rowMajor := make([]Match, c.n)
		rMajor := make([]Match, c.n)
		for i := range rowMajor {
			l, r := distinctRun(rng, c.long, side), distinctRun(rng, c.short, side)
			rowMajor[i] = Match{L: l, R: r}
			rMajor[i] = Match{L: r, R: l}
		}
		updates := float64(c.n * c.long * c.short)
		for _, v := range []struct {
			name string
			ms   []Match
			fn   func(*Dense, []Match)
		}{
			{"matches", rowMajor, (*Dense).ScatterMatches},
			{"runs", rMajor, (*Dense).ScatterRuns},
		} {
			b.Run(fmt.Sprintf("%s/%s", c.name, v.name), func(b *testing.B) {
				d := NewDense(side, side)
				sum := 0.0
				drain := func(_, _ uint32, val float64) { sum += val }
				b.ResetTimer()
				t0 := time.Now()
				for i := 0; i < b.N; i++ {
					for lo := 0; lo < len(v.ms); lo += 16 {
						v.fn(d, v.ms[lo:min(lo+16, len(v.ms))])
					}
					d.Drain(drain)
				}
				b.ReportMetric(float64(time.Since(t0).Nanoseconds())/(float64(b.N)*updates), "ns/update")
				denseSink = sum
			})
		}
	}
}
