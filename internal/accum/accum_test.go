package accum

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fastcc/internal/hashtable"
)

// exerciseAgainstMap drives an accumulator with random upserts and checks
// the drain against a map model, twice, to verify reuse after drain.
func exerciseAgainstMap(t *testing.T, a Accumulator, tl, tr uint32, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 2; round++ {
		model := map[[2]uint32]float64{}
		n := rng.Intn(500)
		for i := 0; i < n; i++ {
			l := uint32(rng.Intn(int(tl)))
			r := uint32(rng.Intn(int(tr)))
			v := float64(rng.Intn(9) - 4)
			a.Upsert(l, r, v)
			model[[2]uint32{l, r}] += v
		}
		if a.Len() != len(model) {
			t.Fatalf("round %d: Len=%d want %d", round, a.Len(), len(model))
		}
		got := map[[2]uint32]float64{}
		a.Drain(func(l, r uint32, v float64) {
			k := [2]uint32{l, r}
			if _, dup := got[k]; dup {
				t.Fatalf("round %d: position (%d,%d) drained twice", round, l, r)
			}
			got[k] = v
		})
		if len(got) != len(model) {
			t.Fatalf("round %d: drained %d want %d", round, len(got), len(model))
		}
		for k, want := range model {
			if got[k] != want {
				t.Fatalf("round %d: (%d,%d)=%g want %g", round, k[0], k[1], got[k], want)
			}
		}
		if a.Len() != 0 {
			t.Fatalf("round %d: Len=%d after drain", round, a.Len())
		}
	}
}

func TestDenseAgainstMap(t *testing.T) {
	exerciseAgainstMap(t, NewDense(13, 16), 13, 16, 1)
}

func TestSparseAgainstMap(t *testing.T) {
	exerciseAgainstMap(t, NewSparse(4), 1<<10, 1<<10, 2)
}

func TestDenseRequiresPow2TR(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for non-power-of-two TR")
		}
	}()
	NewDense(8, 12)
}

func TestDenseResetClearsState(t *testing.T) {
	d := NewDense(4, 4)
	d.Upsert(1, 2, 5)
	d.Upsert(3, 3, 1)
	d.Reset()
	if d.Len() != 0 {
		t.Fatal("Len after Reset")
	}
	d.Upsert(1, 2, 7)
	seen := 0
	d.Drain(func(l, r uint32, v float64) {
		seen++
		if l != 1 || r != 2 || v != 7 {
			t.Fatalf("stale value: (%d,%d)=%g", l, r, v)
		}
	})
	if seen != 1 {
		t.Fatalf("drained %d entries", seen)
	}
}

func TestDenseDrainIsNNZProportional(t *testing.T) {
	// A huge tile with 3 nonzeros must drain exactly 3 entries (apos path).
	d := NewDense(1<<10, 1<<10)
	d.Upsert(0, 0, 1)
	d.Upsert(1023, 1023, 2)
	d.Upsert(512, 1, 3)
	count := 0
	d.Drain(func(_, _ uint32, _ float64) { count++ })
	if count != 3 {
		t.Fatalf("drained %d", count)
	}
}

func TestDenseCornerPositions(t *testing.T) {
	d := NewDense(8, 8)
	d.Upsert(0, 0, 1)
	d.Upsert(7, 7, 2)
	d.Upsert(0, 7, 3)
	d.Upsert(7, 0, 4)
	got := map[[2]uint32]float64{}
	d.Drain(func(l, r uint32, v float64) { got[[2]uint32{l, r}] = v })
	want := map[[2]uint32]float64{{0, 0}: 1, {7, 7}: 2, {0, 7}: 3, {7, 0}: 4}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("(%d,%d)=%g want %g", k[0], k[1], got[k], v)
		}
	}
}

func TestSparseLargeIndices(t *testing.T) {
	s := NewSparse(0)
	s.Upsert(1<<20, 1<<21, 1.5)
	s.Upsert(1<<20, 1<<21, 0.5)
	s.Upsert(0, 1<<21, 1)
	found := map[[2]uint32]float64{}
	s.Drain(func(l, r uint32, v float64) { found[[2]uint32{l, r}] = v })
	if found[[2]uint32{1 << 20, 1 << 21}] != 2.0 || found[[2]uint32{0, 1 << 21}] != 1 {
		t.Fatalf("got %v", found)
	}
}

func TestAccumulatorEquivalenceProperty(t *testing.T) {
	// Dense and Sparse must produce identical drains for identical input
	// streams (the model may pick either; results must not depend on it).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const tl, tr = 16, 32
		d := NewDense(tl, tr)
		s := NewSparse(8)
		n := rng.Intn(300)
		for i := 0; i < n; i++ {
			l := uint32(rng.Intn(tl))
			r := uint32(rng.Intn(tr))
			v := float64(rng.Intn(5) - 2)
			d.Upsert(l, r, v)
			s.Upsert(l, r, v)
		}
		dm := map[[2]uint32]float64{}
		sm := map[[2]uint32]float64{}
		d.Drain(func(l, r uint32, v float64) { dm[[2]uint32{l, r}] = v })
		s.Drain(func(l, r uint32, v float64) { sm[[2]uint32{l, r}] = v })
		if len(dm) != len(sm) {
			return false
		}
		for k, v := range dm {
			if sm[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// randPairs builds a random pair run with indices below bound.
func randPairs(rng *rand.Rand, n int, bound uint32) []hashtable.Pair {
	ps := make([]hashtable.Pair, n)
	for i := range ps {
		ps[i] = hashtable.Pair{Idx: uint32(rng.Intn(int(bound))), Val: float64(rng.Intn(9) - 4)}
	}
	return ps
}

// TestScatterMatchesUpsert pins the specialized batched outer-product
// scatter against the per-update Upsert loop it replaces, bit for bit (same
// accumulation order), for both accumulator kinds — including empty
// batches, empty and single-element runs, and runs with repeated indices.
func TestScatterMatchesUpsert(t *testing.T) {
	const tl, tr = 32, 64
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		// A batch of up to 5 matches, each an independent pair-run product.
		var ms []Match
		for m := rng.Intn(5); m >= 0; m-- {
			ms = append(ms, Match{
				L: randPairs(rng, rng.Intn(20), tl),
				R: randPairs(rng, rng.Intn(20), tr),
			})
		}

		dRef, dKrn := NewDense(tl, tr), NewDense(tl, tr)
		sRef, sKrn := NewSparse(4), NewSparse(4)
		for _, m := range ms {
			for _, lp := range m.L {
				for _, rp := range m.R {
					dRef.Upsert(lp.Idx, rp.Idx, lp.Val*rp.Val)
					sRef.Upsert(lp.Idx, rp.Idx, lp.Val*rp.Val)
				}
			}
		}
		dKrn.ScatterMatches(ms)
		sKrn.ScatterMatches(ms)

		drain := func(a Accumulator) map[[2]uint32]float64 {
			m := map[[2]uint32]float64{}
			a.Drain(func(l, r uint32, v float64) { m[[2]uint32{l, r}] = v })
			return m
		}
		for _, cmp := range []struct {
			name     string
			ref, krn Accumulator
		}{{"dense", dRef, dKrn}, {"sparse", sRef, sKrn}} {
			if cmp.ref.Len() != cmp.krn.Len() {
				t.Fatalf("trial %d %s: Len %d vs %d", trial, cmp.name, cmp.ref.Len(), cmp.krn.Len())
			}
			ref, krn := drain(cmp.ref), drain(cmp.krn)
			for k, v := range ref {
				if krn[k] != v {
					t.Fatalf("trial %d %s: (%d,%d)=%g want %g", trial, cmp.name, k[0], k[1], krn[k], v)
				}
			}
		}
	}
}

// TestSparseGrowthDrainOrdering drives the sparse accumulator through
// multiple table growths and verifies the growth/drain interaction: every
// entry inserted before, between and after growths drains exactly once with
// the full accumulated sum, Grows() is monotone, and a drain after growth
// leaves the (now larger) table empty and reusable without further growth.
func TestSparseGrowthDrainOrdering(t *testing.T) {
	s := NewSparse(0) // minimum capacity: 16 slots, grows at 85% load
	grows0 := s.Grows()
	model := map[[2]uint32]float64{}
	// Phase 1: force at least two doublings with accumulation onto existing
	// keys interleaved between inserts of fresh keys.
	for i := 0; i < 200; i++ {
		l, r := uint32(i%50), uint32(i/50)
		s.Upsert(l, r, 1)
		s.Upsert(l, r, 0.5) // accumulate onto the just-inserted key
		model[[2]uint32{l, r}] += 1.5
	}
	if s.Grows() <= grows0 {
		t.Fatalf("200 inserts into a 16-slot table did not grow it (grows=%d)", s.Grows())
	}
	if s.Len() != len(model) {
		t.Fatalf("Len=%d want %d", s.Len(), len(model))
	}
	got := map[[2]uint32]float64{}
	s.Drain(func(l, r uint32, v float64) {
		k := [2]uint32{l, r}
		if _, dup := got[k]; dup {
			t.Fatalf("position (%d,%d) drained twice after growth", l, r)
		}
		got[k] = v
	})
	for k, want := range model {
		if got[k] != want {
			t.Fatalf("(%d,%d)=%g want %g", k[0], k[1], got[k], want)
		}
	}
	// Phase 2: the drained table keeps its grown capacity; refilling to the
	// same population must not grow again, and values must not leak.
	growsAfter := s.Grows()
	if s.Len() != 0 {
		t.Fatalf("Len=%d after drain", s.Len())
	}
	for i := 0; i < 200; i++ {
		s.Upsert(uint32(i%50), uint32(i/50), 2)
	}
	if s.Grows() != growsAfter {
		t.Fatalf("refill after drain grew the table again (%d -> %d)", growsAfter, s.Grows())
	}
	s.Drain(func(l, r uint32, v float64) {
		if v != 2 {
			t.Fatalf("stale accumulation at (%d,%d): %g", l, r, v)
		}
	})
}

// TestScatterMatchesAcrossGrowth scatters a batch large enough to grow the
// sparse table mid-scatter; the result must match the Upsert-loop reference.
func TestScatterMatchesAcrossGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ms := []Match{{L: randPairs(rng, 40, 1<<12), R: randPairs(rng, 40, 1<<12)}}
	ref, krn := NewSparse(0), NewSparse(0)
	for _, lp := range ms[0].L {
		for _, rp := range ms[0].R {
			ref.Upsert(lp.Idx, rp.Idx, lp.Val*rp.Val)
		}
	}
	krn.ScatterMatches(ms)
	if ref.Len() != krn.Len() || krn.Grows() == 0 {
		t.Fatalf("Len %d vs %d, grows=%d (expected mid-scatter growth)", ref.Len(), krn.Len(), krn.Grows())
	}
	rm := map[[2]uint32]float64{}
	ref.Drain(func(l, r uint32, v float64) { rm[[2]uint32{l, r}] = v })
	krn.Drain(func(l, r uint32, v float64) {
		if rm[[2]uint32{l, r}] != v {
			t.Fatalf("(%d,%d)=%g want %g", l, r, v, rm[[2]uint32{l, r}])
		}
	})
}

func BenchmarkDenseUpsert(b *testing.B) {
	d := NewDense(512, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Upsert(uint32(i)&511, uint32(i*7)&511, 1)
		if i&0xFFFF == 0xFFFF {
			d.Reset()
		}
	}
}

func BenchmarkSparseUpsert(b *testing.B) {
	s := NewSparse(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Upsert(uint32(i)&4095, uint32(i*7)&4095, 1)
		if i&0xFFFF == 0xFFFF {
			s.Reset()
		}
	}
}
