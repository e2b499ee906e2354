package hashtable

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d want %d", in, got, want)
		}
	}
}

func TestMixSpreadsSequentialKeys(t *testing.T) {
	// Sequential keys must not collide in low bits after mixing.
	const n, maskBits = 4096, 12
	seen := map[uint64]int{}
	for i := uint64(0); i < n; i++ {
		seen[Mix(i)&((1<<maskBits)-1)]++
	}
	// Perfectly uniform would be 1 per slot; allow modest clumping.
	for slot, c := range seen {
		if c > 8 {
			t.Fatalf("slot %d has %d sequential keys; Mix too weak", slot, c)
		}
	}
	if len(seen) < n/3 {
		t.Fatalf("only %d distinct slots for %d keys", len(seen), n)
	}
}

// The TestSliceTable* tests cover the key → pair-run table of paper
// Section 4.1 as BuildSealed produces it.

func TestSliceTableGrowPreservesAll(t *testing.T) {
	var c cols
	const n = 10000
	for i := uint64(0); i < n; i++ {
		c.add(i*3, uint32(i), float64(i))
		c.add(i*3, uint32(i+1), float64(i)+0.5)
	}
	tb := c.build(0) // force many grows
	if tb.Len() != n || tb.Pairs() != 2*n {
		t.Fatalf("Len=%d Pairs=%d", tb.Len(), tb.Pairs())
	}
	if tb.Slots() != doubledSlots(0, n) {
		t.Fatalf("Slots=%d want %d", tb.Slots(), doubledSlots(0, n))
	}
	for i := uint64(0); i < n; i++ {
		ps := tb.Lookup(i * 3)
		if len(ps) != 2 || ps[0].Val != float64(i) || ps[1].Val != float64(i)+0.5 {
			t.Fatalf("key %d: %v", i*3, ps)
		}
	}
}

func TestSliceTableForEachAndKeys(t *testing.T) {
	var c cols
	want := map[uint64]int{}
	for i := uint64(0); i < 100; i++ {
		k := i % 17
		c.add(k, uint32(i), 1)
		want[k]++
	}
	tb := c.build(4)
	visited := 0
	tb.ForEach(func(k uint64, ps []Pair) {
		visited++
		if len(ps) != want[k] {
			t.Fatalf("key %d has %d pairs want %d", k, len(ps), want[k])
		}
	})
	if visited != 17 {
		t.Fatalf("ForEach visited %d keys", visited)
	}
	if keys := tb.Keys(); len(keys) != 17 {
		t.Fatalf("Keys returned %d", len(keys))
	}
}

// TestSliceTableVersusMapModel checks BuildSealed against a map model over
// random inputs and key hints of 0, 1, exact and 16x over: keys come out in
// first-occurrence order, each key's pairs in input order, Lookup, KeyAt,
// PairsAt and LookupBatch agree, and the slot count is what doubling from
// the hint yields.
func TestSliceTableVersusMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(600)
		keySpace := uint64(1 + rng.Intn(200))
		var c cols
		model := map[uint64][]Pair{}
		var order []uint64
		for i := 0; i < n; i++ {
			k := rng.Uint64() % keySpace
			p := Pair{Idx: uint32(rng.Intn(100)), Val: float64(rng.Intn(10))}
			c.add(k, p.Idx, p.Val)
			if _, seen := model[k]; !seen {
				order = append(order, k)
			}
			model[k] = append(model[k], p)
		}
		for _, hint := range []int{0, 1, len(order), 16 * len(order)} {
			tb := c.build(hint)
			if tb.Len() != len(order) || tb.Pairs() != n || tb.Slots() != doubledSlots(hint, len(order)) {
				return false
			}
			probe := append([]uint64{keySpace, keySpace + 1}, order...)
			out := make([]int32, len(probe))
			if tb.LookupBatch(probe, out) != len(order) || out[0] != -1 || out[1] != -1 {
				return false
			}
			for i, k := range order {
				want := model[k]
				if tb.KeyAt(i) != k || int(out[i+2]) != i {
					return false
				}
				for _, got := range [][]Pair{tb.PairsAt(i), tb.Lookup(k)} {
					if len(got) != len(want) {
						return false
					}
					for j := range want {
						if got[j] != want[j] {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFloatTableUpsertGet(t *testing.T) {
	tb := NewFloatTable(0)
	tb.Upsert(5, 1.0)
	tb.Upsert(5, 2.0)
	tb.Upsert(0, -1)
	if tb.Len() != 2 {
		t.Fatalf("Len=%d", tb.Len())
	}
	if v, ok := tb.Get(5); !ok || v != 3.0 {
		t.Fatalf("Get(5) = %g %v", v, ok)
	}
	if v, ok := tb.Get(0); !ok || v != -1 {
		t.Fatalf("Get(0) = %g %v", v, ok)
	}
	if _, ok := tb.Get(99); ok {
		t.Fatal("Get(99) should miss")
	}
}

func TestFloatTableGrowAndReset(t *testing.T) {
	tb := NewFloatTable(0)
	const n = 50000
	for i := uint64(0); i < n; i++ {
		tb.Upsert(i, 1)
		tb.Upsert(i, float64(i))
	}
	if tb.Len() != n {
		t.Fatalf("Len=%d", tb.Len())
	}
	if tb.Grows() == 0 {
		t.Fatal("expected growth")
	}
	for i := uint64(0); i < n; i += 997 {
		if v, ok := tb.Get(i); !ok || v != 1+float64(i) {
			t.Fatalf("Get(%d) = %g %v", i, v, ok)
		}
	}
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	if _, ok := tb.Get(3); ok {
		t.Fatal("entry survived Reset")
	}
	tb.Upsert(3, 7)
	if v, _ := tb.Get(3); v != 7 {
		t.Fatalf("after reset Get(3)=%g", v)
	}
}

func TestFloatTableForEachSum(t *testing.T) {
	tb := NewFloatTable(8)
	total := 0.0
	for i := uint64(0); i < 300; i++ {
		tb.Upsert(i%37, 2)
		total += 2
	}
	sum := 0.0
	count := 0
	tb.ForEach(func(_ uint64, v float64) { sum += v; count++ })
	if count != 37 || sum != total {
		t.Fatalf("count=%d sum=%g want 37/%g", count, sum, total)
	}
}

func TestFloatTableVersusMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewFloatTable(0)
		model := map[uint64]float64{}
		for i := 0; i < 1000; i++ {
			k := rng.Uint64() % 128
			v := float64(rng.Intn(7) - 3)
			tb.Upsert(k, v)
			model[k] += v
		}
		if tb.Len() != len(model) {
			return false
		}
		for k, want := range model {
			if got, ok := tb.Get(k); !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFloatTableExtremeKeys(t *testing.T) {
	// Keys 0 and MaxUint64 must be valid (bitmap occupancy, no sentinel).
	tb := NewFloatTable(2)
	tb.Upsert(0, 1)
	tb.Upsert(^uint64(0), 2)
	if v, ok := tb.Get(0); !ok || v != 1 {
		t.Fatal("key 0 broken")
	}
	if v, ok := tb.Get(^uint64(0)); !ok || v != 2 {
		t.Fatal("key MaxUint64 broken")
	}
}

func BenchmarkFloatTableUpsert(b *testing.B) {
	tb := NewFloatTable(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.Upsert(uint64(i)&0xFFFF, 1.0)
	}
}

// TestFloatTableDrainBatchEdge lays out a table with slot 0, the whole
// second occupancy word and slot 130 occupied, and drains it in buffers
// of 64 and 65 entries: a batch never splits a word, so the 64-entry one
// stops before the full word and the next call resumes at it, and both
// return every entry once in slot order and leave the table empty and
// reusable.
func TestFloatTableDrainBatchEdge(t *testing.T) {
	for _, c := range []struct {
		width int
		sizes string
	}{{64, "[1 64 1]"}, {65, "[65 1]"}} {
		tb := NewFloatTable(200)
		if tb.Cap() != 256 {
			t.Fatalf("capacity %d, want 256", tb.Cap())
		}
		var slots []int
		for s := range 256 {
			if s == 0 || s >= 64 && s < 128 || s == 130 {
				tb.keys[s], tb.vals[s] = uint64(1000+s), float64(s)
				tb.setOccupied(uint64(s))
				tb.n++
				slots = append(slots, s)
			}
		}
		keys, vals := make([]uint64, c.width), make([]float64, c.width)
		var sizes []int
		i := 0
		for n := tb.DrainBatch(keys, vals); n > 0; n = tb.DrainBatch(keys, vals) {
			sizes = append(sizes, n)
			for k := range n {
				if s := slots[i]; keys[k] != uint64(1000+s) || vals[k] != float64(s) {
					t.Fatalf("width %d: entry %d is (%d, %g), want slot %d's", c.width, i, keys[k], vals[k], s)
				}
				i++
			}
		}
		if fmt.Sprint(sizes) != c.sizes || i != len(slots) || tb.Len() != 0 {
			t.Fatalf("width %d: batches %v (%d entries, Len %d), want %s", c.width, sizes, i, tb.Len(), c.sizes)
		}
		tb.Upsert(7, 1.5)
		if v, ok := tb.Get(7); !ok || v != 1.5 || tb.Len() != 1 {
			t.Fatalf("width %d: after the drain Get(7) = %g, %v, Len %d", c.width, v, ok, tb.Len())
		}
	}
}
