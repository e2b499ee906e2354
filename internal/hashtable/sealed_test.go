package hashtable

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSealedBasic(t *testing.T) {
	var c cols
	c.add(7, 1, 1.5)
	c.add(7, 2, 2.5)
	c.add(9, 3, 3.5)
	s := c.build(0)
	if s.Len() != 2 || s.Pairs() != 3 {
		t.Fatalf("Len=%d Pairs=%d", s.Len(), s.Pairs())
	}
	ps := s.Lookup(7)
	if len(ps) != 2 || ps[0] != (Pair{1, 1.5}) || ps[1] != (Pair{2, 2.5}) {
		t.Fatalf("Lookup(7) = %v", ps)
	}
	if s.Lookup(8) != nil {
		t.Fatal("Lookup(8) should be nil")
	}
	if !s.Contains(9) || s.Contains(10) {
		t.Fatal("Contains wrong")
	}
	// Cursor order is insertion order: key 7 first, then 9.
	if s.KeyAt(0) != 7 || s.KeyAt(1) != 9 {
		t.Fatalf("cursor keys %d,%d", s.KeyAt(0), s.KeyAt(1))
	}
	if len(s.PairsAt(0)) != 2 || len(s.PairsAt(1)) != 1 {
		t.Fatal("cursor pair runs wrong")
	}
}

// TestSealedMatchesSliceTable pins BuildSealed's layout to the reference
// per-key-list form it replaces: append every pair to its key's list, order
// keys by first occurrence, concatenate the lists into the arena. Keys,
// spans, arena and mask must match exactly — that layout is what spill
// images store and what bit-identical kernel output depends on.
func TestSealedMatchesSliceTable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var c cols
		lists := map[uint64][]Pair{}
		var order []uint64
		for i := 0; i < 800; i++ {
			k := rng.Uint64() % 97
			p := Pair{Idx: uint32(rng.Intn(1000)), Val: float64(rng.Intn(19) - 9)}
			c.add(k, p.Idx, p.Val)
			if _, seen := lists[k]; !seen {
				order = append(order, k)
			}
			lists[k] = append(lists[k], p)
		}
		var spans []Span
		var arena []Pair
		for _, k := range order {
			spans = append(spans, Span{Off: int32(len(arena)), Len: int32(len(lists[k]))})
			arena = append(arena, lists[k]...)
		}
		hint := rng.Intn(2 * len(order))
		s := c.build(hint)
		return s.Mask() == uint64(doubledSlots(hint, len(order))-1) &&
			slices.Equal(s.keys, order) && slices.Equal(s.spans, spans) && slices.Equal(s.pairs, arena)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSealedArenaIsContiguous(t *testing.T) {
	var c cols
	for i := uint64(0); i < 1000; i++ {
		c.add(i%31, uint32(i), float64(i))
	}
	s := c.build(8)
	if s.Pairs() != 1000 {
		t.Fatalf("Pairs=%d", s.Pairs())
	}
	// Spans tile the arena exactly: cursor order runs are adjacent.
	off := int32(0)
	for i := 0; i < s.Len(); i++ {
		sp := s.spans[i]
		if sp.Off != off {
			t.Fatalf("key %d span starts at %d want %d", i, sp.Off, off)
		}
		off += sp.Len
	}
	if int(off) != len(s.pairs) {
		t.Fatalf("spans cover %d of %d pairs", off, len(s.pairs))
	}
	if cap(s.pairs) != len(s.pairs) {
		t.Fatalf("arena over-allocated: cap %d len %d", cap(s.pairs), len(s.pairs))
	}
}

func TestSealedForEachMatchesCursor(t *testing.T) {
	var c cols
	for i := uint64(0); i < 300; i++ {
		c.add(i%23, uint32(i), 1)
	}
	s := c.build(4)
	i := 0
	s.ForEach(func(k uint64, ps []Pair) {
		if k != s.KeyAt(i) || len(ps) != len(s.PairsAt(i)) {
			t.Fatalf("ForEach diverges from cursor at %d", i)
		}
		i++
	})
	if i != s.Len() {
		t.Fatalf("ForEach visited %d of %d", i, s.Len())
	}
}

// TestSliceTableFootprintWithAccurateHint is the sizing-bug regression
// test: BuildSealed's hint is a DISTINCT-KEY count, not a pair count. With
// an accurate key hint the table must not grow past its initial slot count,
// which stays within one doubling of the load-factor-implied minimum — the
// seed bug passed per-tile PAIR counts here, over-allocating slot arrays by
// the pairs-per-key factor. The arena holds exactly the pair count.
func TestSliceTableFootprintWithAccurateHint(t *testing.T) {
	const distinct, pairsPerKey = 1000, 16
	var c cols
	for i := 0; i < distinct*pairsPerKey; i++ {
		c.add(uint64(i%distinct), uint32(i), 1)
	}
	s := c.build(distinct)
	if s.Slots() != hintSlots(distinct) {
		t.Fatalf("accurately hinted table grew: %d -> %d slots", hintSlots(distinct), s.Slots())
	}
	d := float64(distinct)
	minSlots := nextPow2(int(d/sealedMaxLoad) + 1)
	if s.Slots() > 2*minSlots {
		t.Fatalf("footprint %d slots exceeds 2x the load-implied minimum %d", s.Slots(), minSlots)
	}
	// A pair-count hint (the seed bug) allocates ~pairsPerKey/loadFactor x
	// more slots than needed; pin the ratio so the bug cannot return.
	if over := hintSlots(distinct * pairsPerKey); over < 8*s.Slots() {
		t.Fatalf("test premise broken: pair-count hint gives %d slots vs %d", over, s.Slots())
	}
	if s.Pairs() != distinct*pairsPerKey || cap(s.pairs) != s.Pairs() {
		t.Fatalf("arena: len %d cap %d want exactly %d", s.Pairs(), cap(s.pairs), distinct*pairsPerKey)
	}
}

// TestLookupBatchMatchesLookup pins the batched probe against the serial
// one across table sizes, including key counts that are not a multiple of
// the batch width (the chunked pipeline's remainder path) and a heavy mix
// of absent keys.
func TestLookupBatchMatchesLookup(t *testing.T) {
	for _, distinct := range []int{0, 1, 7, LookupBatchMax - 1, LookupBatchMax, LookupBatchMax + 1, 61, 500} {
		rng := rand.New(rand.NewSource(int64(distinct) + 1))
		var c cols
		for i := 0; i < distinct*4; i++ {
			c.add(uint64(i%max(distinct, 1)), uint32(i), float64(rng.Intn(9)))
		}
		s := c.build(distinct)

		// Probe the full key set plus interleaved absent keys.
		var keys []uint64
		for i := 0; i < s.Len(); i++ {
			keys = append(keys, s.KeyAt(i), uint64(1_000_000+i))
		}
		out := make([]int32, len(keys))
		hits := s.LookupBatch(keys, out)
		if hits != s.Len() {
			t.Fatalf("distinct=%d: hits=%d want %d", distinct, hits, s.Len())
		}
		for i, k := range keys {
			want := s.Lookup(k)
			switch {
			case want == nil && out[i] != -1:
				t.Fatalf("distinct=%d key %d: batch found absent key (li=%d)", distinct, k, out[i])
			case want != nil && out[i] < 0:
				t.Fatalf("distinct=%d key %d: batch missed present key", distinct, k)
			case want != nil:
				got := s.PairsAt(int(out[i]))
				if len(got) != len(want) || (len(got) > 0 && &got[0] != &want[0]) {
					t.Fatalf("distinct=%d key %d: batch resolved a different pair run", distinct, k)
				}
			}
		}
	}
}

// TestLookupBatchCollisionChains drives the slow (probe-walk) path: a table
// held at high load so home-slot collisions are common.
func TestLookupBatchCollisionChains(t *testing.T) {
	// A deliberately under-hinted table: every insert after the first few
	// probes past occupied slots.
	var c cols
	const n = 3000
	for i := 0; i < n; i++ {
		c.add(uint64(i)*2654435761, uint32(i), 1)
	}
	s := c.build(0)
	keys := s.Keys()
	out := make([]int32, len(keys))
	if hits := s.LookupBatch(keys, out); hits != s.Len() {
		t.Fatalf("hits=%d want %d", hits, s.Len())
	}
	for i := range keys {
		if int(out[i]) != i {
			t.Fatalf("key %d resolved to dense index %d", i, out[i])
		}
	}
	// A batch of all-absent keys exercises chain termination.
	absent := make([]uint64, 100)
	for i := range absent {
		absent[i] = uint64(n+i)*2654435761 + 1
	}
	out = out[:len(absent)]
	if hits := s.LookupBatch(absent, out); hits != 0 {
		t.Fatalf("absent batch reported %d hits", hits)
	}
	for i, li := range out {
		if li != -1 {
			t.Fatalf("absent key %d resolved to %d", i, li)
		}
	}
}

func TestSealedKeysAliasCursor(t *testing.T) {
	var c cols
	for i := uint64(0); i < 100; i++ {
		c.add(i%13, uint32(i), 1)
	}
	s := c.build(4)
	ks := s.Keys()
	if len(ks) != s.Len() {
		t.Fatalf("Keys() len %d want %d", len(ks), s.Len())
	}
	for i, k := range ks {
		if k != s.KeyAt(i) {
			t.Fatalf("Keys()[%d]=%d diverges from KeyAt=%d", i, k, s.KeyAt(i))
		}
	}
}

func BenchmarkSealedLookup(b *testing.B) {
	var c cols
	for i := 0; i < 1<<14; i++ {
		c.add(uint64(i)&0xFFF, uint32(i), 1.0)
	}
	s := c.build(1 << 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Lookup(uint64(i) & 0xFFF)
	}
}

func BenchmarkSealedLookupBatch(b *testing.B) {
	var c cols
	for i := 0; i < 1<<14; i++ {
		c.add(uint64(i)&0xFFF, uint32(i), 1.0)
	}
	s := c.build(1 << 12)
	keys := s.Keys()
	out := make([]int32, len(keys))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.LookupBatch(keys, out)
	}
}

func BenchmarkSealedCursorSweep(b *testing.B) {
	var c cols
	for i := 0; i < 1<<14; i++ {
		c.add(uint64(i)&0xFFF, uint32(i), 1.0)
	}
	s := c.build(1 << 12)
	b.ReportAllocs()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		for di := 0; di < s.Len(); di++ {
			ps := s.PairsAt(di)
			for _, p := range ps {
				sum += p.Val
			}
		}
	}
	_ = sum
}
