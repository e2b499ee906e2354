package hashtable

import (
	"math/rand"
	"testing"
)

// cols gathers one tile's nonzeros into the (key, intra index, value)
// columns a partition segment holds — the input BuildSealed reads.
type cols struct {
	ctr   []uint64
	intra []uint32
	val   []float64
}

func (c *cols) add(key uint64, idx uint32, v float64) {
	c.ctr = append(c.ctr, key)
	c.intra = append(c.intra, idx)
	c.val = append(c.val, v)
}

func (c *cols) build(keyHint int) *Sealed {
	return BuildSealed(c.ctr, c.intra, c.val, keyHint)
}

// hintSlots is the slot count BuildSealed starts from for a key hint.
func hintSlots(keyHint int) int {
	return max(nextPow2(int(float64(keyHint)/sealedMaxLoad)+1), 8)
}

// doubledSlots is the slot count after inserting distinct keys into a table
// started from keyHint: the initial size doubled until the load stays at or
// below sealedMaxLoad.
func doubledSlots(keyHint, distinct int) int {
	slots := hintSlots(keyHint)
	for float64(distinct) > sealedMaxLoad*float64(slots) {
		slots *= 2
	}
	return slots
}

// TestBuildSealedPoolsBalance: a build followed by Recycle leaves every
// arena pool's leak gauge where it found it. The build draws and returns
// outgrown slot arrays (hint 0 forces several doublings) and the dense-index
// scratch, so a scratch that never came back shows up here. A one-key tile
// is built too: the smallest shape must return its scratch as well.
func TestBuildSealedPoolsBalance(t *testing.T) {
	gauges := func() [5]int64 {
		return [5]int64{arenaU64.Outstanding(), arenaI32.Outstanding(),
			arenaSpan.Outstanding(), arenaPair.Outstanding(), denseScratch.Outstanding()}
	}
	var grown, oneKey cols
	for i := 0; i < 300; i++ {
		grown.add(uint64(i%150)*7919, uint32(i), float64(i))
	}
	for i := 0; i < 5; i++ {
		oneKey.add(42, uint32(i), float64(i))
	}
	for _, tc := range []struct {
		name  string
		c     cols
		check func(*Sealed)
	}{
		{"growth", grown, func(s *Sealed) {
			if s.Slots() <= hintSlots(0) {
				t.Fatalf("test premise broken: %d slots, want growth past %d", s.Slots(), hintSlots(0))
			}
		}},
		{"one key", oneKey, func(s *Sealed) {
			if s.Len() != 1 {
				t.Fatalf("test premise broken: %d keys, want 1", s.Len())
			}
		}},
	} {
		before := gauges()
		s := tc.c.build(0)
		tc.check(s)
		if after := gauges(); after[4] != before[4] {
			t.Fatalf("%s: dense-index scratch outstanding after build: %d -> %d", tc.name, before[4], after[4])
		}
		s.Recycle()
		if after := gauges(); after != before {
			t.Fatalf("%s: pool gauges (u64, i32, span, pair, scratch) %v after build+Recycle, want %v", tc.name, after, before)
		}
	}
}

// BenchmarkBuildSealed times one tile build plus its Recycle — the engine's
// build/evict steady state — on two tile shapes: FROSTT-like (many keys,
// one or two pairs each) and QC-like (few keys, 64 pairs each).
func BenchmarkBuildSealed(b *testing.B) {
	const nnz = 1 << 14
	for _, shape := range []struct {
		name        string
		pairsPerKey int
	}{{"frostt", 0}, {"qc", 64}} {
		b.Run(shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var c cols
			distinct := map[uint64]bool{}
			for i := 0; i < nnz; i++ {
				var key uint64
				if shape.pairsPerKey == 0 {
					key = uint64(rng.Intn(nnz * 2 / 3)) // ~1.5 pairs per key
				} else {
					key = uint64(rng.Intn(nnz / shape.pairsPerKey))
				}
				distinct[key] = true
				c.add(key, uint32(rng.Intn(1<<10)), rng.Float64())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.build(len(distinct)).Recycle()
			}
		})
	}
}
