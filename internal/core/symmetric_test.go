package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fastcc/internal/coo"
	"fastcc/internal/gen"
	"fastcc/internal/hashtable"
	"fastcc/internal/model"
)

// The tests in this file pin the symmetric schedule's cold path on
// FROSTT-shaped self-contractions: the shared-key lists the off-diagonal
// pairs iterate, and the diagonal pairs' one-pair shortcut. Both must leave
// every output value and the order in which each tile drains its elements
// unchanged.

// frosttSelf returns a FROSTT tensor at the given scale matrixized over the
// contracted modes, with float values: seeded magnitudes in [0.5, 1.5)
// with the generator's signs, so the pinned bits depend on no math library
// result. Every seventh entry is appended again with a second value, so
// the operand carries duplicate coordinates under the same contraction
// keys.
func frosttSelf(t testing.TB, tensor string, ctr []int, scale float64) *coo.Matrix {
	t.Helper()
	spec, err := gen.FrosttByName(tensor)
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(scale)
	tn, err := gen.Uniform(spec.Dims, spec.NNZ, 23, gen.Options{Skew: spec.Skew})
	if err != nil {
		t.Fatal(err)
	}
	rng := gen.NewRNG(24)
	for k := range tn.Vals {
		tn.Vals[k] = math.Copysign(0.5+rng.Float64(), tn.Vals[k])
	}
	m, err := tn.Matrixize(coo.ExternalModes(tn.Order(), ctr), ctr)
	if err != nil {
		t.Fatal(err)
	}
	for k, n := 0, m.NNZ(); k < n; k += 7 {
		m.Ext = append(m.Ext, m.Ext[k])
		m.Ctr = append(m.Ctr, m.Ctr[k])
		m.Val = append(m.Val, 0.5+rng.Float64())
	}
	return m
}

// drainOrderDigest hashes a run's output triples grouped by output tile
// (l/tl, r/tr), in ascending tile order. Each output tile comes from one
// tile task, so the digest does not depend on which worker ran which task.
// Within a tile the triples keep the order the task drained them in, so a
// change in any value's bits or in a dense tile's drain order shows.
// With sorted set they are sorted instead: a sparse tile drains in the
// slot order of a table whose capacity a recycled worker carries over from
// earlier runs.
func drainOrderDigest(out []Triple, tl, tr uint64, sorted bool) uint64 {
	slices.SortStableFunc(out, func(a, b Triple) int {
		if c := cmp.Compare(a.L/tl, b.L/tl); c != 0 {
			return c
		}
		if c := cmp.Compare(a.R/tr, b.R/tr); c != 0 || !sorted {
			return c
		}
		if c := cmp.Compare(a.L, b.L); c != 0 {
			return c
		}
		return cmp.Compare(a.R, b.R)
	})
	h := fnv.New64a()
	var b [24]byte
	for _, x := range out {
		binary.LittleEndian.PutUint64(b[0:], x.L)
		binary.LittleEndian.PutUint64(b[8:], x.R)
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(x.V))
		h.Write(b[:])
	}
	return h.Sum64()
}

// tileKeyStats describes m tiled by tile: the non-empty tiles, the
// distinct (tile, key) pairs, how many of those have a key that another
// tile also holds, and how many hold one nonzero.
func tileKeyStats(m *coo.Matrix, tile uint64) (tiles, keys, shared, onePair int) {
	runs := map[[2]uint64]int{}
	holders := map[uint64]int{}
	nonEmpty := map[uint64]bool{}
	for k := range m.Ext {
		tk := [2]uint64{m.Ext[k] / tile, m.Ctr[k]}
		if runs[tk] == 0 {
			holders[m.Ctr[k]]++
		}
		runs[tk]++
		nonEmpty[tk[0]] = true
	}
	for tk, n := range runs {
		if holders[tk[1]] > 1 {
			shared++
		}
		if n == 1 {
			onePair++
		}
	}
	return len(nonEmpty), len(runs), shared, onePair
}

// TestSymmetricColdGolden pins the output bits and drain order of
// float-valued self-contractions shaped like frostt-cold's: vast-01 and
// nips-013 on 12×12 grids whose keys mostly live in one tile, so their
// off-diagonal pairs iterate short shared-key lists; vast-014 in one tile
// whose keys mix one-pair runs, which the diagonal pair adds straight,
// with longer ones, which it batches. The sparse digests were computed
// before the lists and the one-pair shortcut existed, when every
// off-diagonal pair probed all keys of its smaller tile and every diagonal
// key went through a batch. The dense digests pin the ascending-position
// drain; sorted within each tile, a dense run's digest must equal its
// sparse twin's, as it did when dense tiles drained in first-touch order,
// so every cell's bits are pinned across both drain orders. vast-014's one
// diagonal tile drains in ascending (l, r), so its two digests are the
// same. Both accumulators run at one and two threads; the digest is
// independent of the worker count.
func TestSymmetricColdGolden(t *testing.T) {
	golden := map[string]uint64{
		"vast-01/dense":   0x455d433e6836fe40,
		"vast-01/sparse":  0x60b25a3856eaaf80,
		"vast-014/dense":  0x3a78896e12db0bd7,
		"vast-014/sparse": 0x3a78896e12db0bd7,
		"nips-013/dense":  0x92d405db7f85b3e1,
		"nips-013/sparse": 0x31a9af7cabd21f75,
	}
	cases := []struct {
		tensor string
		ctr    []int
		tile   uint64
	}{
		{"vast", []int{0, 1}, 128},
		{"vast", []int{0, 1, 4}, 64},
		{"nips", []int{0, 1, 3}, 256},
	}
	for _, c := range cases {
		m := frosttSelf(t, c.tensor, c.ctr, 0.002)
		// The shapes the digests stand for: on a multi-tile grid most of the
		// tiles' keys live in no other tile; a one-tile grid has one-pair
		// keys and longer ones.
		tiles, keys, shared, onePair := tileKeyStats(m, c.tile)
		if tiles > 1 && 2*shared >= keys || tiles == 1 && (onePair == 0 || onePair == keys) {
			t.Fatalf("%s-%v: %d tiles, %d tile keys, %d shared, %d one-pair", c.tensor, c.ctr, tiles, keys, shared, onePair)
		}
		for _, acc := range []model.AccumKind{model.AccumDense, model.AccumSparse} {
			for _, threads := range []int{1, 2} {
				name := fmt.Sprintf("%s/%v", gen.ContractionName(c.tensor, c.ctr), acc)
				out, st, err := contract(m, m, Config{Threads: threads, TileL: c.tile, TileR: c.tile, Accum: acc, Platform: model.Desktop8})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var ts []Triple
				out.ForEach(func(x Triple) { ts = append(ts, x) })
				RecycleOutput(out)
				if !st.Symmetric {
					t.Fatalf("%s: not on the symmetric schedule", name)
				}
				d := drainOrderDigest(ts, st.TileL, st.TileR, acc == model.AccumSparse)
				if want := golden[name]; d != want {
					t.Errorf("%s threads=%d: digest %#x, want %#x", name, threads, d, want)
				}
				if acc == model.AccumDense {
					sparse := fmt.Sprintf("%s/%v", gen.ContractionName(c.tensor, c.ctr), model.AccumSparse)
					if d, want := drainOrderDigest(ts, st.TileL, st.TileR, true), golden[sparse]; d != want {
						t.Errorf("%s threads=%d: sorted digest %#x, want %s's %#x", name, threads, d, sparse, want)
					}
				}
			}
		}
	}
}

// wantSharedLists is the oracle for a hash shard's shared-key lists: a
// key's bit (its hashtable.Mix under the shard's bit count) is marked when
// two or more tile keys land on it, and a tile lists the dense indices of
// its marked keys, or nothing at all (nil) when every key is marked. It
// also returns each key's holder count.
func wantSharedLists(s *Shard) (lists [][]int32, holders map[uint64]int) {
	holders = map[uint64]int{}
	nbits := uint64(8)
	for nbits < uint64(sharedBitsPerKey*s.keys) {
		nbits *= 2
	}
	nbits = max(nbits, 64)
	onBit := map[uint64]int{}
	for _, i := range s.NonEmpty() {
		for _, key := range s.sealed[i].Keys() {
			holders[key]++
			onBit[hashtable.Mix(key)&(nbits-1)]++
		}
	}
	lists = make([][]int32, len(s.sealed))
	if len(s.NonEmpty()) < 2 {
		return lists, holders // no other tile to share a key with
	}
	for _, i := range s.NonEmpty() {
		keys := s.sealed[i].Keys()
		l := []int32{}
		for k, key := range keys {
			if onBit[hashtable.Mix(key)&(nbits-1)] > 1 {
				l = append(l, int32(k))
			}
		}
		if len(l) < len(keys) {
			lists[i] = l
		}
	}
	return lists, holders
}

// checkSharedLists checks s's shared-key lists against the oracle and
// against the property the kernels rely on: every key that two or more
// non-empty tiles hold is in each holder's list, in ascending dense order.
// It also checks that Shard.bytes counts the lists.
func checkSharedLists(t *testing.T, what string, s *Shard) {
	t.Helper()
	want, holders := wantSharedLists(s)
	if len(s.NonEmpty()) < 2 {
		if s.shared != nil {
			t.Fatalf("%s: a shard with %d non-empty tiles keeps lists", what, len(s.NonEmpty()))
		}
	}
	listBytes := int64(0)
	if s.shared != nil {
		listBytes = 24 * int64(len(s.shared))
	}
	anyList := false
	for _, i := range s.NonEmpty() {
		got := s.sharedAt(i)
		if (got == nil) != (want[i] == nil) || !slices.Equal(got, want[i]) {
			t.Fatalf("%s: tile %d lists %v, want %v", what, i, got, want[i])
		}
		anyList = anyList || got != nil
		listBytes += 4 * int64(len(got))
		keys := s.sealed[i].Keys()
		pos := 0
		for k, key := range keys {
			if holders[key] < 2 || got == nil {
				continue
			}
			for pos < len(got) && int(got[pos]) < k {
				pos++
			}
			if pos == len(got) || int(got[pos]) != k {
				t.Fatalf("%s: tile %d does not list key %d (dense %d), held by %d tiles", what, i, key, k, holders[key])
			}
		}
		if !slices.IsSorted(got) {
			t.Fatalf("%s: tile %d's list does not ascend: %v", what, i, got)
		}
	}
	if !anyList && s.shared != nil {
		t.Fatalf("%s: every tile lists all its keys, yet the shard keeps lists", what)
	}
	tables := int64(8*len(s.NonEmpty()) + 8*len(s.sealed))
	for _, tb := range s.sealed {
		if tb != nil {
			tables += tb.MemBytes()
		}
	}
	if s.bytes != tables+listBytes {
		t.Fatalf("%s: shard charges %d bytes, tables %d + lists %d", what, s.bytes, tables, listBytes)
	}
}

// TestSharedKeyListsProperty checks the shared-key lists of random hash
// shards against wantSharedLists: contraction extents from 10, where every
// key is shared, to 10^6, where almost none is; duplicate coordinates; tile
// sides giving 1 to 30 tiles. Every fourth shard also goes through the
// disk tier, and the reloaded shard must rebuild the same lists.
func TestSharedKeyListsProperty(t *testing.T) {
	enableSpill(t, 0)
	defer SetShardBudget(0)
	rng := rand.New(rand.NewSource(61))
	// What the random shards covered: one-tile shards, tiles keeping nil
	// among listing ones, tiles listing some keys, and tiles listing none.
	var oneTile, nilTiles, partial, empty int
	for it := range 48 {
		ctrDim := uint64(math.Pow(10, 1+5*rng.Float64()))
		extDim := uint64(30 + rng.Intn(3000))
		m := randomMatrix(rng, extDim, ctrDim, 1+rng.Intn(2500))
		for k, n := 0, m.NNZ(); k < n; k += 9 {
			m.Ext = append(m.Ext, m.Ext[k])
			m.Ctr = append(m.Ctr, m.Ctr[k])
			m.Val = append(m.Val, 1)
		}
		nT := uint64(1 + rng.Intn(30))
		if it%8 == 1 {
			nT = 1
		}
		tile := (extDim + nT - 1) / nT
		what := fmt.Sprintf("shard %d (ext %d, ctr %d, nnz %d, tile %d)", it, extDim, ctrDim, m.NNZ(), tile)
		// Deferred unpins and closes keep a failing check from leaving
		// shards charged to the cache for the tests that follow.
		func() {
			SetShardBudget(-1)
			o := NewOperand(m)
			defer o.Close()
			key := ShardKey{Tile: tile}
			withShard := func(f func(s *Shard)) {
				s, _ := o.Shard(key, 2)
				defer s.Unpin()
				f(s)
			}
			var built [][]int32
			withShard(func(s *Shard) {
				checkSharedLists(t, what, s)
				built = s.shared
				if len(s.NonEmpty()) < 2 {
					oneTile++
				}
				for _, i := range s.NonEmpty() {
					switch l := s.sharedAt(i); {
					case built == nil:
					case l == nil:
						nilTiles++
					case len(l) == 0:
						empty++
					default:
						partial++
					}
				}
			})
			if it%4 != 0 {
				return
			}
			before := CacheStats()
			SetShardBudget(1)
			if CacheStats().SpillWrites == before.SpillWrites {
				t.Fatalf("%s: eviction did not spill the shard", what)
			}
			SetShardBudget(-1)
			withShard(func(s *Shard) {
				if CacheStats().SpillReads == before.SpillReads {
					t.Fatalf("%s: the shard was rebuilt, not reloaded", what)
				}
				checkSharedLists(t, what+" reloaded", s)
				if !slices.EqualFunc(s.shared, built, func(a, b []int32) bool { return (a == nil) == (b == nil) && slices.Equal(a, b) }) {
					t.Fatalf("%s: reloaded lists %v, built %v", what, s.shared, built)
				}
			})
		}()
	}
	t.Logf("%d one-tile shards; tiles: %d nil, %d partial, %d empty", oneTile, nilTiles, partial, empty)
	if oneTile == 0 || nilTiles == 0 || partial == 0 || empty == 0 {
		t.Fatalf("the shards missed a case: %d one-tile shards; tiles: %d nil, %d partial, %d empty", oneTile, nilTiles, partial, empty)
	}
}

// BenchmarkSelfContractCold times one cold self-contraction, shard build
// plus execute, per iteration on two frostt-cold shapes, and reports ns
// per nonzero: vast-01 cut into a 10×10 grid whose tiles' keys mostly live
// in no other tile, so the off-diagonal pairs iterate short shared-key
// lists, and vast-014 in one tile, where most keys hold one pair and the
// diagonal pair adds them straight, with 39k and 65k nonzeros, duplicate
// coordinates included; `go test -bench SelfContractCold ./internal/core`.
func BenchmarkSelfContractCold(b *testing.B) {
	for _, c := range []struct {
		tensor string
		ctr    []int
		scale  float64
		tile   uint64
		grid   int
	}{
		{"vast", []int{0, 1}, 0.0013, 128, 10},
		{"vast", []int{0, 1, 4}, 0.0022, 64, 1},
	} {
		m := frosttSelf(b, c.tensor, c.ctr, c.scale)
		cfg := Config{Threads: 1, TileL: c.tile, TileR: c.tile, Accum: model.AccumDense, Platform: model.Desktop8}
		b.Run(gen.ContractionName(c.tensor, c.ctr), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o := NewOperand(m)
				out, st, err := ContractOperands(o, o, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if st.NL != c.grid || !st.Symmetric {
					b.Fatalf("grid %dx%d (symmetric %v), want %dx%d", st.NL, st.NR, st.Symmetric, c.grid, c.grid)
				}
				RecycleOutput(out)
				o.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.NNZ()), "ns/nnz")
		})
	}
}
