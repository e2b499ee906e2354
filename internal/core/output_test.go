package core

import (
	"fmt"
	"math/rand"
	"testing"

	"fastcc/internal/coo"
	"fastcc/internal/mempool"
)

// randomOutput builds an output list the way the engine does, several
// worker pools concatenated by reference, with random indices below each
// side's extent product. sizes gives each pool's element count, so pools
// end in partial chunks whenever a size is not a multiple of chunkLen.
func randomOutput(rng *rand.Rand, lDims, rDims []uint64, chunkLen int, sizes ...int) *mempool.List[Triple] {
	lSize, _ := coo.LinearSize(lDims)
	rSize, _ := coo.LinearSize(rDims)
	pools := make([]*mempool.Pool[Triple], len(sizes))
	for p, n := range sizes {
		pools[p] = mempool.New[Triple](chunkLen)
		for i := 0; i < n; i++ {
			pools[p].Append(Triple{L: rng.Uint64() % lSize, R: rng.Uint64() % rSize, V: rng.NormFloat64()})
		}
	}
	return mempool.Concat(pools...)
}

// TestDelinearizeOutputMatchesFromPairs pins DelinearizeOutput, element
// order included, to a ForEach walk delinearized with the plain div/mod
// coo.Delinearize, and to FromPairsP over the same flattened triples. The
// sizes cross coo.ParallelDelinearizeMin, so at 2 and 4 workers the element
// ranges cut through chunks mid-way and land on the running prefix offset.
func TestDelinearizeOutputMatchesFromPairs(t *testing.T) {
	big := coo.ParallelDelinearizeMin
	cases := []struct {
		name         string
		lDims, rDims []uint64
		chunkLen     int
		sizes        []int
	}{
		{"empty", []uint64{4, 5}, []uint64{6}, 1000, nil},
		{"3x3 modes", []uint64{8, 24, 10}, []uint64{785, 905, 5}, 1000, []int{big + 7, 3, big/2 + 1}},
		{"1-mode sides", []uint64{1956}, []uint64{1956}, 999, []int{2*big + 5, 1}},
		{"no right modes", []uint64{3, 7, 11}, nil, 1000, []int{big + 333, big - 1}},
		{"no left modes", nil, []uint64{2, 1 << 20}, 4096, []int{3*big + 17}},
		{"small", []uint64{5, 6}, []uint64{7, 8}, 7, []int{50, 0, 13}},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(int64(len(tc.name))))
		out := randomOutput(rng, tc.lDims, tc.rDims, tc.chunkLen, tc.sizes...)
		n := out.Len()
		nl := len(tc.lDims)
		dims := append(append([]uint64(nil), tc.lDims...), tc.rDims...)
		want := coo.Alloc(dims, n)
		ls, rs := make([]uint64, 0, n), make([]uint64, 0, n)
		coords := make([]uint64, len(dims))
		i := 0
		out.ForEach(func(tr Triple) {
			coo.Delinearize(tr.L, tc.lDims, coords[:nl])
			coo.Delinearize(tr.R, tc.rDims, coords[nl:])
			for m, c := range coords {
				want.Coords[m][i] = c
			}
			want.Vals[i] = tr.V
			ls, rs = append(ls, tr.L), append(rs, tr.R)
			i++
		})
		for _, workers := range []int{1, 2, 4} {
			got, err := DelinearizeOutput(out, tc.lDims, tc.rDims, workers)
			if err != nil {
				t.Fatalf("%s/%d workers: %v", tc.name, workers, err)
			}
			sameElements(t, fmt.Sprintf("%s/DelinearizeOutput/%d workers", tc.name, workers), got, want)
			fp, err := coo.FromPairsP(ls, rs, want.Vals, tc.lDims, tc.rDims, workers)
			if err != nil {
				t.Fatalf("%s/%d workers: FromPairsP: %v", tc.name, workers, err)
			}
			sameElements(t, fmt.Sprintf("%s/FromPairsP/%d workers", tc.name, workers), fp, want)
		}
	}
}

// sameElements fails unless got and want agree in dims and in every
// element, position by position.
func sameElements(t *testing.T, what string, got, want *coo.Tensor) {
	t.Helper()
	if fmt.Sprint(got.Dims) != fmt.Sprint(want.Dims) || got.NNZ() != want.NNZ() || len(got.Coords) != len(want.Coords) {
		t.Fatalf("%s: dims %v nnz %d, want dims %v nnz %d", what, got.Dims, got.NNZ(), want.Dims, want.NNZ())
	}
	for i := range want.Vals {
		if got.Vals[i] != want.Vals[i] {
			t.Fatalf("%s: element %d value %v, want %v", what, i, got.Vals[i], want.Vals[i])
		}
		for m := range want.Coords {
			if got.Coords[m][i] != want.Coords[m][i] {
				t.Fatalf("%s: element %d mode %d coordinate %d, want %d", what, i, m, got.Coords[m][i], want.Coords[m][i])
			}
		}
	}
}

// BenchmarkDelinearizeOutput times the output copy on the three
// frostt-dense-out output shapes at about 1M nonzeros, in engine-sized
// chunks.
func BenchmarkDelinearizeOutput(b *testing.B) {
	shapes := []struct {
		name         string
		lDims, rDims []uint64
	}{
		{"8x24x10|8x24x10", []uint64{8, 24, 10}, []uint64{8, 24, 10}},
		{"785x905x5|785x905x5", []uint64{785, 905, 5}, []uint64{785, 905, 5}},
		{"1956|1956", []uint64{1956}, []uint64{1956}},
	}
	const n = 1 << 20
	for _, sh := range shapes {
		out := randomOutput(rand.New(rand.NewSource(1)), sh.lDims, sh.rDims, 0, n/2, n/2)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", sh.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(n) * int64(8*(len(sh.lDims)+len(sh.rDims))+8))
				for i := 0; i < b.N; i++ {
					if _, err := DelinearizeOutput(out, sh.lDims, sh.rDims, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
