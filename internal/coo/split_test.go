package coo

import (
	"math"
	"math/rand"
	"testing"
)

// maxGenExtent bounds every mode extent the FROSTT and QC generators
// produce: the largest paper extent is vast's 165,427 (the QC orbital
// spaces stay below 300), and scaling only shrinks extents.
const maxGenExtent = 165_427

func checkDiv(t *testing.T, dv divisor, d, x uint64) {
	t.Helper()
	if got, want := dv.div(x), x/d; got != want {
		t.Fatalf("%d / %d = %d, want %d (divisor %+v)", x, d, got, want, dv)
	}
}

// TestDivisorExact checks the reciprocal quotient against the hardware
// divide for every extent 1..maxGenExtent and the boundary divisors
// (2^k ± 1, 2^63 + 1, MaxUint64), at the dividends where rounding errors
// surface first.
func TestDivisorExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ds := []uint64{1, 2, 3, 7, 1<<63 + 1, math.MaxUint64}
	for k := uint(1); k < 64; k++ {
		ds = append(ds, 1<<k-1, 1<<k, 1<<k+1)
	}
	for d := uint64(1); d <= maxGenExtent; d++ {
		ds = append(ds, d)
	}
	for _, d := range ds {
		dv := newDivisor(d)
		q := math.MaxUint64 / d
		xs := []uint64{0, d - 1, d, math.MaxUint64, rng.Uint64(), q * d, q*d - 1}
		if d <= math.MaxUint64/2 {
			xs = append(xs, 2*d-1)
		}
		for _, x := range xs {
			checkDiv(t, dv, d, x)
		}
	}
}

func FuzzDivisor(f *testing.F) {
	f.Add(uint64(3), uint64(100))
	f.Add(uint64(7), uint64(math.MaxUint64))
	f.Add(uint64(1<<63+1), uint64(1<<63))
	f.Add(uint64(math.MaxUint64), uint64(math.MaxUint64-1))
	f.Fuzz(func(t *testing.T, d, x uint64) {
		if d == 0 {
			return
		}
		checkDiv(t, newDivisor(d), d, x)
	})
}

// TestSplitterMatchesDelinearize pins Split, both with a separate index
// column and in place, to the plain div/mod Delinearize.
func TestSplitterMatchesDelinearize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		dims := make([]uint64, rng.Intn(6)+1)
		for m := range dims {
			dims[m] = uint64(rng.Intn(200) + 1)
		}
		size, err := LinearSize(dims)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSplitter(dims)
		if err != nil {
			t.Fatal(err)
		}
		n, at := rng.Intn(50)+1, rng.Intn(5)
		idxs := make([]uint64, n)
		for i := range idxs {
			idxs[i] = rng.Uint64() % size
		}
		idxs[0] = size - 1
		sep := Alloc(dims, at+n).Coords
		s.Split(sep, at, idxs)
		inPlace := Alloc(dims, at+n).Coords
		copy(inPlace[0][at:], idxs)
		s.Split(inPlace, at, inPlace[0][at:at+n])
		want := make([]uint64, len(dims))
		for i, idx := range idxs {
			Delinearize(idx, dims, want)
			for m := range dims {
				if sep[m][at+i] != want[m] || inPlace[m][at+i] != want[m] {
					t.Fatalf("dims %v idx %d mode %d: split %d, in place %d, want %d",
						dims, idx, m, sep[m][at+i], inPlace[m][at+i], want[m])
				}
			}
		}
	}
}

// TestSplitOutOfRangeIndexPanicsWhenChecked: the splitter keeps the raw
// mode-0 quotient where the old path wrapped it with % dims[0]; the
// checked build panics on an index past the extent product.
func TestSplitOutOfRangeIndexPanicsWhenChecked(t *testing.T) {
	s, err := NewSplitter([]uint64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	dst := Alloc([]uint64{3, 4}, 2).Coords
	mustPanicWhenChecked(t, "out-of-range index", func() {
		s.Split(dst, 0, []uint64{11, 12})
	})
}
