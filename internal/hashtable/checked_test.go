package hashtable

import (
	"testing"

	"fastcc/internal/mempool"
)

// expectPanicWhenChecked asserts fn panics under -tags fastcc_checked and
// runs clean otherwise (where the generation hooks compile to no-ops).
func expectPanicWhenChecked(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if mempool.Checked && r == nil {
			t.Fatalf("%s: fastcc_checked build did not panic", what)
		}
		if !mempool.Checked && r != nil {
			t.Fatalf("%s: normal build panicked: %v", what, r)
		}
	}()
	fn()
}

// TestSealedGenerationStamp: a properly built table passes every checked
// access; the stamp must never fire on the happy path.
func TestSealedGenerationStamp(t *testing.T) {
	var c cols
	c.add(7, 1, 1.5)
	c.add(7, 2, 2.5)
	c.add(9, 3, 3.5)
	s := c.build(4)
	if s.Len() != 2 || s.Pairs() != 3 {
		t.Fatalf("Len=%d Pairs=%d, want 2/3", s.Len(), s.Pairs())
	}
	for i := 0; i < s.Len(); i++ {
		_ = s.KeyAt(i)
		_ = s.PairsAt(i)
	}
	if got := len(s.Lookup(7)); got != 2 {
		t.Fatalf("Lookup(7) len=%d, want 2", got)
	}
}

// TestSealedInvalidatedAccessPanics: once a table is retired, every cursor
// and probe access must fail fast under fastcc_checked instead of serving
// spans into storage that may have been recycled.
func TestSealedInvalidatedAccessPanics(t *testing.T) {
	s := BuildSealed([]uint64{7}, []uint32{1}, []float64{1.5}, 4)
	s.invalidate()
	expectPanicWhenChecked(t, "KeyAt after invalidate", func() { _ = s.KeyAt(0) })
	expectPanicWhenChecked(t, "PairsAt after invalidate", func() { _ = s.PairsAt(0) })
	expectPanicWhenChecked(t, "Lookup after invalidate", func() { _ = s.Lookup(7) })
}

// TestSealedCorruptSpanPanics: checkSpan re-derives bounds against the
// arena, catching corrupted sealed state that int-widened slicing alone
// would surface only as a less specific slice panic.
func TestSealedCorruptSpanPanics(t *testing.T) {
	if !mempool.Checked {
		t.Skip("span re-validation is compiled in only under fastcc_checked")
	}
	s := BuildSealed([]uint64{7}, []uint32{1}, []float64{1.5}, 4)
	s.spans[0].Len = int32(len(s.pairs)) + 5
	expectPanicWhenChecked(t, "PairsAt with corrupt span", func() { _ = s.PairsAt(0) })
}
