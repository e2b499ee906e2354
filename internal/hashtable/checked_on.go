//go:build fastcc_checked

// fastcc_checked mode: Sealed tables carry a generation stamp set once at
// the end of BuildSealed (or RestoreSealed) and checked on every cursor or probe access, so reading a
// table that never finished sealing (zero value, manual literal, or a
// future recycled-and-invalidated table) panics deterministically instead
// of returning garbage spans. checkSpan additionally re-derives each span's
// bounds against the arena — the dynamic twin of the spanarith analyzer's
// static rule.
package hashtable

import "fmt"

// sealedLiveGen marks a Sealed whose build completed. Any other value —
// including the zero value's 0 — fails checkLive.
const sealedLiveGen uint32 = 0x5EA1ED01

type checkedSealed struct {
	gen uint32
}

func (s *Sealed) stampLive() { s.ck.gen = sealedLiveGen }

// invalidate retires the table: every later access panics. Reserved for a
// future recycling path; exercised by the checked-mode lifetime tests.
func (s *Sealed) invalidate() { s.ck.gen = 0 }

func (s *Sealed) checkLive(op string) {
	if s.ck.gen != sealedLiveGen {
		panic(fmt.Sprintf(
			"hashtable.Sealed.%s: generation check failed (gen=%#x, want %#x): table was never sealed or was invalidated before this access",
			op, s.ck.gen, sealedLiveGen))
	}
}

func (s *Sealed) checkSpan(op string, sp Span) {
	s.checkLive(op)
	off, ln := int(sp.Off), int(sp.Len)
	if off < 0 || ln < 0 || off+ln > len(s.pairs) {
		panic(fmt.Sprintf(
			"hashtable.Sealed.%s: span {off=%d len=%d} out of arena bounds (pairs=%d): sealed state corrupted",
			op, off, ln, len(s.pairs)))
	}
}
