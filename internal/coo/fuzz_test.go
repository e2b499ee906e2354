package coo

import (
	"strings"
	"testing"
)

func FuzzReadTNS(f *testing.F) {
	f.Add("1 2 3 1.5\n4 1 1 -2\n")
	f.Add("# dims: 4 4\n1 1 0.5\n")
	f.Add("# comment\n\n2 2 1e300\n")
	f.Add("0 0 0\n")
	f.Add("x")
	f.Add("1 NAN")
	f.Fuzz(func(t *testing.T, in string) {
		tn, err := ReadTNS(strings.NewReader(in)) // must never panic
		if err != nil {
			return
		}
		if verr := tn.Validate(); verr != nil {
			t.Fatalf("ReadTNS accepted invalid tensor: %v\ninput: %q", verr, in)
		}
		// Round-trip: our own writer output must re-parse equal.
		var sb strings.Builder
		if werr := WriteTNS(&sb, tn); werr != nil {
			t.Fatalf("WriteTNS: %v", werr)
		}
		back, rerr := ReadTNS(strings.NewReader(sb.String()))
		if rerr != nil {
			t.Fatalf("re-parse: %v", rerr)
		}
		if !Equal(tn, back) {
			t.Fatalf("write/read round trip changed tensor\ninput: %q", in)
		}
	})
}
