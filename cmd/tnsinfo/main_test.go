package main

import (
	"path/filepath"
	"strings"
	"testing"

	"fastcc"
)

func sample(t *testing.T) string {
	t.Helper()
	tn := fastcc.NewTensor([]uint64{32, 16, 8}, 4)
	tn.Append([]uint64{0, 0, 0}, 1)
	tn.Append([]uint64{1, 1, 1}, 2)
	tn.Append([]uint64{31, 15, 7}, 3)
	tn.Append([]uint64{2, 1, 0}, 4)
	path := filepath.Join(t.TempDir(), "s.tns")
	if err := fastcc.SaveTNS(path, tn); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestInfoBasic(t *testing.T) {
	path := sample(t)
	var stdout, stderr strings.Builder
	if err := run([]string{"-in", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"order:   3", "nnz:     4", "mode 0:", "mode 2:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestInfoWithContraction(t *testing.T) {
	path := sample(t)
	var stdout, stderr strings.Builder
	if err := run([]string{"-in", path, "-ctr", "2", "-platform", "desktop8"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"self-contraction over modes [2]", "accumulator", "E_nnz"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestInfoErrors(t *testing.T) {
	path := sample(t)
	cases := [][]string{
		{},
		{"-in", "/definitely/missing.tns"},
		{"-in", path, "-ctr", "x"},
		{"-in", path, "-ctr", "9"},
		{"-in", path, "-ctr", "0", "-platform", "bogus"},
	}
	for i, args := range cases {
		var stdout, stderr strings.Builder
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}
