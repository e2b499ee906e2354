package main

import (
	"path/filepath"
	"strings"
	"testing"

	"fastcc"
)

func writeTensor(t *testing.T, dir, name string, build func(*fastcc.Tensor)) string {
	t.Helper()
	tn := fastcc.NewTensor([]uint64{3, 3}, 4)
	build(tn)
	path := filepath.Join(dir, name)
	if err := fastcc.SaveTNS(path, tn); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunMatrixMultiply(t *testing.T) {
	dir := t.TempDir()
	lp := writeTensor(t, dir, "l.tns", func(tn *fastcc.Tensor) {
		tn.Append([]uint64{0, 0}, 2)
		tn.Append([]uint64{1, 2}, 3)
	})
	rp := writeTensor(t, dir, "r.tns", func(tn *fastcc.Tensor) {
		tn.Append([]uint64{0, 1}, 4)
		tn.Append([]uint64{2, 2}, 5)
	})
	outPath := filepath.Join(dir, "o.tns")
	var stdout, stderr strings.Builder
	err := run([]string{
		"-left", lp, "-right", rp,
		"-ctr-left", "1", "-ctr-right", "0",
		"-out", outPath, "-stats", "-metrics", "-threads", "2",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fastcc.LoadTNS(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if out.NNZ() != 2 {
		t.Fatalf("output nnz=%d", out.NNZ())
	}
	if got := out.At([]uint64{0, 1}); got != 8 {
		t.Fatalf("O[0,1]=%g want 8", got)
	}
	if got := out.At([]uint64{1, 2}); got != 15 {
		t.Fatalf("O[1,2]=%g want 15", got)
	}
	if !strings.Contains(stderr.String(), "accumulator=") || !strings.Contains(stderr.String(), "counters:") {
		t.Fatalf("stats missing from stderr: %q", stderr.String())
	}
}

func TestRunSelfContractionToStdout(t *testing.T) {
	dir := t.TempDir()
	lp := writeTensor(t, dir, "l.tns", func(tn *fastcc.Tensor) {
		tn.Append([]uint64{0, 1}, 2)
		tn.Append([]uint64{2, 1}, 3)
	})
	var stdout, stderr strings.Builder
	if err := run([]string{"-left", lp, "-ctr-left", "1", "-accum", "sparse", "-platform", "desktop8", "-stats"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	got, err := fastcc.ReadTNS(strings.NewReader(stdout.String()))
	if err != nil {
		t.Fatal(err)
	}
	// Self-contraction over mode 1: O[i,i'] = Σ_j T[i,j]·T[i',j].
	if got.At([]uint64{0, 2}) != 6 || got.At([]uint64{2, 0}) != 6 || got.At([]uint64{0, 0}) != 4 {
		t.Fatalf("unexpected output:\n%s", stdout.String())
	}
	// One tensor on both sides runs the symmetric schedule, and the stats
	// say so.
	if !strings.Contains(stderr.String(), " sym ") {
		t.Fatalf("stats do not mark the symmetric schedule:\n%s", stderr.String())
	}
}

func TestRunStatsMarkDenseLayout(t *testing.T) {
	// The left operand's one key has a run of 64 pairs and the right's a run
	// of 2, so the 64×64 dense tile is laid out R-major and scattered along
	// the long run, and the stats say so.
	dir := t.TempDir()
	l := fastcc.NewTensor([]uint64{64, 1}, 64)
	for i := uint64(0); i < 64; i++ {
		l.Append([]uint64{i, 0}, float64(i+1))
	}
	r := fastcc.NewTensor([]uint64{1, 2}, 2)
	r.Append([]uint64{0, 0}, 2)
	r.Append([]uint64{0, 1}, 3)
	lp, rp := filepath.Join(dir, "l.tns"), filepath.Join(dir, "r.tns")
	for path, tn := range map[string]*fastcc.Tensor{lp: l, rp: r} {
		if err := fastcc.SaveTNS(path, tn); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr strings.Builder
	if err := run([]string{"-left", lp, "-right", rp, "-ctr-left", "1", "-ctr-right", "0",
		"-accum", "dense", "-tile", "64", "-threads", "1", "-stats"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	got, err := fastcc.ReadTNS(strings.NewReader(stdout.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 128 || got.At([]uint64{9, 0}) != 20 || got.At([]uint64{63, 1}) != 192 {
		t.Fatalf("unexpected output (%d nonzeros):\n%s", got.NNZ(), stdout.String())
	}
	if !strings.Contains(stderr.String(), " rmajor ") {
		t.Fatalf("stats do not mark the R-major layout:\n%s", stderr.String())
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	lp := writeTensor(t, dir, "l.tns", func(tn *fastcc.Tensor) {
		tn.Append([]uint64{0, 0}, 1)
	})
	cases := [][]string{
		{},            // missing required flags
		{"-left", lp}, // missing -ctr-left
		{"-left", dir + "/missing.tns", "-ctr-left", "0"},
		{"-left", lp, "-ctr-left", "x"},
		{"-left", lp, "-ctr-left", "0", "-accum", "bogus"},
		{"-left", lp, "-ctr-left", "0", "-platform", "bogus"},
		{"-left", lp, "-ctr-left", "9"}, // mode out of range
	}
	for i, args := range cases {
		var stdout, stderr strings.Builder
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("case %d (%v): want error", i, args)
		}
	}
}

func TestParseModes(t *testing.T) {
	got, err := parseModes("0, 2,3")
	if err != nil || len(got) != 3 || got[1] != 2 {
		t.Fatalf("parseModes: %v %v", got, err)
	}
	if _, err := parseModes(""); err == nil {
		t.Fatal("empty mode list should error")
	}
}

func TestRunWithVerify(t *testing.T) {
	dir := t.TempDir()
	lp := writeTensor(t, dir, "l.tns", func(tn *fastcc.Tensor) {
		tn.Append([]uint64{0, 0}, 2)
		tn.Append([]uint64{1, 1}, 3)
		tn.Append([]uint64{2, 1}, 4)
	})
	var stdout, stderr strings.Builder
	if err := run([]string{"-left", lp, "-ctr-left", "1", "-verify", "32"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "verified 32") {
		t.Fatalf("verify note missing: %q", stderr.String())
	}
}
