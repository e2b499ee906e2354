package main

import (
	"bytes"
	"strings"
	"testing"

	"fastcc/tools/analysis/framework"
)

func TestListNamesEveryAnalyzer(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, errOut.String())
	}
	for _, a := range All {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("-list output missing analyzer %q", a.Name)
		}
	}
}

func TestValidateSuite(t *testing.T) {
	if err := validateSuite(All); err != nil {
		t.Fatalf("registered suite invalid: %v", err)
	}
	ok := &framework.Analyzer{Name: "ok", Run: func(*framework.Pass) error { return nil }}
	cases := []struct {
		name string
		all  []*framework.Analyzer
	}{
		{"nil entry", []*framework.Analyzer{ok, nil}},
		{"unnamed", []*framework.Analyzer{{Run: ok.Run}}},
		{"runless", []*framework.Analyzer{{Name: "broken"}}},
		{"duplicate", []*framework.Analyzer{ok, {Name: "ok", Run: ok.Run}}},
	}
	for _, tc := range cases {
		if err := validateSuite(tc.all); err == nil {
			t.Errorf("%s: validateSuite accepted a malformed suite", tc.name)
		}
	}
}

// TestBrokenSuiteExitsNonZero pins the driver behavior: a bad registration
// must abort with exit 2, not skip the pass.
func TestBrokenSuiteExitsNonZero(t *testing.T) {
	saved := All
	defer func() { All = saved }()
	All = append([]*framework.Analyzer{nil}, saved...)
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 2 {
		t.Fatalf("run with nil analyzer = %d, want 2 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "invalid analyzer suite") {
		t.Errorf("stderr missing suite diagnosis: %s", errOut.String())
	}
}

func TestUnknownAnalyzerRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-c", "nosuch", "./..."}, &out, &errOut); code != 2 {
		t.Fatalf("run(-c nosuch) = %d, want 2", code)
	}
}

// TestRepoIsClean is the suite's own acceptance gate: the multichecker must
// exit 0 over the entire module. A regression that reintroduces a finding
// (or an analyzer change that false-positives on existing code) fails here.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list -export over the whole module")
	}
	root, err := framework.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-dir", root, "./..."}, &out, &errOut)
	if code != 0 {
		t.Errorf("fastcc-vet ./... = exit %d, want 0\nfindings:\n%s%s", code, out.String(), errOut.String())
	}
}
