package experiments

import (
	"strings"
	"testing"

	"fastcc/internal/model"
)

// tinyConfig is small enough that every experiment finishes in seconds.
func tinyConfig(buf *strings.Builder) Config {
	cfg := Default()
	cfg.ScaleFROSTT = 0.0005
	cfg.ScaleQC = 0.02
	cfg.Threads = 2
	cfg.Platform = model.Desktop8
	cfg.Verify = true
	cfg.Out = buf
	return cfg
}

func TestCatalogComplete(t *testing.T) {
	cases := Catalog()
	if len(cases) != 16 {
		t.Fatalf("catalog has %d cases, want 16 (10 FROSTT + 6 QC)", len(cases))
	}
	wantIDs := []string{
		"nips-2", "nips-23", "nips-013",
		"chicago-0", "chicago-01", "chicago-123",
		"vast-01", "vast-014", "uber-02", "uber-123",
		"guanine-ovov", "guanine-vvoo", "guanine-vvov",
		"caffeine-ovov", "caffeine-vvoo", "caffeine-vvov",
	}
	have := map[string]bool{}
	for _, c := range cases {
		have[c.ID] = true
	}
	for _, id := range wantIDs {
		if !have[id] {
			t.Fatalf("missing case %q", id)
		}
	}
	if len(CatalogSuite("frostt")) != 10 || len(CatalogSuite("qc")) != 6 {
		t.Fatalf("suite split wrong: %d/%d", len(CatalogSuite("frostt")), len(CatalogSuite("qc")))
	}
	if _, err := CaseByID("nope"); err == nil {
		t.Fatal("unknown case should error")
	}
}

func TestCasesLoadAndValidate(t *testing.T) {
	var buf strings.Builder
	cfg := tinyConfig(&buf)
	for _, cs := range Catalog() {
		l, r, spec, err := cs.Load(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cs.ID, err)
		}
		if err := spec.Validate(l, r); err != nil {
			t.Fatalf("%s: %v", cs.ID, err)
		}
		if l.NNZ() == 0 || r.NNZ() == 0 {
			t.Fatalf("%s: empty operands at tiny scale", cs.ID)
		}
	}
}

func TestRunTable1OutputShape(t *testing.T) {
	var buf strings.Builder
	cfg := tinyConfig(&buf)
	if err := RunTable1(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "CI", "CM", "CO", "queries", "ws_words", "balanced"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTable2OutputShape(t *testing.T) {
	var buf strings.Builder
	cfg := tinyConfig(&buf)
	if err := RunTable2(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"nips", "chicago", "vast", "uber", "2482x2862x14036x17"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTable3OutputShape(t *testing.T) {
	var buf strings.Builder
	cfg := tinyConfig(&buf)
	if err := RunTable3(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"chicago-0", "nips-2", "guanine-vvov", "D/S"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFig2Verifies(t *testing.T) {
	var buf strings.Builder
	cfg := tinyConfig(&buf)
	// Verify=true makes Fig2 cross-check FaSTCC against Sparta per case.
	if err := RunFig2(cfg, "qc"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "caffeine-vvov") {
		t.Fatalf("missing qc rows:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "chicago") {
		t.Fatal("frostt rows in qc suite")
	}
}

func TestRunFig3OutputShape(t *testing.T) {
	var buf strings.Builder
	cfg := tinyConfig(&buf)
	cfg.Threads = 2
	if err := RunFig3(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"T=1", "T=2", "chicago-0", "1.00x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFig4OutputShape(t *testing.T) {
	var buf strings.Builder
	cfg := tinyConfig(&buf)
	if err := RunFig4(cfg, "qc"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "<= model") {
		t.Fatalf("model tile not marked:\n%s", out)
	}
}

func TestRunFig5OutputShape(t *testing.T) {
	var buf strings.Builder
	cfg := tinyConfig(&buf)
	if err := RunFig5(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"taco-ci", "speedup", "nips-2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAblations(t *testing.T) {
	var buf strings.Builder
	cfg := tinyConfig(&buf)
	if err := RunAblations(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"A1", "A3", "A4", "A6", "A8", "untiled", "open-addressing", "chaining", "vast-014"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestDispatch(t *testing.T) {
	var buf strings.Builder
	cfg := tinyConfig(&buf)
	if err := Run(cfg, "table2", "all"); err != nil {
		t.Fatal(err)
	}
	if err := Run(cfg, "nope", "all"); err == nil {
		t.Fatal("unknown experiment should error")
	}
	names := Names()
	if len(names) != 10 {
		t.Fatalf("Names() = %v", names)
	}
	if err := Run(cfg, "model", "all"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "meas/pred") {
		t.Fatal("model experiment output missing")
	}
}

func TestDenseGridPrediction(t *testing.T) {
	var buf strings.Builder
	cfg := tinyConfig(&buf)
	cs, err := CaseByID("chicago-0")
	if err != nil {
		t.Fatal(err)
	}
	l, r, spec, err := cs.Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := denseGrid(l, r, spec, 512)
	if err != nil {
		t.Fatal(err)
	}
	if grid < 1 {
		t.Fatalf("grid=%d", grid)
	}
	if _, err := denseGrid(l, r, spec, 0); err == nil {
		t.Fatal("zero tile should error")
	}
}
