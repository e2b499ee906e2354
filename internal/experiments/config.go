// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) on synthetic workloads:
//
//	Table 1  — loop-order data-access analysis, measured vs. analytic
//	Table 2  — FROSTT tensor geometries
//	Table 3  — model output and dense/sparse accumulator timings
//	Fig. 2   — FaSTCC speedup over Sparta (FROSTT + quantum chemistry)
//	Fig. 3   — thread scaling of the FaSTCC kernel
//	Fig. 4   — execution time vs. tile size (U-curves)
//	Fig. 5   — sequential FaSTCC speedup over TACO's CI scheme
//
// plus ablations of the design choices (accumulator kind, tiling, CSF vs.
// hash CI). Each experiment prints a paper-style text table to the
// configured writer; absolute times are machine-dependent, but the shapes
// (who wins, by what factor, where crossovers fall) reproduce the paper.
package experiments

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"fastcc"
	"fastcc/internal/coo"
	"fastcc/internal/gen"
	"fastcc/internal/model"
)

// Config controls experiment scale and resources.
type Config struct {
	// ScaleFROSTT shrinks the FROSTT tensors (1 = paper size). The default
	// 0.01 runs the whole suite in minutes on a laptop.
	ScaleFROSTT float64
	// ScaleQC shrinks the quantum-chemistry orbital spaces (1 = preset).
	ScaleQC float64
	// Threads used by parallel engines; 0 = GOMAXPROCS.
	Threads int
	// Platform drives the tile-size model.
	Platform model.Platform
	// Seed makes workloads reproducible.
	Seed uint64
	// Repeats per timing; the minimum is reported.
	Repeats int
	// Verify cross-checks engine outputs against each other (slower).
	Verify bool
	// Out receives the rendered tables; nil = os.Stdout.
	Out io.Writer
	// Format selects table rendering: "table" (default) or "csv".
	Format string
}

// Default returns the laptop-sized configuration.
func Default() Config {
	return Config{
		ScaleFROSTT: 0.01,
		ScaleQC:     0.25,
		Threads:     0,
		Platform:    model.Auto(),
		Seed:        42,
		Repeats:     1,
	}
}

func (c Config) writer() io.Writer {
	if c.Out != nil {
		return c.Out
	}
	return os.Stdout
}

func (c Config) repeats() int {
	if c.Repeats < 1 {
		return 1
	}
	return c.Repeats
}

// Case is one benchmark contraction of the evaluation.
type Case struct {
	// ID follows the paper's naming (chicago-0, nips-23, guanine-ovov...).
	ID    string
	Suite string // "frostt" or "qc"
	// Load materializes the operands and contraction spec at the config's
	// scale. Self-contractions return the same tensor twice.
	Load func(cfg Config) (l, r *coo.Tensor, spec coo.Spec, err error)
}

// Catalog returns all 16 evaluation contractions: 10 FROSTT
// self-contractions and 6 quantum-chemistry contractions (Section 6.1).
func Catalog() []Case {
	var cases []Case
	for _, spec := range gen.FrosttSuite {
		spec := spec
		for _, modes := range spec.Contractions {
			modes := modes
			cases = append(cases, Case{
				ID:    gen.ContractionName(spec.Name, modes),
				Suite: "frostt",
				Load: func(cfg Config) (*coo.Tensor, *coo.Tensor, coo.Spec, error) {
					t, err := spec.Scaled(cfg.ScaleFROSTT).Generate(cfg.Seed)
					if err != nil {
						return nil, nil, coo.Spec{}, err
					}
					s := coo.Spec{CtrLeft: modes, CtrRight: modes}
					return t, t, s, nil
				},
			})
		}
	}
	for _, mol := range gen.Molecules {
		mol := mol
		for _, kind := range gen.QCKinds {
			kind := kind
			cases = append(cases, Case{
				ID:    mol.Name + "-" + kind,
				Suite: "qc",
				Load: func(cfg Config) (*coo.Tensor, *coo.Tensor, coo.Spec, error) {
					return mol.Scaled(cfg.ScaleQC).Contraction(kind)
				},
			})
		}
	}
	return cases
}

// CatalogSuite filters the catalog by suite name ("frostt", "qc", "all").
func CatalogSuite(suite string) []Case {
	all := Catalog()
	if suite == "" || suite == "all" {
		return all
	}
	var out []Case
	for _, c := range all {
		if c.Suite == suite {
			out = append(out, c)
		}
	}
	return out
}

// CaseByID finds one case by its paper-style name.
func CaseByID(id string) (Case, error) {
	for _, c := range Catalog() {
		if c.ID == id {
			return c, nil
		}
	}
	return Case{}, fmt.Errorf("experiments: unknown case %q", id)
}

// timeIt runs fn cfg.Repeats times and returns the minimum duration.
func timeIt(cfg Config, fn func() error) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < cfg.repeats(); i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// table is a minimal aligned text-table renderer.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) addf(format string, args ...any) {
	t.add(strings.Split(fmt.Sprintf(format, args...), "|")...)
}

func (t *table) render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// secs renders a duration in seconds with three significant decimals.
func secs(d time.Duration) string { return fmt.Sprintf("%.4f", d.Seconds()) }

// fastccOpts assembles the common option set.
func fastccOpts(cfg Config, extra ...fastcc.Option) []fastcc.Option {
	opts := []fastcc.Option{
		fastcc.WithThreads(cfg.Threads),
		fastcc.WithPlatform(cfg.Platform),
	}
	return append(opts, extra...)
}

// renderCSV emits the table as RFC-4180-ish CSV (fields with commas or
// quotes are quoted) for downstream plotting.
func (t *table) renderCSV(w io.Writer) {
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			fmt.Fprint(w, c)
		}
		fmt.Fprintln(w)
	}
	writeRow(t.header)
	for _, r := range t.rows {
		writeRow(r)
	}
}

// print renders a finished table in the configured format.
func (c Config) print(t *table) {
	if c.Format == "csv" {
		t.renderCSV(c.writer())
		return
	}
	t.render(c.writer())
}
