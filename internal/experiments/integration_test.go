package experiments

import (
	"strings"
	"testing"

	"fastcc"
	"fastcc/internal/coo"
)

// TestAllEnginesAgreeOnCatalog is the repo's widest integration test: for
// every one of the 16 evaluation contractions (at tiny scale), the FaSTCC
// engine with each accumulator (dense and sparse), the Sparta-CM baseline
// and the TACO-CI baseline must all produce the same tensor.
func TestAllEnginesAgreeOnCatalog(t *testing.T) {
	var buf strings.Builder
	cfg := tinyConfig(&buf)
	for _, cs := range Catalog() {
		cs := cs
		t.Run(cs.ID, func(t *testing.T) {
			l, r, spec, err := cs.Load(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := runBaseline(cfg, baseSparta, l, r, spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			taco, _, err := runBaseline(cfg, baseTaco, l, r, spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !coo.ApproxEqual(want, taco, 1e-9) {
				t.Fatal("sparta vs taco mismatch")
			}
			variants := []struct {
				name string
				opts []fastcc.Option
			}{
				{"dense", []fastcc.Option{fastcc.WithAccumulator(fastcc.AccumDense)}},
				{"sparse", []fastcc.Option{fastcc.WithAccumulator(fastcc.AccumSparse)}},
			}
			for _, v := range variants {
				if strings.HasSuffix(v.name, "dense") {
					dec, err := decideFor(cfg, l, r, spec)
					if err != nil {
						t.Fatal(err)
					}
					if grid, err := denseGrid(l, r, spec, dec.DenseT); err != nil || grid > 1<<22 {
						continue // dense accumulator infeasible for this case at this scale
					}
				}
				got, _, _, err := runFastCC(cfg, l, r, spec, v.opts...)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if !coo.ApproxEqual(got, want, 1e-9) {
					t.Fatalf("%s disagrees with sparta (%d vs %d nnz)", v.name, got.NNZ(), want.NNZ())
				}
			}
		})
	}
}
