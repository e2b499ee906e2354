// Benchmarks regenerating the paper's tables and figures as testing.B
// targets, one family per table/figure. These run at small scale so the
// full suite finishes in minutes; use cmd/fastcc-bench for the paper-style
// sweeps and tables at configurable scale.
package fastcc_test

import (
	"testing"

	"fastcc"
	"fastcc/internal/baselines"
	"fastcc/internal/coo"
	"fastcc/internal/experiments"
	"fastcc/internal/gen"
	"fastcc/internal/model"
)

// benchConfig returns the workload scales used by all benchmarks.
func benchConfig() experiments.Config {
	cfg := experiments.Default()
	cfg.ScaleFROSTT = 0.002
	cfg.ScaleQC = 0.08
	cfg.Platform = model.Desktop8
	return cfg
}

// loadCase materializes one catalog case at benchmark scale.
func loadCase(b *testing.B, id string) (*fastcc.Tensor, *fastcc.Tensor, fastcc.Spec) {
	b.Helper()
	cs, err := experiments.CaseByID(id)
	if err != nil {
		b.Fatal(err)
	}
	l, r, spec, err := cs.Load(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	return l, r, spec
}

// benchFastCC times the full FaSTCC pipeline on one case.
func benchFastCC(b *testing.B, id string, opts ...fastcc.Option) {
	l, r, spec := loadCase(b, id)
	opts = append(opts, fastcc.WithPlatform(model.Desktop8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fastcc.Contract(l, r, spec, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

// matrixPair builds a uniform matrixized operand pair for the loop-order
// benchmarks (Table 1's analysis workload).
func matrixPair(b *testing.B, ext, ctr uint64, nnz int) (*coo.Matrix, *coo.Matrix) {
	b.Helper()
	l, err := gen.UniformMatrix(ext, ctr, nnz, 1, gen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	r, err := gen.UniformMatrix(ext, ctr, nnz, 2, gen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return l, r
}

// --- Table 1: loop-order data-access costs -------------------------------

func BenchmarkTable1_LoopOrder_CI(b *testing.B) {
	l, r := matrixPair(b, 256, 64, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baselines.HashCI(l, r, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_LoopOrder_CM(b *testing.B) {
	l, r := matrixPair(b, 256, 64, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baselines.SpartaCM(l, r, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_LoopOrder_CO(b *testing.B) {
	l, r := matrixPair(b, 256, 64, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baselines.UntiledCO(l, r, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 2: FROSTT workload generation ---------------------------------

func BenchmarkTable2_GenerateChicago(b *testing.B) {
	spec, err := gen.FrosttByName("chicago")
	if err != nil {
		b.Fatal(err)
	}
	sc := spec.Scaled(0.002)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Generate(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 3: dense vs sparse accumulator, model choice -------------------

func BenchmarkTable3_Chicago01_Dense(b *testing.B) {
	benchFastCC(b, "chicago-01", fastcc.WithAccumulator(fastcc.AccumDense))
}

func BenchmarkTable3_Chicago01_Sparse(b *testing.B) {
	benchFastCC(b, "chicago-01", fastcc.WithAccumulator(fastcc.AccumSparse))
}

func BenchmarkTable3_Nips2_Sparse(b *testing.B) {
	benchFastCC(b, "nips-2", fastcc.WithAccumulator(fastcc.AccumSparse))
}

func BenchmarkTable3_GuanineVVOV_Model(b *testing.B) {
	benchFastCC(b, "guanine-vvov")
}

// --- Figure 2: FaSTCC vs Sparta -------------------------------------------

func benchSparta(b *testing.B, id string) {
	l, r, spec := loadCase(b, id)
	extL := coo.ExternalModes(l.Order(), spec.CtrLeft)
	extR := coo.ExternalModes(r.Order(), spec.CtrRight)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lm, err := l.Matrixize(extL, spec.CtrLeft)
		if err != nil {
			b.Fatal(err)
		}
		rm, err := r.Matrixize(extR, spec.CtrRight)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := baselines.SpartaCM(lm, rm, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2_FROSTT_Sparta(b *testing.B) { benchSparta(b, "chicago-0") }
func BenchmarkFig2_FROSTT_FaSTCC(b *testing.B) { benchFastCC(b, "chicago-0") }
func BenchmarkFig2_QC_Sparta(b *testing.B)     { benchSparta(b, "guanine-vvov") }
func BenchmarkFig2_QC_FaSTCC(b *testing.B)     { benchFastCC(b, "guanine-vvov") }
func BenchmarkFig2_Uber02_Sparta(b *testing.B) { benchSparta(b, "uber-02") }
func BenchmarkFig2_Uber02_FaSTCC(b *testing.B) { benchFastCC(b, "uber-02") }
func BenchmarkFig2_Vast01_Sparta(b *testing.B) { benchSparta(b, "vast-01") }
func BenchmarkFig2_Vast01_FaSTCC(b *testing.B) { benchFastCC(b, "vast-01") }

// --- Figure 3: thread scaling ---------------------------------------------

func BenchmarkFig3_Chicago0_1T(b *testing.B) {
	benchFastCC(b, "chicago-0", fastcc.WithThreads(1))
}

func BenchmarkFig3_Chicago0_2T(b *testing.B) {
	benchFastCC(b, "chicago-0", fastcc.WithThreads(2))
}

func BenchmarkFig3_Chicago0_4T(b *testing.B) {
	benchFastCC(b, "chicago-0", fastcc.WithThreads(4))
}

func BenchmarkFig3_Chicago0_MaxT(b *testing.B) {
	benchFastCC(b, "chicago-0", fastcc.WithThreads(0))
}

// --- Figure 4: tile-size sweep --------------------------------------------

func BenchmarkFig4_Tile64(b *testing.B) {
	benchFastCC(b, "chicago-01", fastcc.WithTileSize(64, 64))
}

func BenchmarkFig4_Tile512(b *testing.B) {
	benchFastCC(b, "chicago-01", fastcc.WithTileSize(512, 512))
}

func BenchmarkFig4_Tile2048(b *testing.B) {
	benchFastCC(b, "chicago-01", fastcc.WithTileSize(2048, 2048))
}

// --- Figure 5: sequential FaSTCC vs TACO CI --------------------------------

func BenchmarkFig5_TacoCI(b *testing.B) {
	l, r, spec := loadCase(b, "uber-02")
	extL := coo.ExternalModes(l.Order(), spec.CtrLeft)
	extR := coo.ExternalModes(r.Order(), spec.CtrRight)
	lm, err := l.Matrixize(extL, spec.CtrLeft)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := r.Matrixize(extR, spec.CtrRight)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baselines.TacoCI(lm, rm, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_FaSTCC1T(b *testing.B) {
	benchFastCC(b, "uber-02", fastcc.WithThreads(1))
}

// --- Ablation benches (design choices called out in DESIGN.md) ------------

func BenchmarkAblate_UntiledCO(b *testing.B) {
	l, r, spec := loadCase(b, "chicago-01")
	extL := coo.ExternalModes(l.Order(), spec.CtrLeft)
	extR := coo.ExternalModes(r.Order(), spec.CtrRight)
	lm, err := l.Matrixize(extL, spec.CtrLeft)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := r.Matrixize(extR, spec.CtrRight)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baselines.UntiledCO(lm, rm, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblate_TiledCO(b *testing.B) {
	benchFastCC(b, "chicago-01", fastcc.WithThreads(1))
}
