// Command fastcc-bench regenerates the paper's evaluation tables and
// figures on synthetic workloads:
//
//	fastcc-bench -exp table3                  # model choice + timings
//	fastcc-bench -exp fig2 -suite frostt      # speedups over Sparta
//	fastcc-bench -exp all -scale-frostt 0.05  # everything, bigger inputs
//
// Available experiments: table1 table2 table3 fig2 fig3 fig4 fig5 ablate
// model phases, or "all". Scales of 1.0 approximate paper-sized inputs
// (hours of compute and tens of GB); the defaults finish on a laptop in
// minutes. The end-to-end performance benchmark is the separate bench/
// module (see bench/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fastcc/internal/experiments"
	"fastcc/internal/model"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fastcc-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fastcc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := experiments.Default()
	var (
		exp         = fs.String("exp", "all", "experiment: "+strings.Join(experiments.Names(), ", ")+" or all")
		suite       = fs.String("suite", "all", "benchmark suite for fig2/fig4: frostt, qc or all")
		scaleFrostt = fs.Float64("scale-frostt", def.ScaleFROSTT, "FROSTT workload scale (1 = paper size)")
		scaleQC     = fs.Float64("scale-qc", def.ScaleQC, "quantum-chemistry workload scale")
		threads     = fs.Int("threads", 0, "worker threads (0 = all cores)")
		platform    = fs.String("platform", "auto", "model platform: auto, desktop8 or server64")
		seed        = fs.Uint64("seed", def.Seed, "workload seed")
		repeats     = fs.Int("repeats", def.Repeats, "timing repeats (min reported)")
		verify      = fs.Bool("verify", false, "cross-check engine outputs (slower)")
		format      = fs.String("format", "table", "table rendering: table or csv")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiments.Default()
	cfg.Out = stdout
	cfg.ScaleFROSTT = *scaleFrostt
	cfg.ScaleQC = *scaleQC
	cfg.Threads = *threads
	cfg.Seed = *seed
	cfg.Repeats = *repeats
	cfg.Verify = *verify
	switch *format {
	case "table", "csv":
		cfg.Format = *format
	default:
		return fmt.Errorf("unknown -format %q", *format)
	}
	switch *platform {
	case "auto":
		cfg.Platform = model.Auto()
	case "desktop8":
		cfg.Platform = model.Desktop8
	case "server64":
		cfg.Platform = model.Server64
	default:
		return fmt.Errorf("unknown -platform %q", *platform)
	}
	return experiments.Run(cfg, *exp, *suite)
}
