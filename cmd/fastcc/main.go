// Command fastcc contracts two sparse tensors stored in FROSTT .tns files
// and writes the result as .tns:
//
//	fastcc -left A.tns -right B.tns -ctr-left 2 -ctr-right 0 -out O.tns
//
// The contraction sums mode ctr-left[k] of the left tensor against mode
// ctr-right[k] of the right tensor; the output modes are the left tensor's
// remaining modes followed by the right tensor's. Pass the same file to
// -left and -right for a self-contraction.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"fastcc"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fastcc:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fastcc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		leftPath  = fs.String("left", "", "left operand .tns file (required)")
		rightPath = fs.String("right", "", "right operand .tns file (default: same as -left)")
		outPath   = fs.String("out", "", "output .tns file (default: stdout)")
		ctrLeft   = fs.String("ctr-left", "", "comma-separated contracted modes of the left tensor (required)")
		ctrRight  = fs.String("ctr-right", "", "contracted modes of the right tensor (default: same as -ctr-left)")
		threads   = fs.Int("threads", 0, "worker threads (0 = all cores)")
		tile      = fs.Uint64("tile", 0, "tile size override (0 = model-chosen)")
		accum     = fs.String("accum", "auto", "accumulator: auto, dense or sparse")
		platform  = fs.String("platform", "auto", "platform profile: auto, desktop8 or server64")
		showStats = fs.Bool("stats", false, "print run statistics to stderr")
		metrics   = fs.Bool("metrics", false, "collect and print data-access counters")
		verify    = fs.Int("verify", 0, "spot-check N sampled output elements by direct recomputation")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *leftPath == "" || *ctrLeft == "" {
		fs.Usage()
		return fmt.Errorf("-left and -ctr-left are required")
	}

	left, err := fastcc.LoadTNS(*leftPath)
	if err != nil {
		return fmt.Errorf("loading left operand: %w", err)
	}
	right := left
	if *rightPath != "" && *rightPath != *leftPath {
		if right, err = fastcc.LoadTNS(*rightPath); err != nil {
			return fmt.Errorf("loading right operand: %w", err)
		}
	}

	modesL, err := parseModes(*ctrLeft)
	if err != nil {
		return err
	}
	modesR := modesL
	if *ctrRight != "" {
		if modesR, err = parseModes(*ctrRight); err != nil {
			return err
		}
	}

	opts := []fastcc.Option{fastcc.WithThreads(*threads)}
	if *tile != 0 {
		opts = append(opts, fastcc.WithTileSize(*tile, *tile))
	}
	switch *accum {
	case "auto":
	case "dense":
		opts = append(opts, fastcc.WithAccumulator(fastcc.AccumDense))
	case "sparse":
		opts = append(opts, fastcc.WithAccumulator(fastcc.AccumSparse))
	default:
		return fmt.Errorf("unknown -accum %q", *accum)
	}
	switch *platform {
	case "auto":
		opts = append(opts, fastcc.WithPlatform(fastcc.AutoPlatform()))
	case "desktop8":
		opts = append(opts, fastcc.WithPlatform(fastcc.Desktop8))
	case "server64":
		opts = append(opts, fastcc.WithPlatform(fastcc.Server64))
	default:
		return fmt.Errorf("unknown -platform %q", *platform)
	}
	if *metrics {
		opts = append(opts, fastcc.WithMetrics())
	}

	out, stats, err := fastcc.Contract(left, right,
		fastcc.Spec{CtrLeft: modesL, CtrRight: modesR}, opts...)
	if err != nil {
		return err
	}

	if *showStats || *metrics {
		fmt.Fprintln(stderr, stats)
		if *metrics {
			fmt.Fprintf(stderr, "counters: %v\n", stats.Counters)
		}
	}

	if *verify > 0 {
		spec := fastcc.Spec{CtrLeft: modesL, CtrRight: modesR}
		if err := fastcc.VerifySample(left, right, spec, out, *verify, 1, 1e-9); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "verified %d sampled output elements\n", *verify)
	}

	if *outPath == "" {
		return fastcc.WriteTNS(stdout, out)
	}
	return fastcc.SaveTNS(*outPath, out)
}

func parseModes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	modes := make([]int, 0, len(parts))
	for _, p := range parts {
		m, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad mode list %q: %v", s, err)
		}
		modes = append(modes, m)
	}
	return modes, nil
}
