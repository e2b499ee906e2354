// Command tnsinfo inspects a sparse tensor file and reports the statistics
// that drive FaSTCC's decisions: shape, density, per-mode slice
// distributions and — given a candidate contraction — the probabilistic
// model's accumulator choice and tile size (paper Algorithm 7) on each
// platform profile.
//
// It also dumps shard-cache spill files (the disk tier's .fspl envelopes):
//
//	tnsinfo -in chicago.tns
//	tnsinfo -in chicago.tns -ctr 0 -platform desktop8
//	tnsinfo -spill cache/ab12cd-m1-t64.fspl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"fastcc"
	"fastcc/internal/coo"
	"fastcc/internal/model"
	"fastcc/internal/spill"
	"fastcc/internal/tnsbin"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tnsinfo:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tnsinfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in        = fs.String("in", "", "tensor file (.tns, .btns, optionally .gz)")
		ctr       = fs.String("ctr", "", "comma-separated modes of a candidate self-contraction")
		platform  = fs.String("platform", "auto", "model platform: auto, desktop8 or server64")
		spillFile = fs.String("spill", "", "shard-cache spill file (.fspl) to dump instead of a tensor")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spillFile != "" {
		return dumpSpill(*spillFile, stdout)
	}
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("-in or -spill is required")
	}
	t, err := fastcc.LoadTNS(*in)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "file:    %s\n", *in)
	fmt.Fprintf(stdout, "order:   %d\n", t.Order())
	fmt.Fprintf(stdout, "dims:    %v\n", t.Dims)
	fmt.Fprintf(stdout, "nnz:     %d\n", t.NNZ())
	fmt.Fprintf(stdout, "density: %.4g\n", t.Density())

	for m := 0; m < t.Order(); m++ {
		h, err := t.ModeHistogram(m)
		if err != nil {
			return err
		}
		nonempty := 0
		maxSlice := int64(0)
		for _, c := range h {
			if c > 0 {
				nonempty++
			}
			if c > maxSlice {
				maxSlice = c
			}
		}
		mean := 0.0
		if nonempty > 0 {
			mean = float64(t.NNZ()) / float64(nonempty)
		}
		fmt.Fprintf(stdout, "mode %d:  %d/%d nonempty slices, max slice nnz %d, mean %.1f\n",
			m, nonempty, len(h), maxSlice, mean)
	}

	if *ctr != "" {
		var modes []int
		for _, p := range strings.Split(*ctr, ",") {
			m, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return fmt.Errorf("bad -ctr %q: %v", *ctr, err)
			}
			modes = append(modes, m)
		}
		var plat model.Platform
		switch *platform {
		case "auto":
			plat = model.Auto()
		case "desktop8":
			plat = model.Desktop8
		case "server64":
			plat = model.Server64
		default:
			return fmt.Errorf("unknown -platform %q", *platform)
		}
		spec := coo.Spec{CtrLeft: modes, CtrRight: modes}
		if err := spec.Validate(t, t); err != nil {
			return err
		}
		ext := coo.ExternalModes(t.Order(), modes)
		extDims := make([]uint64, 0, len(ext))
		for _, m := range ext {
			extDims = append(extDims, t.Dims[m])
		}
		ctrDims := make([]uint64, 0, len(modes))
		for _, m := range modes {
			ctrDims = append(ctrDims, t.Dims[m])
		}
		lSize, err := coo.LinearSize(extDims)
		if err != nil {
			return err
		}
		cSize, err := coo.LinearSize(ctrDims)
		if err != nil {
			return err
		}
		dec, err := model.Decide(model.Inputs{
			NNZL: int64(t.NNZ()), NNZR: int64(t.NNZ()),
			LDim: lSize, RDim: lSize, CDim: cSize,
		}, plat)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nself-contraction over modes %v on %s:\n", modes, plat.Name)
		fmt.Fprintf(stdout, "  pL = pR = %.4g, estimated output density %.4g\n", dec.PL, dec.PNonzero)
		fmt.Fprintf(stdout, "  E_nnz(T^2) = %.4g -> %s accumulator, tile %dx%d\n",
			dec.ENNZ, dec.Kind, dec.TileL, dec.TileR)
		fmt.Fprintf(stdout, "  expected output nnz ≈ %.4g (of %.4g positions)\n",
			dec.PNonzero*float64(lSize)*float64(lSize), float64(lSize)*float64(lSize))
	}
	return nil
}

// dumpSpill prints a spill file's envelope (version, generation stamp,
// size) and verifies the whole-file CRC-32 trailer, reporting corruption as
// the same typed causes the shard cache's fallback counters use.
func dumpSpill(path string, stdout io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	h, err := spill.ParseHeader(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(stdout, "file:       %s\n", path)
	fmt.Fprintf(stdout, "format:     fspl v%d (shard-cache spill envelope)\n", h.Version)
	fmt.Fprintf(stdout, "generation: %d\n", h.Gen)
	fmt.Fprintf(stdout, "size:       %d bytes (%d body, 4 checksum trailer)\n",
		h.Size, int64(len(data))-spill.EnvelopeBytes)
	if _, err := tnsbin.NewSectionReader(data); err != nil {
		fmt.Fprintf(stdout, "checksum:   BAD (%v)\n", err)
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(stdout, "checksum:   ok\n")
	return nil
}
