// Command fastcc-vet runs FaSTCC's custom static analyzers over Go package
// patterns, in the manner of go vet:
//
//	fastcc-vet ./...                    # all analyzers, whole repo
//	fastcc-vet -c atomicmix,linovf ./internal/scheduler
//	fastcc-vet -list                    # describe the analyzers
//
// The suite checks six invariants the compiler cannot: mixed atomic/plain
// access (atomicmix), unchecked dimension products (linovf), allocations in
// //fastcc:hotpath kernels (hotalloc), discarded finalizer errors
// (errdiscard), pool-obtained memory escaping its recycle point
// (poolescape) and narrow-integer span arithmetic (spanarith). Each pass
// guards a bug class no test, race run or fastcc_checked build catches
// (DESIGN.md, "Mutation audit"). Every pass sees one package at a time.
// Findings are suppressed per line with //fastcc:allow <name> -- reason;
// deliberate ownership transfers carry //fastcc:owned instead.
//
// Exit status: 0 when clean, 1 on findings, 2 on usage or load errors —
// including a malformed suite registration: a nil, unnamed, duplicate-named
// or Run-less analyzer aborts the run instead of being skipped silently.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fastcc/tools/analysis/atomicmix"
	"fastcc/tools/analysis/errdiscard"
	"fastcc/tools/analysis/framework"
	"fastcc/tools/analysis/hotalloc"
	"fastcc/tools/analysis/linovf"
	"fastcc/tools/analysis/poolescape"
	"fastcc/tools/analysis/spanarith"
)

// All is the registered analyzer suite, in reporting order.
var All = []*framework.Analyzer{
	atomicmix.Analyzer,
	errdiscard.Analyzer,
	hotalloc.Analyzer,
	linovf.Analyzer,
	poolescape.Analyzer,
	spanarith.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// validateSuite rejects a malformed registration before any analysis runs.
// Without this gate a nil entry panicked deep in the driver and an unnamed
// or duplicate-named pass was silently unreachable from -c and unreadable
// in findings — a bad registration could effectively disable a gate.
func validateSuite(all []*framework.Analyzer) error {
	seen := make(map[string]bool, len(all))
	for i, a := range all {
		switch {
		case a == nil:
			return fmt.Errorf("analyzer %d is nil", i)
		case a.Name == "":
			return fmt.Errorf("analyzer %d has no name", i)
		case a.Run == nil:
			return fmt.Errorf("analyzer %q has no Run", a.Name)
		case seen[a.Name]:
			return fmt.Errorf("analyzer %q registered twice", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	if err := validateSuite(All); err != nil {
		fmt.Fprintln(stderr, "fastcc-vet: invalid analyzer suite:", err)
		return 2
	}
	fs := flag.NewFlagSet("fastcc-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list the analyzers and exit")
		checks  = fs.String("c", "", "comma-separated analyzer names to run (default: all)")
		workDir = fs.String("dir", ".", "directory to resolve package patterns from")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range All {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := All
	if *checks != "" {
		byName := map[string]*framework.Analyzer{}
		for _, a := range All {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*checks, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "fastcc-vet: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	pkgs, err := framework.Load(*workDir, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "fastcc-vet:", err)
		return 2
	}
	diags, fset, err := framework.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "fastcc-vet:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, framework.Format(fset, d))
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "fastcc-vet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
