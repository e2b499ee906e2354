// Command bench is fastcc's benchmark: four fixed workloads over the
// library and the daemon, each timed end to end, checked against an output
// oracle, and broken down by layer in a separate traced run.
//
//	bash bench/run.sh                                   # every workload, untraced then traced
//	bash bench/run.sh --workload qc-warm --seed 3 --seconds 12 --trace 0
//	bash bench/run.sh -compare a.json b.json            # regression verdicts
//
// A run of one workload prints its metrics and, as the last line of
// standard output, one JSON object with the keys correct, attempted, failed
// and metrics; the full record, with quartiles and the environment, goes to
// <out>/<workload>-trace<0|1>.json and a traced run's spans to
// <out>/trace-<workload>.json. Without -workload every workload runs in a
// fresh child process and the results are gathered in <out>/results.json.
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// threads is the worker count of every timed op and of the server's
// contractions, and procs the GOMAXPROCS every run pins: the core count of
// the 2-vCPU machine the baseline was measured on. One worker per op, not
// two: on a shared host a two-worker op waits for the slower vCPU, and its
// ten-seed spread was two to three times wider (README.md, Noise). The
// traced run's build probes still compare one worker with two.
const (
	threads = 1
	procs   = 2
)

// scales are the input sizes of the workloads: FROSTT scale for the
// FROSTT workloads (1 = the paper's tensors), QC scale for the others.
type scales struct {
	FrosttCold, FrosttDense, QCWarm, QCServe float64
}

// fullScales size the workloads so their layers take long enough to time;
// tinyScales keep the test preset to seconds.
var (
	fullScales = scales{FrosttCold: 0.04, FrosttDense: 0.01, QCWarm: 0.35, QCServe: 0.1}
	tinyScales = scales{FrosttCold: 0.001, FrosttDense: 0.0005, QCWarm: 0.02, QCServe: 0.02}
)

func (s scales) byWorkload() map[string]float64 {
	return map[string]float64{
		"frostt-cold": s.FrosttCold, "frostt-dense-out": s.FrosttDense,
		"qc-warm": s.QCWarm, "serve-churn": s.QCServe,
	}
}

type config struct {
	seed    uint64
	seconds float64
	trace   bool
	outDir  string
	// setups is how many timed setups an untraced run measures, each for
	// its share of seconds; setup_s is their median.
	setups int
	scales scales
	// intValues gives every input small integer values, so every summation
	// order yields the same bits (the reference comparison in the tests).
	intValues bool
}

// setupCount is how many timed setups this run measures: a traced run
// reports no setup time and measures one.
func (c config) setupCount() int {
	if c.trace {
		return 1
	}
	return c.setups
}

func tracePath(cfg config, workload string) string {
	return filepath.Join(cfg.outDir, "trace-"+workload+".json")
}

func resultPath(cfg config, workload string) string {
	t := 0
	if cfg.trace {
		t = 1
	}
	return filepath.Join(cfg.outDir, fmt.Sprintf("%s-trace%d.json", workload, t))
}

// workload is one of the benchmark's fixed workloads.
type workload struct {
	name string
	run  func(name string, cfg config) (*runResult, error)
}

var workloads = []workload{
	// One caller, one-shot Contract over five FROSTT self-contractions
	// with small outputs: every op pays linearize and the whole build,
	// so partition and seal dominate.
	{"frostt-cold", (&libWorkload{inputs: func(cfg config) ([]contraction, error) {
		return frosttInputs([]frosttCase{
			{"vast", []int{0, 1, 4}}, {"vast", []int{0, 1}}, {"uber", []int{1, 2, 3}},
			{"chicago", []int{0, 1}}, {"nips", []int{0, 1, 3}},
		}, cfg.scales.FrosttCold, cfg.seed, cfg.intValues)
	}}).run},
	// One caller, one-shot Contract over three contractions whose
	// outputs densify (tens of times the input nonzeros): delinearize and
	// output memory dominate, build is small.
	{"frostt-dense-out", (&libWorkload{inputs: func(cfg config) ([]contraction, error) {
		return frosttInputs([]frosttCase{
			{"chicago", []int{0}}, {"nips", []int{2}}, {"chicago", []int{1, 2, 3}},
		}, cfg.scales.FrosttDense, cfg.seed, cfg.intValues)
	}}).run},
	// The iterative quantum-chemistry regime: the six DLPNO contractions
	// Preshard once and run ContractPrepared on resident shards, so build
	// is absent and execute dominates.
	{"qc-warm", (&libWorkload{warm: true, inputs: func(cfg config) ([]contraction, error) {
		return qcInputs(cfg.scales.QCWarm, cfg.seed, cfg.intValues), nil
	}}).run},
	// The daemon under churn: two tenants' closed-loop clients over HTTP,
	// a 6 MB shard cache with a spill directory, and a fresh operand every
	// eighth request, so builds, evictions, spill writes and re-pins mix.
	{"serve-churn", runServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (frostt-cold, frostt-dense-out, qc-warm, serve-churn); empty runs all")
	seed := fs.Uint64("seed", 1, "seed the inputs are drawn from")
	seconds := fs.Float64("seconds", 12, "seconds each run measures")
	trace := fs.Int("trace", 0, "1 runs the traced layer breakdown instead of the end-to-end measurement")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for results, traces and spill files")
	compare := fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(procs)
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two results files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, setups: 5, scales: fullScales}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *name == "" {
		return runSuite(cfg, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	res, err := w.run(w.name, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if err := writeJSON(resultPath(cfg, w.name), res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, e := range res.Errors {
		fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, e)
	}
	printMetrics(stdout, res)
	line, err := json.Marshal(summarize(res))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printMetrics prints every metric of a run by name, value and unit.
func printMetrics(w io.Writer, res *runResult) {
	mode := "end-to-end"
	if res.Trace {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "%s: %s, %d ops attempted, %d failed\n", res.Workload, mode, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		q := ""
		if m.Q1 != 0 || m.Q3 != 0 {
			q = fmt.Sprintf("  [q1 %.6g, q3 %.6g]", m.Q1, m.Q3)
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-6s%s\n", n, m.Value, m.Unit, q)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// suiteResult is the results file of a run of every workload.
type suiteResult struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	FailRatio float64          `json:"fail_ratio"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer"`
}

// runSuite runs every workload in a fresh child process, untraced and then
// traced, and gathers their records into <out>/results.json.
func runSuite(cfg config, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	suite := suiteResult{Workloads: map[string]*workloadResult{}}
	status := 0
	for _, w := range workloads {
		wr := &workloadResult{}
		suite.Workloads[w.name] = wr
		for _, traced := range []bool{false, true} {
			c := cfg
			c.trace = traced
			t := "0"
			if traced {
				t = "1"
			}
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", t, "-out", cfg.outDir)
			cmd.Stdout, cmd.Stderr = stderr, stderr
			// A child that dies early must not leave an older record behind.
			if err := os.Remove(resultPath(c, w.name)); err != nil && !os.IsNotExist(err) {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: %s (trace %s): %v\n", w.name, t, err)
				status = 1
			}
			var res runResult
			b, err := os.ReadFile(resultPath(c, w.name))
			if err == nil {
				err = json.Unmarshal(b, &res)
			}
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s (trace %s): reading its result: %v\n", w.name, t, err)
				return 1
			}
			suite.Env = res.Env
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.FailRatio = ratio(float64(wr.Failed), float64(wr.Attempted))
			if traced {
				wr.PerLayer = res.Metrics
			} else {
				wr.EndToEnd = res.Metrics
			}
			printMetrics(stdout, &res)
		}
	}
	path := filepath.Join(cfg.outDir, "results.json")
	if err := writeJSON(path, suite); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, "results:", path)
	return status
}
