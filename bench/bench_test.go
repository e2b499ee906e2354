package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fastcc"
	"fastcc/internal/core"
	"fastcc/internal/ref"
	"fastcc/internal/server"
)

// tinyConfig is the test preset: every workload at a few thousand
// nonzeros, measured for a fraction of a second.
func tinyConfig(t *testing.T, trace bool) config {
	return config{seed: 7, seconds: 0.2, trace: trace, outDir: t.TempDir(), setups: 2, scales: tinyScales}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, ours)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v\nprogram reports %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %+v\nprogram reports %+v", bj.PerLayer, perLayer)
	}
}

// TestWorkloadsEndToEnd runs every workload untraced and traced on the tiny
// preset: each must finish with every op correct (serve-churn's server must
// also pass its leak check on Close) and report exactly its metric table,
// each metric with its unit.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, trace)
			want := endToEnd
			if trace {
				want = perLayer
			}
			res, err := w.run(w.name, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s trace=%v: %d of %d ops failed: %v", w.name, trace, res.Failed, res.Attempted, res.Errors)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s trace=%v: %s in %q, want %q", w.name, trace, d.Name, m.Unit, d.Unit)
				}
			}
			checkSummaryLine(t, res)
			if !trace {
				continue
			}
			b, err := os.ReadFile(tracePath(cfg, w.name))
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &tr); err != nil || len(tr.TraceEvents) == 0 {
				t.Errorf("%s: trace file holds no events (%v)", w.name, err)
			}
		}
	}
}

// checkSummaryLine checks the shape of the line a run prints last: exactly
// the keys correct, attempted, failed and metrics, and each metric exactly
// a value and a unit.
func checkSummaryLine(t *testing.T, res *runResult) {
	t.Helper()
	b, err := json.Marshal(summarize(res))
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(b, &line); err != nil {
		t.Fatal(err)
	}
	if keys := sortedKeys(line); !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("%s: summary line keys %v", res.Workload, keys)
	}
	var metrics map[string]map[string]json.RawMessage
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for name, m := range metrics {
		if keys := sortedKeys(m); !reflect.DeepEqual(keys, []string{"unit", "value"}) {
			t.Errorf("%s: summary metric %s has keys %v, want unit and value", res.Workload, name, keys)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestOutputsMatchReference checks, on integer-valued inputs where every
// summation order gives the same bits, that each path the benchmark times
// returns exactly internal/ref's output: one-shot Contract, the traced
// layer-by-layer op (cold and on resident operands), ContractPrepared, and
// the server, including an operand scaled by 2^3 against the scaled digest.
func TestOutputsMatchReference(t *testing.T) {
	var cases []contraction
	for _, fc := range [][]frosttCase{
		{{"vast", []int{0, 1, 4}}, {"uber", []int{1, 2, 3}}, {"nips", []int{0, 1, 3}}},
		{{"chicago", []int{0}}, {"nips", []int{2}}},
	} {
		cs, err := frosttInputs(fc, tinyScales.FrosttCold, 5, true)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, cs...)
	}
	cases = append(cases, qcInputs(tinyScales.QCWarm, 5, true)...)

	st, err := startServer(server.Config{Threads: threads}, cases, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := st.upload(ctx, nil); err != nil {
		t.Fatal(err)
	}
	for i := range cases {
		c := &cases[i]
		want, err := ref.Contract(c.l, c.r, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		check := func(path string, out *fastcc.Tensor, err error, shift int) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, path, err)
			}
			if out.NNZ() != want.NNZ() || digest(out, 0) != digest(want, shift) {
				t.Errorf("%s %s: output differs from the reference (nnz %d vs %d)", c.name, path, out.NNZ(), want.NNZ())
			}
		}
		out, _, err := fastcc.Contract(c.l, c.r, c.spec, libOpts()...)
		check("Contract", out, err, 0)

		var cnt opCounts
		out, err = tracedOp(nil, c, [2]*core.Operand{}, libPlatform, 0, &cnt)
		check("traced cold op", out, err, 0)

		w := &libWorkload{warm: true, inputs: func(config) ([]contraction, error) { return []contraction{*c}, nil }}
		ls, err := w.setup(config{})
		if err != nil {
			t.Fatal(err)
		}
		out, err = w.apiOp(ls, 0)
		check("ContractPrepared", out, err, 0)
		if err := ls.traceResident(nil); err != nil {
			t.Fatal(err)
		}
		out, err = tracedOp(nil, c, ls.residentOf(0), libPlatform, 0, &cnt)
		check("traced warm op", out, err, 0)
		ls.close()

		r, err := st.request(ctx, nil, 0, i, nil, 0)
		check("server", r.out, err, 0)
		r, err = st.request(ctx, nil, 0, i, scaled(c.l, 3), 0)
		check("server, left operand ×2^3", r.out, err, 3)
		if err := st.clients[0].Release(ctx, r.fresh); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range st.hashes {
		if err := st.clients[0].Release(ctx, h); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
}

// inputDigest fingerprints an operand: its extents and its nonzeros.
func inputDigest(t *fastcc.Tensor) uint64 {
	d := digest(t, 0)
	for _, n := range t.Dims {
		d = mix64(d ^ n)
	}
	return d
}

// TestSeedsDetermineInputs checks that a seed fixes every operand and that
// another seed changes every one of them.
func TestSeedsDetermineInputs(t *testing.T) {
	inputs := func(seed uint64) []uint64 {
		cs, err := frosttInputs([]frosttCase{{"vast", []int{0, 1}}, {"uber", []int{0, 2}}, {"chicago", []int{0}}, {"nips", []int{2}}},
			tinyScales.FrosttCold, seed, false)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, qcInputs(tinyScales.QCWarm, seed, false)...)
		var ds []uint64
		for _, op := range operands(cs) {
			ds = append(ds, inputDigest(op))
		}
		return ds
	}
	a, b, c := inputs(11), inputs(11), inputs(12)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different inputs")
	}
	for i := range a {
		if a[i] == c[i] {
			t.Errorf("operand %d is the same under seeds 11 and 12", i)
		}
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "x_s", Unit: "s", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "y", Unit: "ops/s", Better: "higher", Bound: 0.1}
	tight := func(v float64) value { return value{Value: v, Q1: v * 0.99, Q3: v * 1.01} }
	for _, tc := range []struct {
		d    metricDef
		a, b value
		want string
	}{
		{lower, tight(1), tight(1.05), verdictWithin},
		{lower, tight(1), tight(1.2), verdictWorse},
		{lower, tight(1), tight(0.8), verdictBetter},
		{higher, tight(1), tight(0.8), verdictWorse},
		{higher, tight(1), tight(1.2), verdictBetter},
		{lower, tight(1), value{Value: 1.5, Q1: 1.2, Q3: 1.8}, verdictUnresolved},
		{lower, value{Value: 1}, value{Value: 1}, verdictWithin},
	} {
		if got, _ := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %+v -> %+v: %s, want %s", tc.d.Better, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	suite := func(scale float64, cpu string) string {
		s := suiteResult{Env: environment{CPU: cpu, Commit: cpu + "-commit"}, Workloads: map[string]*workloadResult{}}
		e2e := map[string]value{}
		for _, d := range endToEnd {
			v := scale
			if d.Better == "higher" {
				v = 1 / scale
			}
			e2e[d.Name] = value{Unit: d.Unit, Value: v, Q1: v * 0.99, Q3: v * 1.01}
		}
		s.Workloads["w"] = &workloadResult{EndToEnd: e2e}
		f, err := os.CreateTemp(dir, "*.json")
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		if err := writeJSON(f.Name(), s); err != nil {
			t.Fatal(err)
		}
		return f.Name()
	}
	base, same, slower, otherCPU := suite(1, "cpu"), suite(1.02, "cpu"), suite(1.5, "cpu"), suite(1, "other")
	n := len(endToEnd)
	for _, tc := range []struct {
		a, b     string
		code     int
		contains string
	}{
		{base, same, 0, fmt.Sprintf("0 better, 0 worse, %d within bound, 0 unresolved", n)},
		{base, slower, 1, fmt.Sprintf("0 better, %d worse", n)},
		{slower, base, 0, fmt.Sprintf("%d better, 0 worse", n)},
		{base, otherCPU, 2, ""},
	} {
		var stdout, stderr bytes.Buffer
		if code := compareFiles(tc.a, tc.b, &stdout, &stderr); code != tc.code {
			t.Errorf("compare %s %s: exit %d, want %d\n%s%s", tc.a, tc.b, code, tc.code, stdout.String(), stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.contains) {
			t.Errorf("compare %s %s: output lacks %q:\n%s", tc.a, tc.b, tc.contains, stdout.String())
		}
	}
}
