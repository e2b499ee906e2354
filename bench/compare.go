package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
)

// Verdicts of -compare for one workload × end-to-end metric.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
)

// verdict judges metric d going from a to b. A side whose quartile spread
// is wider than the bound cannot resolve a change of that size; otherwise a
// median that moved by more than the bound is better or worse.
func verdict(d metricDef, a, b value) (string, float64) {
	delta := ratio(b.Value-a.Value, a.Value)
	spread := func(v value) float64 { return ratio(v.Q3-v.Q1, v.Value) }
	if spread(a) > d.Bound || spread(b) > d.Bound {
		return verdictUnresolved, delta
	}
	worse := delta
	if d.Better == "higher" {
		worse = -delta
	}
	switch {
	case worse > d.Bound:
		return verdictWorse, delta
	case worse < -d.Bound:
		return verdictBetter, delta
	}
	return verdictWithin, delta
}

func readSuite(path string) (*suiteResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// envDiff lists the environment fields that differ between a and b, other
// than the commit and the dirty flag.
func envDiff(a, b environment) []string {
	a.Commit, a.Dirty, b.Commit, b.Dirty = "", false, "", false
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var diff []string
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			diff = append(diff, fmt.Sprintf("%s: %v vs %v", va.Type().Field(i).Name, va.Field(i).Interface(), vb.Field(i).Interface()))
		}
	}
	return diff
}

// compareFiles prints, for every workload × end-to-end metric, both
// medians with their quartiles, the change and a verdict. It exits 1 when
// any metric got worse and 2 when the two results cannot be compared.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readSuite(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readSuite(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if diff := envDiff(a.Env, b.Env); diff != nil {
		fmt.Fprintln(stderr, "bench: refusing to compare results from different environments:")
		for _, d := range diff {
			fmt.Fprintln(stderr, "  "+d)
		}
		return 2
	}
	fmt.Fprintf(stdout, "a: %s (commit %s)\nb: %s (commit %s)\n", pathA, a.Env.Commit, pathB, b.Env.Commit)
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	counts := map[string]int{}
	for _, w := range names {
		wb, ok := b.Workloads[w]
		if !ok {
			fmt.Fprintf(stderr, "bench: %s is missing from %s\n", w, pathB)
			return 2
		}
		for _, d := range endToEnd {
			ma, okA := a.Workloads[w].EndToEnd[d.Name]
			mb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				fmt.Fprintf(stderr, "bench: %s %s is missing from a results file\n", w, d.Name)
				return 2
			}
			v, delta := verdict(d, ma, mb)
			counts[v]++
			fmt.Fprintf(stdout, "%-17s %-19s a %.4g [%.4g, %.4g]  b %.4g [%.4g, %.4g] %s  %+6.1f%%  (bound %.0f%%)  %s\n",
				w, d.Name, ma.Value, ma.Q1, ma.Q3, mb.Value, mb.Q1, mb.Q3, d.Unit, 100*delta, 100*d.Bound, v)
		}
	}
	fmt.Fprintf(stdout, "%d better, %d worse, %d within bound, %d unresolved\n",
		counts[verdictBetter], counts[verdictWorse], counts[verdictWithin], counts[verdictUnresolved])
	if counts[verdictWorse] > 0 {
		return 1
	}
	return 0
}
