package main

// metricDef names one metric the benchmark reports. BENCHMARK.json at the
// repository root lists the same metrics; bench_test.go keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a caller of the library or the daemon sees,
// reported by every untraced run. Bound is the share of the baseline median
// by which a metric may worsen before -compare calls it a regression; each
// is above every spread measured across ten seeded runs (README.md,
// Baseline).
var endToEnd = []metricDef{
	{"op_p10_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_bytes", "B", "lower", 0.2},
	{"alloc_bytes_per_op", "B", "lower", 0.2},
}

// perLayer are the single-layer metrics a traced run reports. Every
// workload reports all of them; README.md says which end-to-end metric each
// should move, and on which workload.
var perLayer = []metricDef{
	{"trace.cycle_s", "s", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"coo.linearize.self_s", "s", "lower", 0},
	{"coo.linearize.share", "ratio", "lower", 0},
	{"model.plan.self_s", "s", "lower", 0},
	{"core.build.self_s", "s", "lower", 0},
	{"core.build.share", "ratio", "lower", 0},
	{"core.build.scale_2t", "ratio", "higher", 0},
	{"coo.partition.self_s", "s", "lower", 0},
	{"coo.partition.share", "ratio", "lower", 0},
	{"coo.partition.nnz_per_s", "nnz/s", "higher", 0},
	{"coo.partition.scale_2t", "ratio", "higher", 0},
	{"hashtable.seal.self_s", "s", "lower", 0},
	{"hashtable.seal.share", "ratio", "lower", 0},
	{"core.execute.self_s", "s", "lower", 0},
	{"core.execute.share", "ratio", "lower", 0},
	{"core.execute.tasks", "count", "lower", 0},
	{"core.kernel.updates", "count", "lower", 0},
	{"core.kernel.updates_per_s", "1/s", "higher", 0},
	{"core.kernel.probe_hit_ratio", "ratio", "higher", 0},
	{"coo.delinearize.self_s", "s", "lower", 0},
	{"coo.delinearize.share", "ratio", "lower", 0},
	{"coo.delinearize.nnz_per_s", "nnz/s", "higher", 0},
	{"core.cache.ram_hits", "count", "higher", 0},
	{"core.cache.misses", "count", "lower", 0},
	{"core.cache.hit_ratio", "ratio", "higher", 0},
	{"core.cache.evictions", "count", "lower", 0},
	{"spill.writes", "count", "lower", 0},
	{"spill.reads", "count", "higher", 0},
	{"spill.fallbacks", "count", "lower", 0},
	{"spill.read_ratio", "ratio", "higher", 0},
	{"server.upload.p50_s", "s", "lower", 0},
	{"server.contract.p50_s", "s", "lower", 0},
	{"server.contract.p95_s", "s", "lower", 0},
	{"server.fetch.p50_s", "s", "lower", 0},
	{"server.http_overhead_p50_s", "s", "lower", 0},
	{"server.build_per_req_s", "s", "lower", 0},
	{"server.rejects", "count", "lower", 0},
}

// value is one reported metric. Q1 and Q3 are the quartiles of the metric
// recomputed over four interleaved windows of the run (end-to-end metrics
// only); they are what -compare uses to tell a change from noise.
type value struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// runResult is what one workload run measured. The summary line a run
// prints last is derived from it; the full record goes to the run's JSON
// file.
type runResult struct {
	Workload  string           `json:"workload"`
	Trace     bool             `json:"trace"`
	Env       environment      `json:"env"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	FailRatio float64          `json:"fail_ratio"`
	Metrics   map[string]value `json:"metrics"`
	// Errors lists the first few failures, for the log.
	Errors []string `json:"errors,omitempty"`
}

// fail records one failed operation; only the first few messages are kept.
func (r *runResult) fail(err error) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// summary is the JSON object printed as the last line of standard output.
// Its metrics hold exactly a value and a unit each; the quartiles stay in
// the record file.
type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize derives the summary line's object from a run's record.
func summarize(res *runResult) summary {
	s := summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]summaryValue{}}
	for name, m := range res.Metrics {
		s.Metrics[name] = summaryValue{Value: m.Value, Unit: m.Unit}
	}
	return s
}

// set records metric name from the table defs with its value and, when a
// windowed series is given, its quartiles.
func (r *runResult) set(defs []metricDef, name string, v float64, windows ...float64) {
	for _, d := range defs {
		if d.Name != name {
			continue
		}
		m := value{Unit: d.Unit, Value: v}
		if len(windows) > 0 {
			m.Q1, m.Q3 = quantile(windows, 0.25), quantile(windows, 0.75)
		}
		r.Metrics[name] = m
		return
	}
	panic("bench: unknown metric " + name)
}

// setWindowed records every end-to-end metric in whole, with the quartiles
// of its values over the windows.
func (r *runResult) setWindowed(whole map[string]float64, windows []map[string]float64) {
	for name, v := range whole {
		var series []float64
		for _, w := range windows {
			series = append(series, w[name])
		}
		r.set(endToEnd, name, v, series...)
	}
}
