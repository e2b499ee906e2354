package main

import (
	"fmt"
	"runtime"
	"time"

	"fastcc"
	"fastcc/internal/coo"
	"fastcc/internal/core"
	"fastcc/internal/gen"
	"fastcc/internal/mempool"
	"fastcc/internal/metrics"
	"fastcc/internal/model"
)

// libPlatform is the profile the library workloads plan with, so tile
// sizes do not depend on the host the benchmark runs on.
var libPlatform = fastcc.Desktop8

func libOpts() []fastcc.Option {
	return []fastcc.Option{fastcc.WithThreads(threads), fastcc.WithPlatform(libPlatform)}
}

// libWorkload is a closed loop of one caller running the workload's cases
// back to back; a cycle is one op per case.
type libWorkload struct {
	// warm workloads Preshard at setup and run ContractPrepared on the
	// resident shards; the others pay the whole one-shot Contract pipeline.
	warm   bool
	inputs func(cfg config) ([]contraction, error)
}

// libState is one set-up instance of a library workload.
type libState struct {
	cases    []contraction
	prepared [][2]*fastcc.Sharded // warm only
	// resident holds the traced run's own prepared core operands of a warm
	// workload; the traced ops read them as ContractPrepared reads its own.
	resident [][2]*core.Operand
}

func (w *libWorkload) setup(cfg config) (*libState, error) {
	cases, err := w.inputs(cfg)
	if err != nil {
		return nil, err
	}
	st := &libState{cases: cases}
	if !w.warm {
		return st, nil
	}
	for i, c := range cases {
		ls, err := fastcc.Preshard(c.l, c.spec.CtrLeft)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		rs := ls
		if !c.self() {
			if rs, err = fastcc.Preshard(c.r, c.spec.CtrRight); err != nil {
				ls.Drop()
				st.close()
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
		}
		st.prepared = append(st.prepared, [2]*fastcc.Sharded{ls, rs})
		// The first contraction builds and caches the shards.
		if _, err := w.apiOp(st, i); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

func (st *libState) close() {
	for _, p := range st.prepared {
		p[0].Drop()
		p[1].Drop()
	}
	for _, p := range st.resident {
		p[0].Close()
		p[1].Close()
	}
	st.prepared, st.resident = nil, nil
}

// apiOp runs case i through the public API, as a caller would.
func (w *libWorkload) apiOp(st *libState, i int) (*fastcc.Tensor, error) {
	c := &st.cases[i]
	var out *fastcc.Tensor
	var err error
	if w.warm {
		out, _, err = fastcc.ContractPrepared(st.prepared[i][0], st.prepared[i][1], libOpts()...)
	} else {
		out, _, err = fastcc.Contract(c.l, c.r, c.spec, libOpts()...)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	return out, nil
}

// oracle checks each case's output against direct recomputation and
// returns the digests every later op must reproduce.
func (w *libWorkload) oracle(st *libState, seed uint64) ([]uint64, error) {
	digests := make([]uint64, len(st.cases))
	for i, c := range st.cases {
		out, err := w.apiOp(st, i)
		if err != nil {
			return nil, err
		}
		if err := verify(&c, out, seed); err != nil {
			return nil, err
		}
		digests[i] = digest(out, 0)
	}
	return digests, nil
}

// verifyNNZ bounds the left-operand nonzeros verify hands to VerifySample.
const verifyNNZ = 1 << 14

// verify checks out with fastcc.VerifySample (256 samples) on a slice of
// the problem: the output rows (left external coordinates) of randomly
// chosen stored nonzeros, against the left operand restricted to the same
// rows, up to verifyNNZ of its nonzeros. VerifySample rescans every
// contraction key of its left operand for each sample, which on a whole
// vast operand (a million keys) takes over half a minute per call; every
// value it recomputes on the slice is still a full sum over the right
// operand.
func verify(c *contraction, out *fastcc.Tensor, seed uint64) error {
	extL := coo.ExternalModes(c.l.Order(), c.spec.CtrLeft)
	rowOf := func(t *fastcc.Tensor, modes []int, i int) uint64 {
		h := uint64(len(modes))
		for _, m := range modes {
			h = mix64(h ^ t.Coords[m][i])
		}
		return h
	}
	outModes := make([]int, len(extL))
	for k := range outModes {
		outModes[k] = k
	}
	rowNNZ := map[uint64]int{}
	for i := range c.l.Vals {
		rowNNZ[rowOf(c.l, extL, i)]++
	}
	rows := map[uint64]bool{}
	picked := 0
	rng := gen.NewRNG(seed)
	for try := 0; try < 4*out.NNZ() && picked < verifyNNZ; try++ {
		r := rowOf(out, outModes, int(rng.Uint64n(uint64(out.NNZ()))))
		if !rows[r] && (picked == 0 || picked+rowNNZ[r] <= verifyNNZ) {
			rows[r] = true
			picked += rowNNZ[r]
		}
	}
	keep := func(t *fastcc.Tensor, modes []int) *fastcc.Tensor {
		sub := fastcc.NewTensor(t.Dims, 0)
		coords := make([]uint64, len(t.Dims))
		for i, v := range t.Vals {
			if rows[rowOf(t, modes, i)] {
				sub.Append(t.CoordsOf(i, coords), v)
			}
		}
		return sub
	}
	if err := fastcc.VerifySample(keep(c.l, extL), c.r, c.spec, keep(out, outModes), 256, seed, 1e-9); err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	return nil
}

// opSample is one timed op of a library workload.
type opSample struct {
	cycle, cs int
	traced    bool
	dur       float64 // seconds
	alloc     float64 // heap bytes allocated by the op
}

// opCounts are the engine counters of one traced op.
type opCounts struct {
	tasks, updates, probeHits, probeMisses, outNNZ int64
}

func (w *libWorkload) run(name string, cfg config) (*runResult, error) {
	res := &runResult{Workload: name, Trace: cfg.trace, Env: currentEnvironment(cfg), Metrics: map[string]value{}}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	// A first, untimed setup warms the process and feeds the oracle.
	st, err := w.setup(cfg)
	if err != nil {
		return nil, err
	}
	m := &libMeasure{w: w, cfg: cfg, res: res, rec: rec, counts: make([]opCounts, len(st.cases))}
	m.digests, err = w.oracle(st, cfg.seed)
	st.close()
	if err != nil {
		return nil, err
	}
	// Each timed setup is measured for its share of the run: the engine
	// reuses its buffers within a segment, and how fast the memory behind
	// them is differs between allocations (README.md, "Noise"), so the
	// metrics pool several draws instead of resting on one.
	var setupTimes []float64
	var cases []contraction
	for seg := 0; seg < cfg.setupCount(); seg++ {
		runtime.GC()
		t0 := time.Now()
		st, err := w.setup(cfg)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		cases = st.cases
		if err := m.segment(st); err != nil {
			return nil, err
		}
	}

	if !cfg.trace {
		libEndToEnd(res, m.samples, len(cases), setupTimes, m.peaks)
	} else {
		untraced, traced := splitTraced(m.samples, len(cases))
		res.set(perLayer, "trace.overhead_ratio", ratio(sum(traced), sum(untraced))-1)
		cacheMetrics(res, m.cache0, m.cache1)
		if err := probeLayers(rec, cases, libPlatform); err != nil {
			return nil, err
		}
		layerMetrics(res, rec, cases, m.counts)
		routes, err := serverProbe(rec, cases)
		if err != nil {
			return nil, err
		}
		routes.metrics(res, rec)
		if err := rec.writeChrome(tracePath(cfg, name)); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// libMeasure accumulates a library run's samples over its segments.
type libMeasure struct {
	w   *libWorkload
	cfg config
	res *runResult
	rec *recorder

	digests        []uint64 // the oracle's, from the warm-up setup
	samples        []opSample
	cycles         int
	counts         []opCounts
	peaks          []float64         // VmHWM of each segment's loop
	cache0, cache1 fastcc.CacheStats // around the last segment's loop
}

// segment measures one set-up instance for its share of the run and
// closes it. Every timed op must reproduce the oracle's digests.
func (m *libMeasure) segment(st *libState) error {
	defer st.close()
	if m.w.warm && m.cfg.trace {
		if err := st.traceResident(m.rec); err != nil {
			return err
		}
	}
	m.cache0 = fastcc.ShardCacheStats()
	if err := resetPeakRSS(); err != nil {
		return fmt.Errorf("resetting the peak-RSS mark: %w", err)
	}
	segments := m.cfg.setupCount()
	minCycles := 2
	if m.cfg.trace {
		minCycles = 4
	}
	deadline := time.Now().Add(time.Duration(m.cfg.seconds / float64(segments) * float64(time.Second)))
	for c := 0; c < minCycles || time.Now().Before(deadline); c++ {
		traced := m.cfg.trace && c%2 == 1
		for i := range st.cases {
			runtime.GC()
			a0 := allocBytes()
			t0 := time.Now()
			var out *fastcc.Tensor
			var err error
			if traced {
				out, err = tracedOp(m.rec, &st.cases[i], st.residentOf(i), libPlatform, len(m.samples)+1, &m.counts[i])
			} else {
				out, err = m.w.apiOp(st, i)
			}
			d := time.Since(t0).Seconds()
			a1 := allocBytes()
			m.res.Attempted++
			if err != nil {
				m.res.fail(err)
				continue
			}
			if digest(out, 0) != m.digests[i] {
				m.res.fail(fmt.Errorf("%s: output digest differs from the oracle's", st.cases[i].name))
				continue
			}
			m.samples = append(m.samples, opSample{cycle: m.cycles, cs: i, traced: traced, dur: d, alloc: float64(a1 - a0)})
		}
		m.cycles++
	}
	peak, err := peakRSS()
	if err != nil {
		return err
	}
	m.peaks = append(m.peaks, peak)
	m.cache1 = fastcc.ShardCacheStats()
	return nil
}

// residentOf returns case i's resident operands, or nils for a cold op.
func (st *libState) residentOf(i int) [2]*core.Operand {
	if st.resident == nil {
		return [2]*core.Operand{}
	}
	return st.resident[i]
}

// traceResident prepares the warm workload's traced operands the way
// Preshard and the first ContractPrepared do, recording the linearize and
// build spans of setup.
func (st *libState) traceResident(rec *recorder) error {
	for i := range st.cases {
		c := &st.cases[i]
		root := rec.begin(rootSetup, c.name, 0, 0, tidSetup)
		s := rec.begin("coo.linearize", c.name, 0, root, tidSetup)
		lm, rm, err := matrixize(c)
		rec.end(s)
		if err != nil {
			rec.end(root)
			return err
		}
		lo := core.NewOperand(lm)
		ro := lo
		if !c.self() {
			ro = core.NewOperand(rm)
		}
		st.resident = append(st.resident, [2]*core.Operand{lo, ro})
		dec, err := decide(lm, rm, libPlatform)
		if err != nil {
			rec.end(root)
			return err
		}
		s = rec.begin("core.build", c.name, 0, root, tidSetup)
		warmBoth(lo, ro, dec, threads)
		rec.end(s)
		rec.end(root)
	}
	return nil
}

// splitTraced returns the per-cycle median time of the untraced and the
// traced ops, per case, so the two sums compare like with like.
func splitTraced(samples []opSample, ncases int) (untraced, traced []float64) {
	u := make([][]float64, ncases)
	t := make([][]float64, ncases)
	for _, s := range samples {
		if s.traced {
			t[s.cs] = append(t[s.cs], s.dur)
		} else {
			u[s.cs] = append(u[s.cs], s.dur)
		}
	}
	for i := 0; i < ncases; i++ {
		untraced = append(untraced, median(u[i]))
		traced = append(traced, median(t[i]))
	}
	return untraced, traced
}

// libEndToEnd computes the end-to-end metrics of a library workload from
// its op samples, with quartiles over four interleaved windows of cycles.
func libEndToEnd(res *runResult, samples []opSample, ncases int, setupTimes, peaks []float64) {
	compute := func(ss []opSample) map[string]float64 {
		perCase := make([][]float64, ncases)
		var alloc float64
		for _, s := range ss {
			perCase[s.cs] = append(perCase[s.cs], s.dur)
			alloc += s.alloc
		}
		return map[string]float64{
			"op_p10_s":           geomeanOfQuantiles(perCase, opQuantile),
			"alloc_bytes_per_op": ratio(alloc, float64(len(ss))),
		}
	}
	windows := make([][]opSample, 4)
	for _, s := range samples {
		windows[s.cycle%4] = append(windows[s.cycle%4], s)
	}
	var per []map[string]float64
	for _, ws := range windows {
		if len(ws) > 0 {
			per = append(per, compute(ws))
		}
	}
	res.setWindowed(compute(samples), per)
	res.set(endToEnd, "setup_s", median(setupTimes), setupTimes...)
	res.set(endToEnd, "peak_rss_bytes", median(peaks), peaks...)
}

// matrixize linearizes both operands as the engine's pre-processing does;
// a self-contraction linearizes once.
func matrixize(c *contraction) (lm, rm *coo.Matrix, err error) {
	lm, err = c.l.Matrixize(coo.ExternalModes(c.l.Order(), c.spec.CtrLeft), c.spec.CtrLeft)
	if err != nil || c.self() {
		return lm, lm, err
	}
	rm, err = c.r.Matrixize(coo.ExternalModes(c.r.Order(), c.spec.CtrRight), c.spec.CtrRight)
	return lm, rm, err
}

// decide runs the planning model on two matrixized operands, as the engine's
// plan step does before it applies any override.
func decide(lm, rm *coo.Matrix, p model.Platform) (model.Decision, error) {
	return model.Decide(model.Inputs{
		NNZL: int64(lm.NNZ()), NNZR: int64(rm.NNZ()),
		LDim: lm.ExtDim, RDim: rm.ExtDim, CDim: lm.CtrDim,
	}, p)
}

// warmBoth builds (or finds) the shards a contraction planned as dec reads.
func warmBoth(lo, ro *core.Operand, dec model.Decision, workers int) {
	lo.Warm(core.ShardKey{Tile: dec.TileL}, workers)
	ro.Warm(core.ShardKey{Tile: dec.TileR}, workers)
}

// Delinearization scratch, recycled across ops as the library recycles its own.
var (
	delinU64 mempool.SlicePool[uint64]
	delinF64 mempool.SlicePool[float64]
)

// tracedOp runs one contraction as the sequence of layer calls the library
// makes inside Contract (or, given resident operands, ContractPrepared),
// with a span around each: linearize, plan, build, execute, delinearize.
// The engine's counters are recorded into cnt.
func tracedOp(rec *recorder, c *contraction, resident [2]*core.Operand, p model.Platform, op int, cnt *opCounts) (*fastcc.Tensor, error) {
	root := rec.begin(rootOp, c.name, op, 0, tidOps)
	defer rec.end(root)
	span := func(name string) int { return rec.begin(name, c.name, op, root, tidOps) }

	lo, ro := resident[0], resident[1]
	var lm, rm *coo.Matrix
	if lo == nil {
		s := span("coo.linearize")
		var err error
		lm, rm, err = matrixize(c)
		rec.end(s)
		if err != nil {
			return nil, err
		}
	} else {
		lm, rm = lo.Mat, ro.Mat
	}

	s := span("model.plan")
	dec, err := decide(lm, rm, p)
	rec.end(s)
	if err != nil {
		return nil, err
	}

	s = span("core.build")
	if lo == nil {
		lo = core.NewOperand(lm)
		ro = lo
		if rm != lm {
			ro = core.NewOperand(rm)
			defer ro.Close()
		}
		defer lo.Close()
	}
	warmBoth(lo, ro, dec, threads)
	rec.end(s)

	s = span("core.execute")
	var ctr metrics.Counters
	out, cst, err := core.ContractOperands(lo, ro, core.Config{Threads: threads, Platform: p, Counters: &ctr})
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	if cst.BuildTime != 0 {
		core.RecycleOutput(out)
		return nil, fmt.Errorf("%s: execute rebuilt a shard the build step had warmed", c.name)
	}

	s = span("coo.delinearize")
	n := out.Len()
	ls, rs, vs := delinU64.Get(n), delinU64.Get(n), delinF64.Get(n)
	out.ForEach(func(t core.Triple) {
		ls = append(ls, t.L)
		rs = append(rs, t.R)
		vs = append(vs, t.V)
	})
	t, err := coo.FromPairsP(ls, rs, vs, extDims(c.l, c.spec.CtrLeft), extDims(c.r, c.spec.CtrRight), threads)
	core.RecycleOutput(out)
	delinU64.Put(ls)
	delinU64.Put(rs)
	delinF64.Put(vs)
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}

	snap := ctr.Snapshot()
	*cnt = opCounts{
		tasks: int64(cst.Tasks), updates: snap.Updates,
		probeHits: snap.ProbeHits, probeMisses: snap.ProbeMisses, outNNZ: int64(n),
	}
	return t, nil
}

// extDims returns the extents of t's uncontracted modes, in order.
func extDims(t *fastcc.Tensor, ctr []int) []uint64 {
	var dims []uint64
	for _, m := range coo.ExternalModes(t.Order(), ctr) {
		dims = append(dims, t.Dims[m])
	}
	return dims
}

// probeLayers times, outside any op, the two halves of the build layer on
// every case: PartitionByTile alone, and a whole shard build (Warm), each at
// two workers and at one. Three repeats each; metrics take the median.
func probeLayers(rec *recorder, cases []contraction, p model.Platform) error {
	for rep := 0; rep < 3; rep++ {
		for i := range cases {
			c := &cases[i]
			lm, rm, err := matrixize(c)
			if err != nil {
				return err
			}
			dec, err := decide(lm, rm, p)
			if err != nil {
				return err
			}
			root := rec.begin(rootProbe, c.name, 0, 0, tidProbe)
			for _, workers := range []int{2, 1} {
				s := rec.begin(fmt.Sprintf("probe.partition.%dw", workers), c.name, 0, root, tidProbe)
				coo.PartitionByTile(lm, dec.TileL, workers).Release()
				if rm != lm || dec.TileR != dec.TileL {
					coo.PartitionByTile(rm, dec.TileR, workers).Release()
				}
				rec.end(s)

				lo := core.NewOperand(lm)
				ro := lo
				if rm != lm {
					ro = core.NewOperand(rm)
				}
				s = rec.begin(fmt.Sprintf("probe.build.%dw", workers), c.name, 0, root, tidProbe)
				warmBoth(lo, ro, dec, workers)
				rec.end(s)
				lo.Close()
				ro.Close()
			}
			rec.end(root)
		}
	}
	return nil
}

// partitionedNNZ is how many nonzeros one partition probe of c regroups.
func partitionedNNZ(c *contraction) float64 {
	if c.self() {
		return float64(c.l.NNZ())
	}
	return float64(c.l.NNZ() + c.r.NNZ())
}

// layerMetrics derives the library-layer metrics from the traced ops, the
// setup spans and the probes. Each self_s is the sum over cases of the
// case's median; each share divides it by the traced cycle time.
func layerMetrics(res *runResult, rec *recorder, cases []contraction, counts []opCounts) {
	cycle := sumOfMedians(rec.perCase(rootOp, rootOp, true))
	res.set(perLayer, "trace.cycle_s", cycle)
	self := map[string]float64{}
	for _, layer := range []string{"coo.linearize", "model.plan", "core.build", "core.execute", "coo.delinearize"} {
		byCase := rec.perCase(layer, rootOp, false)
		if len(byCase) == 0 {
			// A warm workload linearizes at setup, not in its ops.
			byCase = rec.perCase(layer, rootSetup, false)
		}
		self[layer] = sumOfMedians(byCase)
		res.set(perLayer, layer+".self_s", self[layer])
		if layer != "model.plan" {
			res.set(perLayer, layer+".share", ratio(self[layer], cycle))
		}
	}

	part2 := sumOfMedians(rec.perCase("probe.partition.2w", rootProbe, true))
	part1 := sumOfMedians(rec.perCase("probe.partition.1w", rootProbe, true))
	build2 := sumOfMedians(rec.perCase("probe.build.2w", rootProbe, true))
	build1 := sumOfMedians(rec.perCase("probe.build.1w", rootProbe, true))
	var nnz float64
	for i := range cases {
		nnz += partitionedNNZ(&cases[i])
	}
	// The timed ops run one worker, so the partition and seal shares of a
	// cycle come from the one-worker probes.
	res.set(perLayer, "coo.partition.self_s", part1)
	res.set(perLayer, "coo.partition.share", ratio(part1, cycle))
	res.set(perLayer, "coo.partition.nnz_per_s", ratio(nnz, part1))
	res.set(perLayer, "coo.partition.scale_2t", ratio(part1, part2))
	res.set(perLayer, "core.build.scale_2t", ratio(build1, build2))
	// Derived, not measured: the build probe minus its partition half.
	res.set(perLayer, "hashtable.seal.self_s", build1-part1)
	res.set(perLayer, "hashtable.seal.share", ratio(build1-part1, cycle))

	var tot opCounts
	for _, c := range counts {
		tot.tasks += c.tasks
		tot.updates += c.updates
		tot.probeHits += c.probeHits
		tot.probeMisses += c.probeMisses
		tot.outNNZ += c.outNNZ
	}
	res.set(perLayer, "core.execute.tasks", float64(tot.tasks))
	res.set(perLayer, "core.kernel.updates", float64(tot.updates))
	res.set(perLayer, "core.kernel.updates_per_s", ratio(float64(tot.updates), self["core.execute"]))
	res.set(perLayer, "core.kernel.probe_hit_ratio", ratio(float64(tot.probeHits), float64(tot.probeHits+tot.probeMisses)))
	res.set(perLayer, "coo.delinearize.nnz_per_s", ratio(float64(tot.outNNZ), self["coo.delinearize"]))
}

// cacheMetrics reports the shard cache's activity between two snapshots.
// Hits include shards re-pinned from spill files; ram_hits excludes them.
func cacheMetrics(res *runResult, a, b fastcc.CacheStats) {
	hits := float64(b.Hits - a.Hits)
	misses := float64(b.Misses - a.Misses)
	reads := float64(b.SpillReads - a.SpillReads)
	writes := float64(b.SpillWrites - a.SpillWrites)
	res.set(perLayer, "core.cache.ram_hits", hits-reads)
	res.set(perLayer, "core.cache.misses", misses)
	res.set(perLayer, "core.cache.hit_ratio", ratio(hits-reads, hits+misses))
	res.set(perLayer, "core.cache.evictions", float64(b.Evictions-a.Evictions))
	res.set(perLayer, "spill.writes", writes)
	res.set(perLayer, "spill.reads", reads)
	res.set(perLayer, "spill.fallbacks", float64(b.SpillFallbacks-a.SpillFallbacks))
	res.set(perLayer, "spill.read_ratio", ratio(reads, writes))
}

// finish fills the derived totals and the correctness verdict.
func (r *runResult) finish() {
	r.FailRatio = ratio(float64(r.Failed), float64(r.Attempted))
	r.Correct = r.Failed == 0 && r.Attempted > 0
}
