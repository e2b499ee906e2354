package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"fastcc"
	"fastcc/internal/core"
	"fastcc/internal/gen"
	"fastcc/internal/server"
)

const (
	// serveBudget is small enough that the working set of the six kinds
	// does not fit, so evictions spill and later requests re-pin from disk.
	serveBudget = 6 << 20
	// serveClients closed-loop clients, one per tenant: no more than the
	// baseline machine's cores and the server's in-flight bound.
	serveClients = 2
	// Every freshEvery-th request of a client first uploads a fresh
	// operand, its left tensor scaled by a power of two no other request
	// uses, and releases it afterwards: new content, so new builds, and no
	// two live operands ever share spill file names.
	freshEvery = 8
)

// serveState is one set-up instance of serve-churn: an in-process server
// on a loopback listener, its clients, and the operands each has uploaded.
type serveState struct {
	cases   []contraction
	srv     *server.Server
	hs      *httptest.Server
	clients []*server.Client
	hashes  map[*fastcc.Tensor]string
	dir     string // spill directory, removed by close
}

func startServer(cfg server.Config, cases []contraction, tenants int) (*serveState, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	st := &serveState{cases: cases, srv: srv, hs: httptest.NewServer(srv.Handler()), hashes: map[*fastcc.Tensor]string{}, dir: cfg.SpillDir}
	for t := 0; t < tenants; t++ {
		st.clients = append(st.clients, server.NewClient(st.hs.URL, fmt.Sprintf("tenant-%d", t), st.hs.Client()))
	}
	return st, nil
}

// close stops the listener and the server and reports the server's leak
// check; the spill tier is switched off and its directory removed.
func (st *serveState) close() error {
	st.hs.Close()
	err := st.srv.Close()
	if st.dir != "" {
		if cerr := fastcc.ConfigureSpill("", 0, false); cerr != nil && err == nil {
			err = cerr
		}
		if rerr := os.RemoveAll(st.dir); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// upload registers every operand for every tenant.
func (st *serveState) upload(ctx context.Context, rec *recorder) error {
	for ci, cl := range st.clients {
		for _, t := range operands(st.cases) {
			root := rec.begin(rootRequest, "", 0, 0, tidOps+1+ci)
			s := rec.begin("server.upload", "", 0, root, tidOps+1+ci)
			h, err := cl.Upload(ctx, t)
			rec.end(s)
			rec.end(root)
			if err != nil {
				return fmt.Errorf("uploading an operand: %w", err)
			}
			st.hashes[t] = h
		}
	}
	return nil
}

// reqResult is what one request chain returned.
type reqResult struct {
	out      *fastcc.Tensor
	fresh    string  // hash of the fresh operand, to release
	contract float64 // seconds the contract call took
	resp     *server.ContractResponse
}

// request runs case i for client ci: upload the fresh left operand if one
// is given, then contract, fetch and delete the result.
func (st *serveState) request(ctx context.Context, rec *recorder, ci, i int, fresh *fastcc.Tensor, op int) (reqResult, error) {
	c := &st.cases[i]
	cl := st.clients[ci]
	tid := tidOps + 1 + ci
	root := rec.begin(rootRequest, c.name, op, 0, tid)
	defer rec.end(root)
	var r reqResult
	left := st.hashes[c.l]
	if fresh != nil {
		s := rec.begin("server.upload", c.name, op, root, tid)
		h, err := cl.Upload(ctx, fresh)
		rec.end(s)
		if err != nil {
			return r, fmt.Errorf("%s: upload: %w", c.name, err)
		}
		r.fresh, left = h, h
	}
	s := rec.begin("server.contract", c.name, op, root, tid)
	t0 := time.Now()
	resp, err := cl.Contract(ctx, &server.ContractRequest{Left: left, Right: st.hashes[c.r], CtrLeft: c.spec.CtrLeft, CtrRight: c.spec.CtrRight})
	r.contract = time.Since(t0).Seconds()
	rec.end(s)
	if err != nil {
		return r, fmt.Errorf("%s: contract: %w", c.name, err)
	}
	r.resp = resp
	s = rec.begin("server.fetch", c.name, op, root, tid)
	r.out, err = cl.Fetch(ctx, resp.ResultID)
	rec.end(s)
	if err != nil {
		return r, fmt.Errorf("%s: fetch: %w", c.name, err)
	}
	s = rec.begin("server.delete", c.name, op, root, tid)
	err = cl.DeleteResult(ctx, resp.ResultID)
	rec.end(s)
	if err != nil {
		return r, fmt.Errorf("%s: delete: %w", c.name, err)
	}
	return r, nil
}

// serveSetup starts the server, uploads the operands for both tenants and
// warms it with one round trip per kind, whose outputs it returns.
func serveSetup(cfg config, dir string) (*serveState, []*fastcc.Tensor, error) {
	cases := qcInputs(cfg.scales.QCServe, cfg.seed, cfg.intValues)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	st, err := startServer(server.Config{Threads: threads, Inflight: serveClients, CacheBudget: serveBudget, SpillDir: dir}, cases, serveClients)
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	if err := st.upload(ctx, nil); err != nil {
		return nil, nil, errors.Join(err, st.close())
	}
	base := make([]*fastcc.Tensor, len(cases))
	for i := range cases {
		r, err := st.request(ctx, nil, 0, i, nil, 0)
		if err != nil {
			return nil, nil, errors.Join(err, st.close())
		}
		base[i] = r.out
	}
	return st, base, nil
}

// reqRecord is one completed request of the measured loop.
type reqRecord struct {
	client   int
	block    int // the client's block of six requests, counted across segments
	kind     int
	traced   bool
	fresh    bool    // the request uploaded a fresh operand first
	rtt      float64 // seconds from the first call to the delete's reply
	overhead float64 // contract RTT minus the server's own TotalNS
	buildNS  int64
}

// clientLog is one client's share of the loop's outcome.
type clientLog struct {
	records   []reqRecord
	blocks    int // blocks finished in earlier segments
	attempted int
	rejects   int
	failures  []error
}

func (l *clientLog) fail(err error) {
	var api *server.APIError
	if errors.As(err, &api) && (api.Status == http.StatusTooManyRequests || api.Status == http.StatusServiceUnavailable) {
		l.rejects++
	}
	l.failures = append(l.failures, err)
}

// client runs client ci's closed loop in whole blocks until the deadline
// (and for at least two). Each block of six requests contracts every kind
// once, in a seeded order, so seeds change the interleaving but not the
// mix. With tracing, half the requests are traced in a checkerboard over
// (block, position): a later position in a block reuses its shards after a
// longer gap and is slower, so tracing by position alone would bias the
// comparison.
func (st *serveState) client(ctx context.Context, rec *recorder, ci int, cfg config, deadline time.Time, want *oracleDigests, log *clientLog) {
	rng := gen.NewRNG(mix64(cfg.seed ^ uint64(ci+1)<<40))
	kinds := len(st.cases)
	order := make([]int, kinds)
	n := 0
	defer func() { log.blocks += n / kinds }()
	for ; n%kinds != 0 || n < 2*kinds || time.Now().Before(deadline); n++ {
		if n%kinds == 0 {
			for j := range order {
				order[j] = j
			}
			for j := kinds - 1; j > 0; j-- {
				k := rng.Intn(j + 1)
				order[j], order[k] = order[k], order[j]
			}
		}
		i := order[n%kinds]
		traced := cfg.trace && (n%kinds+n/kinds)%2 == 1
		var fresh *fastcc.Tensor
		shift := 0
		if n%freshEvery == freshEvery-1 {
			shift = 1 + ci + serveClients*(n/freshEvery)
			fresh = scaled(st.cases[i].l, shift)
		}
		r := rec
		if !traced {
			r = nil
		}
		log.attempted++
		t0 := time.Now()
		res, err := st.request(ctx, r, ci, i, fresh, n+1)
		t1 := time.Now()
		if res.fresh != "" {
			if rerr := st.clients[ci].Release(ctx, res.fresh); rerr != nil && err == nil {
				err = fmt.Errorf("%s: release: %w", st.cases[i].name, rerr)
			}
		}
		if err != nil {
			log.fail(err)
			continue
		}
		if digest(res.out, 0) != want.of(i, shift) {
			log.fail(fmt.Errorf("%s: output digest differs from the oracle's (operand scaled by 2^%d)", st.cases[i].name, shift))
			continue
		}
		log.records = append(log.records, reqRecord{
			client: ci, block: log.blocks + n/kinds,
			kind: i, traced: traced, fresh: fresh != nil,
			rtt:      t1.Sub(t0).Seconds(),
			overhead: res.contract - float64(res.resp.TotalNS)/1e9,
			buildNS:  res.resp.BuildNS,
		})
	}
}

// oracleDigests holds the digests every served output must reproduce: the
// warm round trip's outputs, unscaled and (computed on demand) for a left
// operand scaled by 2^shift.
type oracleDigests struct {
	base  []*fastcc.Tensor
	plain []uint64
}

func (o *oracleDigests) of(kind, shift int) uint64 {
	if shift == 0 {
		return o.plain[kind]
	}
	return digest(o.base[kind], shift)
}

// scaled returns a copy of t with every value multiplied by 2^shift.
func scaled(t *fastcc.Tensor, shift int) *fastcc.Tensor {
	c := t.Clone()
	for i, v := range c.Vals {
		c.Vals[i] = math.Ldexp(v, shift)
	}
	return c
}

func runServe(name string, cfg config) (*runResult, error) {
	res := &runResult{Workload: name, Trace: cfg.trace, Env: currentEnvironment(cfg), Metrics: map[string]value{}}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	// As in the library workloads, a first, untimed setup feeds the oracle,
	// and each timed setup (a fresh server) is measured for its share of the
	// run.
	want, err := serveOracle(cfg, res)
	if err != nil {
		return nil, err
	}
	var (
		setupTimes     []float64
		cases          []contraction
		logs           = make([]clientLog, serveClients)
		allocs         float64
		peaks          []float64 // VmHWM of each segment's loop
		cache0, cache1 fastcc.CacheStats
	)
	segments := cfg.setupCount()
	for seg := 0; seg < segments; seg++ {
		runtime.GC()
		t0 := time.Now()
		st, base, err := serveSetup(cfg, filepath.Join(cfg.outDir, fmt.Sprintf("spill-%d-%d", os.Getpid(), seg)))
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		cases = st.cases
		for i := range base {
			res.Attempted++
			if digest(base[i], 0) != want.plain[i] {
				res.fail(fmt.Errorf("%s: a fresh server's output differs from the first one's", cases[i].name))
			}
		}

		cache0 = fastcc.ShardCacheStats()
		if err := resetPeakRSS(); err != nil {
			return nil, errors.Join(fmt.Errorf("resetting the peak-RSS mark: %w", err), st.close())
		}
		a0 := allocBytes()
		deadline := time.Now().Add(time.Duration(cfg.seconds / float64(segments) * float64(time.Second)))
		var wg sync.WaitGroup
		for ci := range logs {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				st.client(context.Background(), rec, ci, cfg, deadline, want, &logs[ci])
			}(ci)
		}
		wg.Wait()
		allocs += float64(allocBytes() - a0)
		p, err := peakRSS()
		if err != nil {
			return nil, errors.Join(err, st.close())
		}
		peaks = append(peaks, p)
		cache1 = fastcc.ShardCacheStats()
		// A server that leaks shards, output chunks or spill files fails Close.
		if err := st.close(); err != nil {
			res.fail(fmt.Errorf("server close: %w", err))
		}
	}

	var records []reqRecord
	routes := &routeStats{}
	for _, l := range logs {
		res.Attempted += l.attempted
		for _, err := range l.failures {
			res.fail(err)
		}
		routes.rejects += l.rejects
		records = append(records, l.records...)
	}
	if !cfg.trace {
		serveEndToEnd(res, records, allocs, setupTimes, peaks)
		res.finish()
		return res, nil
	}

	// Per kind, the mean traced round trip over the mean untraced one: a
	// kind's round trips split into RAM hits and spill re-pins, and a median
	// flips between the two modes on a few samples where a mean does not.
	traced, untraced := make([][]float64, len(cases)), make([][]float64, len(cases))
	for _, r := range records {
		routes.add(r.overhead, r.buildNS)
		switch {
		case r.fresh:
			// An upload makes the round trip incomparable to the others.
		case r.traced:
			traced[r.kind] = append(traced[r.kind], r.rtt)
		default:
			untraced[r.kind] = append(untraced[r.kind], r.rtt)
		}
	}
	var perKind []float64
	for i := range traced {
		perKind = append(perKind, ratio(mean(traced[i]), mean(untraced[i])))
	}
	res.set(perLayer, "trace.overhead_ratio", geomean(perKind)-1)
	cacheMetrics(res, cache0, cache1)
	routes.metrics(res, rec)
	// The server runs each layer out of sight of a client; the library
	// layers of the same six contractions are measured in-process, on the
	// platform the server resolves, three one-shot cycles long.
	if err := serveLayers(res, rec, cases); err != nil {
		return nil, err
	}
	if err := rec.writeChrome(tracePath(cfg, name)); err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// serveOracle sets a server up, checks its warm round trips against direct
// recomputation and returns their digests, which every later request must
// reproduce. A leak the server reports on Close counts as a failure.
func serveOracle(cfg config, res *runResult) (*oracleDigests, error) {
	st, base, err := serveSetup(cfg, filepath.Join(cfg.outDir, fmt.Sprintf("spill-%d-oracle", os.Getpid())))
	if err != nil {
		return nil, err
	}
	want := &oracleDigests{base: base}
	for i, c := range st.cases {
		if err := verify(&c, base[i], cfg.seed); err != nil {
			return nil, errors.Join(err, st.close())
		}
		want.plain = append(want.plain, digest(base[i], 0))
	}
	if err := st.close(); err != nil {
		res.fail(fmt.Errorf("server close: %w", err))
	}
	return want, nil
}

// serveLayers measures the library layers of the served contractions with
// traced one-shot ops and the layer probes.
func serveLayers(res *runResult, rec *recorder, cases []contraction) error {
	p := fastcc.AutoPlatform()
	counts := make([]opCounts, len(cases))
	first := make([]uint64, len(cases))
	op := 1 << 20 // op ids above the clients' request numbers
	for rep := 0; rep < 3; rep++ {
		for i := range cases {
			runtime.GC()
			out, err := tracedOp(rec, &cases[i], [2]*core.Operand{}, p, op, &counts[i])
			op++
			if err != nil {
				return err
			}
			if d := digest(out, 0); rep == 0 {
				first[i] = d
			} else if d != first[i] {
				res.fail(fmt.Errorf("%s: traced op output differs between repeats", cases[i].name))
			}
			res.Attempted++
		}
	}
	if err := probeLayers(rec, cases, p); err != nil {
		return err
	}
	layerMetrics(res, rec, cases, counts)
	return nil
}

// serveEndToEnd computes serve-churn's end-to-end metrics, with quartiles
// over four interleaved windows of each client's blocks. A kind's round
// trips, uploads included, stand for its op times.
func serveEndToEnd(res *runResult, records []reqRecord, allocs float64, setupTimes, peaks []float64) {
	kinds := 0
	for _, r := range records {
		kinds = max(kinds, r.kind+1)
	}
	compute := func(rs []reqRecord) map[string]float64 {
		perKind := make([][]float64, kinds)
		for _, r := range rs {
			perKind[r.kind] = append(perKind[r.kind], r.rtt)
		}
		return map[string]float64{"op_p10_s": geomeanOfQuantiles(perKind, opQuantile)}
	}
	windows := make([][]reqRecord, 4)
	for _, r := range records {
		windows[r.block%4] = append(windows[r.block%4], r)
	}
	var per []map[string]float64
	for _, ws := range windows {
		if len(ws) > 0 {
			per = append(per, compute(ws))
		}
	}
	res.setWindowed(compute(records), per)
	res.set(endToEnd, "alloc_bytes_per_op", ratio(allocs, float64(len(records))))
	res.set(endToEnd, "setup_s", median(setupTimes), setupTimes...)
	res.set(endToEnd, "peak_rss_bytes", median(peaks), peaks...)
}

// routeStats gathers the client-side view of the server's routes.
type routeStats struct {
	overheads []float64
	buildNS   int64
	requests  int
	rejects   int
}

func (s *routeStats) add(overhead float64, buildNS int64) {
	s.overheads = append(s.overheads, overhead)
	s.buildNS += buildNS
	s.requests++
}

// metrics reports the server.* layer metrics: route latencies from the
// traced spans, HTTP overhead and build time from the requests.
func (s *routeStats) metrics(res *runResult, rec *recorder) {
	durs := func(name string) []float64 {
		var all []float64
		for _, xs := range rec.perCase(name, rootRequest, true) {
			all = append(all, xs...)
		}
		return all
	}
	contract := durs("server.contract")
	res.set(perLayer, "server.upload.p50_s", median(durs("server.upload")))
	res.set(perLayer, "server.contract.p50_s", quantile(contract, 0.5))
	res.set(perLayer, "server.contract.p95_s", quantile(contract, 0.95))
	res.set(perLayer, "server.fetch.p50_s", median(durs("server.fetch")))
	res.set(perLayer, "server.http_overhead_p50_s", median(s.overheads))
	res.set(perLayer, "server.build_per_req_s", ratio(float64(s.buildNS)/1e9, float64(s.requests)))
	res.set(perLayer, "server.rejects", float64(s.rejects))
}

// serverProbe serves a library workload's own contractions once over a
// loopback server, so its traced run reports the server.* layers too: one
// upload per operand, then two round trips per case (the first builds,
// the second hits the server's shard cache).
func serverProbe(rec *recorder, cases []contraction) (*routeStats, error) {
	st, err := startServer(server.Config{Threads: threads, Inflight: serveClients}, cases, 1)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if err := st.upload(ctx, rec); err != nil {
		return nil, errors.Join(err, st.close())
	}
	routes := &routeStats{}
	op := 1 << 20
	for i := range cases {
		var first uint64
		for rep := 0; rep < 2; rep++ {
			r, err := st.request(ctx, rec, 0, i, nil, op)
			op++
			if err != nil {
				return nil, errors.Join(err, st.close())
			}
			if d := digest(r.out, 0); rep == 0 {
				first = d
			} else if d != first {
				return nil, errors.Join(fmt.Errorf("%s: served output differs between round trips", cases[i].name), st.close())
			}
			routes.add(r.contract-float64(r.resp.TotalNS)/1e9, r.resp.BuildNS)
		}
	}
	for _, h := range st.hashes {
		if err := st.clients[0].Release(ctx, h); err != nil {
			return nil, errors.Join(err, st.close())
		}
	}
	return routes, st.close()
}
