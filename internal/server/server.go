package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fastcc"
	"fastcc/internal/core"
	"fastcc/internal/scheduler"
)

// TenantHeader carries the caller's tenant ID on every request. The ID
// grammar is fastcc's (1–128 bytes of printable ASCII without spaces), so
// it is header-safe by construction.
const TenantHeader = "X-Fastcc-Tenant"

// Config parameterizes a Server. Zero values select the documented
// defaults.
type Config struct {
	// Threads caps worker threads per contraction (0 = GOMAXPROCS).
	Threads int
	// CacheBudget bounds the process-wide shard cache in bytes (0 = the
	// host-derived default, < 0 = unbounded); New sets it once for the
	// process (fastcc.SetShardBudget), and Close restores the default.
	CacheBudget int64
	// TenantQuota is the per-tenant shard-cache quota in bytes, set the
	// first time a tenant registers an operand (0 = no per-tenant quota).
	TenantQuota int64
	// UploadQuota bounds each tenant's referenced-operand bytes in the
	// registry (0 = unlimited).
	UploadQuota int64
	// Inflight and Queue bound concurrent contractions and the waiting
	// line behind them (defaults 2 and 16; Queue < 0 disables queueing —
	// a saturated server rejects immediately).
	Inflight, Queue int
	// Timeout bounds each contraction request end to end (default 60s).
	Timeout time.Duration
	// SpillDir enables the shard cache's disk tier: shards evicted by the
	// cache budget or a tenant quota are serialized there and read back on
	// the next request that needs them; Close switches the tier off again.
	// Empty disables spilling.
	SpillDir string
	// SpillBudget bounds the spill directory's on-disk bytes (0 = unbounded).
	SpillBudget int64
	// SpillPersist keeps spill files of reloaded or dropped shards on disk
	// as adoptable orphans, so a restarted daemon pointed at the same
	// SpillDir serves its first requests from the previous process's warm
	// cache. Without it a clean shutdown leaves the directory empty (and
	// Close checks that it did).
	SpillPersist bool
}

func (c Config) withDefaults() Config {
	if c.Inflight == 0 {
		c.Inflight = 2
	}
	if c.Queue == 0 {
		c.Queue = 16
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
	return c
}

// resultEntry is one finished contraction output awaiting download, held
// as the BTNS bytes a fetch sends.
type resultEntry struct {
	tenant string
	btns   []byte
}

// Server is the contraction service: a Registry of content-addressed
// operands, an Admission bound on concurrent contractions, and a results
// store. Create with New, expose via Handler, tear down with Close.
type Server struct {
	cfg Config
	reg *Registry
	adm *scheduler.Admission
	mux *http.ServeMux

	mu      sync.Mutex
	results map[string]*resultEntry
	tenants map[string]bool // every tenant that registered an operand; quota set + dropped at Close
	nextID  atomic.Int64

	// Shard-cache baseline captured at New; Close checks the deltas are
	// zero after dropping all state (the server leaks nothing it created).
	baseBytes, baseShards, baseChunks int64
}

// New creates a Server, configuring the spill tier when Config.SpillDir is
// set (a bad spill directory fails here, not on the first request) and then
// the shard-cache budget. The shard-cache gauges observed now become the
// leak-check baseline for Close.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.SpillDir != "" {
		if err := fastcc.ConfigureSpill(cfg.SpillDir, cfg.SpillBudget, cfg.SpillPersist); err != nil {
			return nil, fmt.Errorf("server: opening spill dir: %w", err)
		}
	}
	fastcc.SetShardBudget(cfg.CacheBudget)
	cs := fastcc.ShardCacheStats()
	s := &Server{
		cfg:        cfg,
		reg:        NewRegistry(cfg.UploadQuota),
		adm:        scheduler.NewAdmission(cfg.Inflight, cfg.Queue),
		mux:        http.NewServeMux(),
		results:    map[string]*resultEntry{},
		tenants:    map[string]bool{},
		baseBytes:  cs.CachedBytes,
		baseShards: cs.Shards,
		baseChunks: core.OutputChunksOutstanding(),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.tenanted(s.handleStats))
	s.mux.HandleFunc("POST /v1/operands", s.tenanted(s.handleUpload))
	s.mux.HandleFunc("DELETE /v1/operands/{hash}", s.tenanted(s.handleReleaseOperand))
	s.mux.HandleFunc("POST /v1/contract", s.tenanted(s.handleContract))
	s.mux.HandleFunc("GET /v1/results/{id}", s.tenanted(s.handleFetchResult))
	s.mux.HandleFunc("DELETE /v1/results/{id}", s.tenanted(s.handleDeleteResult))
	return s, nil
}

// Handler returns the HTTP surface; mount it on any http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains in-flight contractions, drops every result, registry entry
// and tenant account, then verifies the shard-cache and output-chunk gauges
// returned to their New-time baseline. A nonzero delta is returned as an
// error — the daemon exits nonzero on it, which is what make serve-smoke
// asserts. Last, the spill tier New switched on goes off (deleting no file,
// so a persist-mode restart still adopts them) and the budget New set goes
// back to the host default, so library runs later in the process neither
// spill into the server's directory nor inherit its budget.
func (s *Server) Close() error {
	defer fastcc.SetShardBudget(0)
	if s.cfg.SpillDir != "" {
		defer fastcc.ConfigureSpill("", 0, false) // switching the tier off cannot fail
	}
	s.adm.Drain()
	s.mu.Lock()
	s.results = map[string]*resultEntry{}
	tenants := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		tenants = append(tenants, id)
	}
	s.tenants = map[string]bool{}
	s.mu.Unlock()

	s.reg.Close()
	for _, id := range tenants {
		if err := fastcc.DropTenant(id); err != nil {
			return fmt.Errorf("server: dropping tenant %q: %w", id, err)
		}
	}

	cs := fastcc.ShardCacheStats()
	var leaks []string
	if d := cs.CachedBytes - s.baseBytes; d != 0 {
		leaks = append(leaks, fmt.Sprintf("shard-cache bytes %+d", d))
	}
	if d := cs.Shards - s.baseShards; d != 0 {
		leaks = append(leaks, fmt.Sprintf("shards %+d", d))
	}
	if d := core.OutputChunksOutstanding() - s.baseChunks; d != 0 {
		leaks = append(leaks, fmt.Sprintf("output chunks %+d", d))
	}
	// Without persist-mode, dropping every operand must also have emptied
	// the spill directory — a surviving file is a disk leak. Persist-mode
	// intentionally leaves orphans for the next process to adopt.
	if s.cfg.SpillDir != "" && !s.cfg.SpillPersist && cs.SpillFiles != 0 {
		leaks = append(leaks, fmt.Sprintf("spill files %d (%d bytes)", cs.SpillFiles, cs.SpillDiskBytes))
	}
	if leaks != nil {
		return fmt.Errorf("server: leak gauges nonzero after shutdown: %v", leaks)
	}
	return nil
}

// --- wire types ---------------------------------------------------------

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// UploadResponse acknowledges a registered operand.
type UploadResponse struct {
	Hash  string   `json:"hash"`
	NNZ   int      `json:"nnz"`
	Dims  []uint64 `json:"dims"`
	Bytes int64    `json:"bytes"`
}

// ContractRequest names two registered operands and the contraction to run
// over them: either an einsum expression or explicit contracted-mode lists.
type ContractRequest struct {
	Left  string `json:"left"`
	Right string `json:"right"`
	// Expr is an einsum expression ("ik,kl->il"); mutually exclusive with
	// CtrLeft/CtrRight.
	Expr     string `json:"expr,omitempty"`
	CtrLeft  []int  `json:"ctr_left,omitempty"`
	CtrRight []int  `json:"ctr_right,omitempty"`
}

// ContractResponse acknowledges a finished contraction; the output tensor
// is fetched separately by ResultID.
type ContractResponse struct {
	ResultID  string `json:"result_id"`
	OutputNNZ int    `json:"output_nnz"`
	// Timings in nanoseconds, from the run's Stats.
	BuildNS    int64 `json:"build_ns"`
	ContractNS int64 `json:"contract_ns"`
	TotalNS    int64 `json:"total_ns"`
	// ShardReused reports a full shard-cache hit (Build was skipped).
	ShardReused bool `json:"shard_reused"`
}

// StatsResponse is the observability snapshot GET /v1/stats returns. The
// per-tenant parts are the calling tenant's own: no caller reads another
// tenant's ID or counters.
type StatsResponse struct {
	Cache         fastcc.CacheStats  `json:"cache"`
	Tenant        fastcc.TenantStats `json:"tenant"` // calling tenant's shard-cache account
	InFlight      int                `json:"in_flight"`
	Queued        int                `json:"queued"`
	Operands      int                `json:"operands"`
	OperandBytes  int64              `json:"operand_bytes"`
	Results       int                `json:"results"`
	ResultBytes   int64              `json:"result_bytes"`   // the results store's encoded bytes
	UploadedBytes int64              `json:"uploaded_bytes"` // calling tenant's registry charge
}

// --- error mapping ------------------------------------------------------

// statusCode maps the package's typed errors onto HTTP statuses: validation
// failures are the client's fault (400), unknown names are 404, resource
// exhaustion is 429, cancellation 499 (the de-facto client-closed-request
// code) and deadline expiry 504.
func statusCode(err error) (int, string) {
	switch {
	case errors.Is(err, fastcc.ErrBadExpr):
		return http.StatusBadRequest, "bad_expr"
	case errors.Is(err, fastcc.ErrBadSpec):
		return http.StatusBadRequest, "bad_spec"
	case errors.Is(err, fastcc.ErrBadOption):
		return http.StatusBadRequest, "bad_option"
	case errors.Is(err, fastcc.ErrShapeMismatch):
		return http.StatusBadRequest, "shape_mismatch"
	case errors.Is(err, ErrUnknownOperand):
		return http.StatusNotFound, "unknown_operand"
	case errors.Is(err, errUnknownResult):
		return http.StatusNotFound, "unknown_result"
	case errors.Is(err, ErrOverUploadQuota):
		return http.StatusTooManyRequests, "over_upload_quota"
	case errors.Is(err, scheduler.ErrQueueFull):
		return http.StatusTooManyRequests, "queue_full"
	case errors.Is(err, scheduler.ErrAdmissionClosed):
		return http.StatusServiceUnavailable, "shutting_down"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		return 499, "canceled"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

var errUnknownResult = errors.New("server: unknown result id")

func writeError(w http.ResponseWriter, err error) {
	status, code := statusCode(err)
	var body errorBody
	body.Error.Code = code
	body.Error.Message = err.Error()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(&body)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// --- handlers -----------------------------------------------------------

// validTenantID applies fastcc's WithTenant grammar so malformed IDs are
// rejected at the door with the same ErrBadOption family.
func validTenantID(id string) error {
	if id == "" {
		return fmt.Errorf("%w: missing %s header", fastcc.ErrBadOption, TenantHeader)
	}
	return core.ValidTenant(id)
}

// tenanted wraps a handler with tenant-header extraction and validation.
// It creates no tenant state: that waits for a registered operand.
func (s *Server) tenanted(h func(w http.ResponseWriter, r *http.Request, tenant string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := r.Header.Get(TenantHeader)
		if err := validTenantID(tenant); err != nil {
			writeError(w, err)
			return
		}
		h(w, r, tenant)
	}
}

// noteTenant records a tenant that registered an operand, so Close drops
// its cache account, and on first sight opens that account with the
// configured quota. Uploads are the only caller: every tenanted run
// contracts operands its tenant registered.
func (s *Server) noteTenant(tenant string) error {
	s.mu.Lock()
	first := !s.tenants[tenant]
	s.tenants[tenant] = true
	s.mu.Unlock()
	if first && s.cfg.TenantQuota > 0 {
		return fastcc.SetTenantQuota(tenant, s.cfg.TenantQuota)
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request, tenant string) {
	limit := s.cfg.UploadQuota
	if limit <= 0 {
		limit = 1 << 30
	}
	t, err := fastcc.ReadBTNS(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		writeError(w, fmt.Errorf("%w: decoding BTNS body: %v", fastcc.ErrBadSpec, err))
		return
	}
	hash, err := s.reg.Register(tenant, t)
	if err == nil {
		err = s.noteTenant(tenant)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, &UploadResponse{Hash: hash, NNZ: t.NNZ(), Dims: t.Dims, Bytes: estimateBytes(t)})
}

func (s *Server) handleReleaseOperand(w http.ResponseWriter, r *http.Request, tenant string) {
	if err := s.reg.Release(tenant, r.PathValue("hash")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// resolveSpec turns a ContractRequest's expression or mode lists into the
// engine Spec for the two resolved operands.
func resolveSpec(req *ContractRequest, l, r *fastcc.Tensor) (fastcc.Spec, error) {
	if req.Expr != "" {
		if req.CtrLeft != nil || req.CtrRight != nil {
			return fastcc.Spec{}, fmt.Errorf("%w: expr and ctr_left/ctr_right are mutually exclusive", fastcc.ErrBadSpec)
		}
		return fastcc.ParseEinsum(req.Expr, l.Order(), r.Order())
	}
	spec := fastcc.Spec{CtrLeft: req.CtrLeft, CtrRight: req.CtrRight}
	if err := spec.Validate(l, r); err != nil {
		return fastcc.Spec{}, err
	}
	return spec, nil
}

func (s *Server) handleContract(w http.ResponseWriter, r *http.Request, tenant string) {
	var req ContractRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("%w: decoding request: %v", fastcc.ErrBadSpec, err))
		return
	}
	le, err := s.reg.Lookup(tenant, req.Left)
	if err != nil {
		writeError(w, err)
		return
	}
	re, err := s.reg.Lookup(tenant, req.Right)
	if err != nil {
		writeError(w, err)
		return
	}
	spec, err := resolveSpec(&req, le.t, re.t)
	if err != nil {
		writeError(w, err)
		return
	}

	// Admission: bounded in-flight contractions, bounded queue, and the
	// request's own context (client disconnect, server timeout) evicting it
	// from the queue.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	release, err := s.adm.Acquire(ctx)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()

	lsh, err := le.sharded(spec.CtrLeft)
	if err != nil {
		writeError(w, err)
		return
	}
	rsh, err := re.sharded(spec.CtrRight)
	if err != nil {
		writeError(w, err)
		return
	}
	opts := []fastcc.Option{
		fastcc.WithTenant(tenant),
		fastcc.WithContext(ctx),
	}
	if s.cfg.Threads > 0 {
		opts = append(opts, fastcc.WithThreads(s.cfg.Threads))
	}
	// The result is encoded once, here, so a fetch only copies bytes.
	btns, stats, err := fastcc.ContractPreparedBTNS(lsh, rsh, opts...)
	if err != nil {
		writeError(w, err)
		return
	}

	id := "r" + strconv.FormatInt(s.nextID.Add(1), 16)
	s.mu.Lock()
	s.results[id] = &resultEntry{tenant: tenant, btns: btns}
	s.mu.Unlock()
	writeJSON(w, &ContractResponse{
		ResultID:    id,
		OutputNNZ:   stats.OutputNNZ,
		BuildNS:     stats.BuildTime.Nanoseconds(),
		ContractNS:  stats.ContractTime.Nanoseconds(),
		TotalNS:     stats.TotalTime.Nanoseconds(),
		ShardReused: stats.ShardReused,
	})
}

func (s *Server) takeResult(tenant, id string, remove bool) (*resultEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.results[id]
	if !ok || e.tenant != tenant {
		return nil, fmt.Errorf("%w: %s", errUnknownResult, id)
	}
	if remove {
		delete(s.results, id)
	}
	return e, nil
}

func (s *Server) handleFetchResult(w http.ResponseWriter, r *http.Request, tenant string) {
	e, err := s.takeResult(tenant, r.PathValue("id"), false)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(e.btns)))
	// A failed write means the client went away; its decode fails on the
	// short body.
	_, _ = w.Write(e.btns)
}

func (s *Server) handleDeleteResult(w http.ResponseWriter, r *http.Request, tenant string) {
	if _, err := s.takeResult(tenant, r.PathValue("id"), true); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request, tenant string) {
	operands, bytes := s.reg.Stats()
	s.mu.Lock()
	nresults, resultBytes := len(s.results), int64(0)
	for _, e := range s.results {
		resultBytes += int64(len(e.btns))
	}
	s.mu.Unlock()
	own, _ := fastcc.TenantCacheStats(tenant)
	writeJSON(w, &StatsResponse{
		Cache:         fastcc.ShardCacheStats(),
		Tenant:        own,
		InFlight:      s.adm.InFlight(),
		Queued:        s.adm.Queued(),
		Operands:      operands,
		OperandBytes:  bytes,
		Results:       nresults,
		ResultBytes:   resultBytes,
		UploadedBytes: s.reg.Charged(tenant),
	})
}
