package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"fastcc"
)

// randTensor builds a random COO tensor with unique coordinates, so the
// canonical (deduplicated) encoding the server stores is value-identical to
// the original and server results can be compared bit-for-bit against
// direct contractions.
func randTensor(rng *rand.Rand, dims []uint64, nnz int) *fastcc.Tensor {
	t := fastcc.NewTensor(dims, nnz)
	coords := make([]uint64, len(dims))
	seen := make(map[string]bool, nnz)
	key := make([]byte, 0, 16*len(dims))
	for i := 0; i < nnz; i++ {
		key = key[:0]
		for m, d := range dims {
			coords[m] = rng.Uint64() % d
			key = append(key, byte(coords[m]), byte(coords[m]>>8), ',')
		}
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		t.Append(coords, rng.NormFloat64())
	}
	return t
}

// canon round-trips t through its canonical BTNS encoding — the form the
// server stores. Accumulation order follows operand order, so bit-identical
// comparisons against direct contractions must start from the same
// canonical operand bytes the server sees.
func canon(t *testing.T, x *fastcc.Tensor) *fastcc.Tensor {
	t.Helper()
	var buf bytes.Buffer
	if err := fastcc.WriteBTNS(&buf, x); err != nil {
		t.Fatal(err)
	}
	c, err := fastcc.ReadBTNS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newTestServer starts a Server over httptest and returns a client bound to
// the given tenant. Cleanup closes the HTTP listener and then asserts the
// Server's own leak check passes.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, func(tenant string) *Client) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return srv, hs, func(tenant string) *Client {
		return NewClient(hs.URL, tenant, hs.Client())
	}
}

func TestServerRoundTrip(t *testing.T) {
	_, _, client := newTestServer(t, Config{Threads: 2})
	c := client("round-trip")
	ctx := context.Background()

	rng := rand.New(rand.NewSource(101))
	l := canon(t, randTensor(rng, []uint64{30, 25}, 240))
	r := canon(t, randTensor(rng, []uint64{25, 20}, 220))
	// Same thread count as the server: the tile-grid decision depends on
	// it, and a different grid means a different accumulation order.
	want, _, err := fastcc.Contract(l, r, fastcc.Spec{CtrLeft: []int{1}, CtrRight: []int{0}},
		fastcc.WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}

	lh, err := c.Upload(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := c.Upload(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	if lh == rh {
		t.Fatal("distinct tensors hashed identically")
	}

	// Re-uploading the same content is idempotent: same hash, charged once.
	lh2, err := c.Upload(ctx, l.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if lh2 != lh {
		t.Fatalf("same content hashed differently: %s vs %s", lh2, lh)
	}

	resp, err := c.Contract(ctx, &ContractRequest{Left: lh, Right: rh, Expr: "ik,kl->il"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Fetch(ctx, resp.ResultID)
	if err != nil {
		t.Fatal(err)
	}
	if !fastcc.Equal(got, want) {
		t.Fatal("server contraction differs from direct Contract")
	}

	// Warm second run over the same operands reuses the cached shards.
	resp2, err := c.Contract(ctx, &ContractRequest{Left: lh, Right: rh, Expr: "ik,kl->il"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.ShardReused {
		t.Error("second identical contraction did not report a shard-cache hit")
	}

	// Spec form (explicit mode lists) agrees with the einsum form.
	resp3, err := c.Contract(ctx, &ContractRequest{Left: lh, Right: rh, CtrLeft: []int{1}, CtrRight: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	got3, err := c.Fetch(ctx, resp3.ResultID)
	if err != nil {
		t.Fatal(err)
	}
	if !fastcc.Equal(got3, want) {
		t.Fatal("spec-form contraction differs from einsum form")
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Operands != 2 || st.Results != 3 {
		t.Fatalf("stats report %d operands / %d results, want 2 / 3", st.Operands, st.Results)
	}
	if st.UploadedBytes == 0 {
		t.Fatal("stats report zero uploaded bytes for an uploading tenant")
	}

	// Cleanup via the API: results and operand references go away.
	for _, id := range []string{resp.ResultID, resp2.ResultID, resp3.ResultID} {
		if err := c.DeleteResult(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Release(ctx, lh); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(ctx, rh); err != nil {
		t.Fatal(err)
	}
	st, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Operands != 0 || st.Results != 0 || st.UploadedBytes != 0 {
		t.Fatalf("after cleanup: %d operands / %d results / %d uploaded bytes, want zeros",
			st.Operands, st.Results, st.UploadedBytes)
	}
}

// TestServerCloseRestoresDefaultBudget pins the budget hand-back: New sets
// the process shard-cache budget from Config.CacheBudget and Close puts the
// default back, so library work later in the process is not squeezed by a
// closed server's budget. Under a 1-byte budget the first eagerly built
// shard would be evicted as soon as the second is inserted.
func TestServerCloseRestoresDefaultBudget(t *testing.T) {
	srv, err := New(Config{Threads: 2, CacheBudget: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rng := rand.New(rand.NewSource(131))
	l := randTensor(rng, []uint64{30, 25}, 240)
	r := randTensor(rng, []uint64{25, 20}, 220)
	// WithTileSize builds each operand's shard at Preshard time.
	ls, err := fastcc.Preshard(l, []int{1}, fastcc.WithTileSize(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Drop()
	rs, err := fastcc.Preshard(r, []int{0}, fastcc.WithTileSize(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Drop()
	if !ls.Warm() || !rs.Warm() {
		t.Fatalf("after Close: warm left=%v right=%v, want both resident under the default budget", ls.Warm(), rs.Warm())
	}
}

// TestServerCloseSwitchesSpillOff pins the spill-tier hand-back: New
// switches the disk tier on for Config.SpillDir and Close switches it off,
// so library work later in the process evicts to nowhere instead of into a
// closed server's directory. The 1-byte budget evicts the first eagerly
// built shard as soon as the second is inserted.
func TestServerCloseSwitchesSpillOff(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Threads: 2, SpillDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	fastcc.SetShardBudget(1)
	defer fastcc.SetShardBudget(0)
	rng := rand.New(rand.NewSource(137))
	for _, x := range []*fastcc.Tensor{randTensor(rng, []uint64{30, 25}, 240), randTensor(rng, []uint64{30, 20}, 220)} {
		sh, err := fastcc.Preshard(x, []int{0}, fastcc.WithTileSize(8, 8))
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Drop()
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("library eviction after Close wrote %d file(s) into the closed server's spill dir", len(files))
	}
}

// TestServerStatsCreatesNoTenantState: only a registered operand makes a
// tenant known to the server. Requests that register nothing — here 200
// stats reads under fresh tenant IDs, with a tenant quota configured so a
// known tenant would also open a cache account — leave the server's tenant
// set and the process's tenant ledger as they were.
func TestServerStatsCreatesNoTenantState(t *testing.T) {
	srv, _, client := newTestServer(t, Config{Threads: 1, TenantQuota: 1 << 20})
	ctx := context.Background()
	before := len(fastcc.AllTenantCacheStats())
	for i := 0; i < 200; i++ {
		if _, err := client(fmt.Sprintf("stats-probe-%d", i)).Stats(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if after := len(fastcc.AllTenantCacheStats()); after != before {
		t.Fatalf("200 stats requests took the tenant ledger from %d to %d accounts", before, after)
	}
	srv.mu.Lock()
	known := len(srv.tenants)
	srv.mu.Unlock()
	if known != 0 {
		t.Fatalf("server records %d tenants after requests that registered nothing", known)
	}
}

// TestServerStatsShowsOnlyOwnTenant: GET /v1/stats reports the calling
// tenant's own cache account and never names another tenant, just as the
// registry refuses to let content hashes be discovered across tenants.
func TestServerStatsShowsOnlyOwnTenant(t *testing.T) {
	_, _, client := newTestServer(t, Config{Threads: 1, TenantQuota: 1 << 20})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(139))
	l := randTensor(rng, []uint64{12, 10}, 60)
	r := randTensor(rng, []uint64{10, 8}, 50)
	tenants := []string{"stats-alpha", "stats-beta"}
	for _, id := range tenants {
		c := client(id)
		lh, err := c.Upload(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		rh, err := c.Upload(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Contract(ctx, &ContractRequest{Left: lh, Right: rh, Expr: "ik,kl->il"}); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range tenants {
		other := tenants[1-i]
		st, err := client(id).Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Tenant.ID != id || st.Tenant.QuotaBytes != 1<<20 || st.Tenant.Hits+st.Tenant.Misses == 0 {
			t.Fatalf("%s: stats report tenant %+v, want its own account with quota and fetches", id, st.Tenant)
		}
		body, err := client(id).do(ctx, http.MethodGet, "/v1/stats", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(body)
		body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(raw), other) {
			t.Fatalf("%s's stats name tenant %s: %s", id, other, raw)
		}
	}
}

// apiErrorCode extracts the server's error envelope code, failing the test
// on any other error shape.
func apiErrorCode(t *testing.T, err error) (status int, code string) {
	t.Helper()
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error %v (%T) is not an *APIError", err, err)
	}
	return ae.Status, ae.Code
}

func TestServerErrorPaths(t *testing.T) {
	_, hs, client := newTestServer(t, Config{Threads: 1})
	c := client("errors-tenant")
	ctx := context.Background()

	rng := rand.New(rand.NewSource(103))
	l := randTensor(rng, []uint64{10, 8}, 40)
	r := randTensor(rng, []uint64{8, 6}, 30)
	lh, err := c.Upload(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := c.Upload(ctx, r)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad expression", func(t *testing.T) {
		_, err := c.Contract(ctx, &ContractRequest{Left: lh, Right: rh, Expr: "ik,kl"})
		if s, code := apiErrorCode(t, err); s != 400 || code != "bad_expr" {
			t.Fatalf("got %d %s, want 400 bad_expr", s, code)
		}
	})
	t.Run("bad spec", func(t *testing.T) {
		_, err := c.Contract(ctx, &ContractRequest{Left: lh, Right: rh, CtrLeft: []int{7}, CtrRight: []int{0}})
		if s, code := apiErrorCode(t, err); s != 400 || code != "bad_spec" {
			t.Fatalf("got %d %s, want 400 bad_spec", s, code)
		}
	})
	t.Run("expr and spec together", func(t *testing.T) {
		_, err := c.Contract(ctx, &ContractRequest{Left: lh, Right: rh, Expr: "ik,kl->il", CtrLeft: []int{1}, CtrRight: []int{0}})
		if s, code := apiErrorCode(t, err); s != 400 || code != "bad_spec" {
			t.Fatalf("got %d %s, want 400 bad_spec", s, code)
		}
	})
	t.Run("shape mismatch", func(t *testing.T) {
		// Contract the external modes against each other: extents 10 vs 6.
		_, err := c.Contract(ctx, &ContractRequest{Left: lh, Right: rh, CtrLeft: []int{0}, CtrRight: []int{1}})
		if s, code := apiErrorCode(t, err); s != 400 || code != "shape_mismatch" {
			t.Fatalf("got %d %s, want 400 shape_mismatch", s, code)
		}
	})
	t.Run("unknown operand hash", func(t *testing.T) {
		_, err := c.Contract(ctx, &ContractRequest{Left: strings.Repeat("0", 64), Right: rh, Expr: "ik,kl->il"})
		if s, code := apiErrorCode(t, err); s != 404 || code != "unknown_operand" {
			t.Fatalf("got %d %s, want 404 unknown_operand", s, code)
		}
	})
	t.Run("cross-tenant operand is invisible", func(t *testing.T) {
		other := client("errors-other")
		_, err := other.Contract(ctx, &ContractRequest{Left: lh, Right: rh, Expr: "ik,kl->il"})
		if s, code := apiErrorCode(t, err); s != 404 || code != "unknown_operand" {
			t.Fatalf("got %d %s, want 404 unknown_operand", s, code)
		}
	})
	t.Run("unknown result", func(t *testing.T) {
		_, err := c.Fetch(ctx, "r-nope")
		if s, code := apiErrorCode(t, err); s != 404 || code != "unknown_result" {
			t.Fatalf("got %d %s, want 404 unknown_result", s, code)
		}
	})
	t.Run("cross-tenant result is invisible", func(t *testing.T) {
		resp, err := c.Contract(ctx, &ContractRequest{Left: lh, Right: rh, Expr: "ik,kl->il"})
		if err != nil {
			t.Fatal(err)
		}
		other := client("errors-other")
		if _, err := other.Fetch(ctx, resp.ResultID); err == nil {
			t.Fatal("another tenant fetched a foreign result")
		} else if s, code := apiErrorCode(t, err); s != 404 || code != "unknown_result" {
			t.Fatalf("got %d %s, want 404 unknown_result", s, code)
		}
	})
	t.Run("missing tenant header", func(t *testing.T) {
		anon := NewClient(hs.URL, "", hs.Client())
		_, err := anon.Stats(ctx)
		if s, code := apiErrorCode(t, err); s != 400 || code != "bad_option" {
			t.Fatalf("got %d %s, want 400 bad_option", s, code)
		}
	})
	t.Run("invalid tenant header", func(t *testing.T) {
		for _, id := range []string{strings.Repeat("x", 129), "a b"} {
			_, err := NewClient(hs.URL, id, hs.Client()).Stats(ctx)
			if s, code := apiErrorCode(t, err); s != 400 || code != "bad_option" {
				t.Fatalf("tenant %q: got %d %s, want 400 bad_option", id, s, code)
			}
		}
		// net/http neither sends nor parses a DEL byte in a header value,
		// so that case goes to the handler directly.
		req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
		req.Header.Set(TenantHeader, "a\x7fb")
		rec := httptest.NewRecorder()
		hs.Config.Handler.ServeHTTP(rec, req)
		var body errorBody
		if err := json.NewDecoder(rec.Body).Decode(&body); err != nil || rec.Code != 400 || body.Error.Code != "bad_option" {
			t.Fatalf("DEL byte: got %d %+v (%v), want 400 bad_option", rec.Code, body, err)
		}
		if _, err := NewClient(hs.URL, strings.Repeat("x", 128), hs.Client()).Stats(ctx); err != nil {
			t.Fatalf("128-byte tenant ID rejected: %v", err)
		}
	})
	t.Run("garbage upload body", func(t *testing.T) {
		rc, err := c.do(ctx, "POST", "/v1/operands", "application/octet-stream", bytes.NewReader([]byte("not a tensor")))
		if err == nil {
			rc.Close()
			t.Fatal("garbage body accepted")
		}
		if s, code := apiErrorCode(t, err); s != 400 || code != "bad_spec" {
			t.Fatalf("got %d %s, want 400 bad_spec", s, code)
		}
	})
}

func TestServerUploadQuota(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	big := randTensor(rng, []uint64{50, 50}, 400)
	quota := estimateBytes(big) + 100 // room for one big tensor, not two

	_, _, client := newTestServer(t, Config{UploadQuota: quota})
	c := client("quota-tenant")
	ctx := context.Background()

	if _, err := c.Upload(ctx, big); err != nil {
		t.Fatal(err)
	}
	big2 := randTensor(rng, []uint64{50, 50}, 400)
	_, err := c.Upload(ctx, big2)
	if s, code := apiErrorCode(t, err); s != 429 || code != "over_upload_quota" {
		t.Fatalf("second upload: got %d %s, want 429 over_upload_quota", s, code)
	}

	// Another tenant has its own quota — the same content registers fine,
	// dedup'd against the stored copy.
	c2 := client("quota-other")
	if _, err := c2.Upload(ctx, big.Clone()); err != nil {
		t.Fatalf("dedup'd upload by a fresh tenant: %v", err)
	}

	// Releasing frees the quota for the first tenant.
	h, err := ContentHash(big)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release(ctx, h); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Upload(ctx, big2); err != nil {
		t.Fatalf("upload after release: %v", err)
	}
}

func TestServerQueueFullAndTimeout(t *testing.T) {
	srv, _, client := newTestServer(t, Config{
		Threads: 1, Inflight: 1, Queue: -1, Timeout: 100 * time.Millisecond,
	})
	c := client("queue-tenant")
	ctx := context.Background()

	rng := rand.New(rand.NewSource(109))
	l := randTensor(rng, []uint64{10, 8}, 40)
	r := randTensor(rng, []uint64{8, 6}, 30)
	lh, err := c.Upload(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := c.Upload(ctx, r)
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the only in-flight slot directly; with Queue=0 the next
	// contraction is rejected immediately.
	release, err := srv.adm.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer release() // idempotent; keeps a t.Fatal above from deadlocking Drain
	_, err = c.Contract(ctx, &ContractRequest{Left: lh, Right: rh, Expr: "ik,kl->il"})
	if s, code := apiErrorCode(t, err); s != 429 || code != "queue_full" {
		t.Fatalf("saturated server: got %d %s, want 429 queue_full", s, code)
	}
	release()

	if _, err := c.Contract(ctx, &ContractRequest{Left: lh, Right: rh, Expr: "ik,kl->il"}); err != nil {
		t.Fatalf("contraction after release: %v", err)
	}
}

func TestServerDeadlineMidQueue(t *testing.T) {
	srv, _, client := newTestServer(t, Config{
		Threads: 1, Inflight: 1, Queue: 4, Timeout: 80 * time.Millisecond,
	})
	c := client("deadline-tenant")
	ctx := context.Background()

	rng := rand.New(rand.NewSource(113))
	l := randTensor(rng, []uint64{10, 8}, 40)
	r := randTensor(rng, []uint64{8, 6}, 30)
	lh, err := c.Upload(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := c.Upload(ctx, r)
	if err != nil {
		t.Fatal(err)
	}

	// Hold the slot past the server's per-request timeout: the queued
	// request is evicted with 504 while the client is still waiting.
	release, err := srv.adm.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	_, err = c.Contract(ctx, &ContractRequest{Left: lh, Right: rh, Expr: "ik,kl->il"})
	if s, code := apiErrorCode(t, err); s != 504 || code != "deadline_exceeded" {
		t.Fatalf("queued past deadline: got %d %s, want 504 deadline_exceeded", s, code)
	}
}

func TestServerClientCancelMidQueue(t *testing.T) {
	srv, _, client := newTestServer(t, Config{Threads: 1, Inflight: 1, Queue: 4})
	c := client("cancel-tenant")
	ctx := context.Background()

	rng := rand.New(rand.NewSource(127))
	l := randTensor(rng, []uint64{10, 8}, 40)
	r := randTensor(rng, []uint64{8, 6}, 30)
	lh, err := c.Upload(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := c.Upload(ctx, r)
	if err != nil {
		t.Fatal(err)
	}

	release, err := srv.adm.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	// The client hangs up while queued; its own context error surfaces and
	// the server's queue drains back to empty.
	cctx, cancel := context.WithCancel(ctx)
	errs := make(chan error, 1)
	go func() {
		_, err := c.Contract(cctx, &ContractRequest{Left: lh, Right: rh, Expr: "ik,kl->il"})
		errs <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for srv.adm.Queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errs:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled client: err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled client call did not return")
	}
	for srv.adm.Queued() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue did not drain: %d still queued", srv.adm.Queued())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestContentHashGolden pins the content hash of a fixed tensor: unsorted,
// with a duplicate coordinate, a first key of zero and multi-byte key
// deltas. Keep-mode spill files are named by content hash, so an encoding
// that changed these bytes would orphan a previous daemon's spill images.
func TestContentHashGolden(t *testing.T) {
	x := fastcc.NewTensor([]uint64{300, 7, 40}, 6)
	for _, e := range []struct {
		c []uint64
		v float64
	}{
		{[]uint64{299, 6, 39}, 0.1},
		{[]uint64{0, 0, 0}, -2.5},
		{[]uint64{17, 3, 21}, 1e-3},
		{[]uint64{299, 6, 39}, 0.2},
		{[]uint64{150, 0, 1}, 7},
		{[]uint64{16, 6, 39}, -1.0 / 3},
	} {
		x.Append(e.c, e.v)
	}
	h, err := ContentHash(x)
	if err != nil {
		t.Fatal(err)
	}
	if want := "b588a4031b147cd2309e46bed365553a49ca40b6302d0bc53715f41011fb21ab"; h != want {
		t.Fatalf("ContentHash = %s, want %s", h, want)
	}
}

// TestServerRejectsOverstatedCount posts 26 bytes that declare 2^36
// elements of a 2^31 × 2^31 tensor behind a valid CRC trailer. The decoder
// must refuse the count before allocating for it, and the server must go
// on serving.
func TestServerRejectsOverstatedCount(t *testing.T) {
	_, _, client := newTestServer(t, Config{Threads: 1})
	c := client("count-tenant")
	ctx := context.Background()

	body := append([]byte("BTNS"), 1, 2)
	body = binary.AppendUvarint(body, 1<<31)
	body = binary.AppendUvarint(body, 1<<31)
	body = binary.AppendUvarint(body, 1<<36)
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	rc, err := c.do(ctx, http.MethodPost, "/v1/operands", "application/octet-stream", bytes.NewReader(body))
	if err == nil {
		rc.Close()
		t.Fatal("overstated count accepted")
	}
	if s, code := apiErrorCode(t, err); s != 400 || code != "bad_spec" {
		t.Fatalf("got %d %s, want 400 bad_spec", s, code)
	}

	rng := rand.New(rand.NewSource(113))
	lh, err := c.Upload(ctx, randTensor(rng, []uint64{10, 8}, 40))
	if err != nil {
		t.Fatal(err)
	}
	rh, err := c.Upload(ctx, randTensor(rng, []uint64{8, 6}, 30))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Contract(ctx, &ContractRequest{Left: lh, Right: rh, Expr: "ik,kl->il"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fetch(ctx, resp.ResultID); err != nil {
		t.Fatal(err)
	}
}
