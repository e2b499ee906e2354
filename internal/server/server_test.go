package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
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
