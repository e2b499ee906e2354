package server

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"fastcc"
	"fastcc/internal/gen"
)

// fetchRaw GETs a result's body as bytes, checking that Content-Length
// announces its length.
func fetchRaw(t *testing.T, hs *httptest.Server, tenant, id string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, hs.URL+"/v1/results/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TenantHeader, tenant)
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch %s: status %d: %s", id, resp.StatusCode, body)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("fetch %s: Content-Length %q for a %d-byte body", id, cl, len(body))
	}
	return body
}

// TestServerResultBytes contracts three requests, a random two-operand
// one, caffeine's R-major vv·ov and its ov·ov self-contraction, fetches
// each result's raw body and requires it to be exactly WriteBTNS of
// ContractPrepared's output for the same request. GET /v1/stats must count
// each stored result's bytes in result_bytes, and deleting the results must
// bring it back to zero.
func TestServerResultBytes(t *testing.T) {
	const tenant = "result-bytes"
	_, hs, client := newTestServer(t, Config{Threads: 2})
	c := client(tenant)
	ctx := context.Background()

	rng := rand.New(rand.NewSource(107))
	m := gen.Caffeine.Scaled(0.02)
	vv, ov := canon(t, m.TEvv()), canon(t, m.TEov())
	a, b := canon(t, randTensor(rng, []uint64{30, 25}, 240)), canon(t, randTensor(rng, []uint64{25, 20}, 220))
	reqs := []struct {
		l, r   *fastcc.Tensor
		lm, rm []int
	}{
		{a, b, []int{1}, []int{0}},
		{vv, ov, []int{2}, []int{2}},
		{ov, ov, []int{2}, []int{2}},
	}
	var stored int64
	var ids []string
	for _, q := range reqs {
		lh, err := c.Upload(ctx, q.l)
		if err != nil {
			t.Fatal(err)
		}
		rh, err := c.Upload(ctx, q.r)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Contract(ctx, &ContractRequest{Left: lh, Right: rh, CtrLeft: q.lm, CtrRight: q.rm})
		if err != nil {
			t.Fatal(err)
		}
		body := fetchRaw(t, hs, tenant, resp.ResultID)

		ls, err := fastcc.Preshard(q.l, q.lm)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := fastcc.Preshard(q.r, q.rm)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := fastcc.ContractPrepared(ls, rs, fastcc.WithThreads(2))
		ls.Drop()
		rs.Drop()
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := fastcc.WriteBTNS(&want, out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("%v·%v: fetched %d bytes differ from WriteBTNS's %d", q.l.Dims, q.r.Dims, len(body), want.Len())
		}
		if resp.OutputNNZ != out.NNZ() || resp.TotalNS < resp.ContractNS {
			t.Fatalf("%v·%v: output_nnz %d (want %d), total_ns %d below contract_ns %d", q.l.Dims, q.r.Dims, resp.OutputNNZ, out.NNZ(), resp.TotalNS, resp.ContractNS)
		}

		stored += int64(len(body))
		ids = append(ids, resp.ResultID)
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.ResultBytes != stored {
			t.Fatalf("result_bytes = %d after %d results, want %d", st.ResultBytes, len(ids), stored)
		}
	}
	for _, id := range ids {
		if err := c.DeleteResult(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Results != 0 || st.ResultBytes != 0 {
		t.Fatalf("after delete: %d results, %d result bytes, want zeros", st.Results, st.ResultBytes)
	}
}

// TestServerRejectsUnencodableResult contracts an operand of dims
// (2^33, 8) with itself over mode 1. The 2^33 × 2^33 output has no uint64
// BTNS key, so the contract must answer 400 bad_spec naming the bound and
// store nothing, instead of storing a result whose fetch is an empty 200.
func TestServerRejectsUnencodableResult(t *testing.T) {
	_, _, client := newTestServer(t, Config{Threads: 1})
	c := client("huge-output")
	ctx := context.Background()
	x := fastcc.NewTensor([]uint64{1 << 33, 8}, 2)
	x.Append([]uint64{5, 1}, 1)
	x.Append([]uint64{1<<33 - 1, 1}, 2)
	h, err := c.Upload(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Contract(ctx, &ContractRequest{Left: h, Right: h, CtrLeft: []int{1}, CtrRight: []int{1}})
	if err == nil {
		t.Fatal("contract of an output BTNS cannot carry succeeded")
	}
	if s, code := apiErrorCode(t, err); s != 400 || code != "bad_spec" || !strings.Contains(err.Error(), "uint64") {
		t.Fatalf("got %d %s (%v), want 400 bad_spec naming the uint64 bound", s, code, err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Results != 0 || st.ResultBytes != 0 {
		t.Fatalf("%d results, %d result bytes stored after a rejected contract", st.Results, st.ResultBytes)
	}
}
