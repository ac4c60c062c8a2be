package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func postJSON(t *testing.T, srv *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeError(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("decoding error body: %v", err)
	}
	return eb.Error
}

func TestHTTPEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{Ranks: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp := postJSON(t, srv, "/v1/register", RegisterRequest{Name: "m", Spec: testSpec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register status %d: %s", resp.StatusCode, decodeError(t, resp))
	}
	var info MatrixInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Rows != testSpec.N || info.Ranks != 2 {
		t.Errorf("register info %+v", info)
	}

	resp = postJSON(t, srv, "/v1/mul", OpRequest{Tenant: "a", Matrix: "m", Seed: 3, Iters: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mul status %d: %s", resp.StatusCode, decodeError(t, resp))
	}
	var mul Response
	if err := json.NewDecoder(resp.Body).Decode(&mul); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(mul.Y) != testSpec.N {
		t.Fatalf("mul returned %d rows, want %d", len(mul.Y), testSpec.N)
	}
	ver, err := NewVerifier(testSpec, info)
	if err != nil {
		t.Fatal(err)
	}
	defer ver.Close()
	if err := ver.check(OpMul, 3, 2, 0, 0, mul.Y); err != nil {
		t.Errorf("HTTP mul result not bit-identical: %v", err)
	}

	resp = postJSON(t, srv, "/v1/solve", OpRequest{Tenant: "a", Matrix: "m", Seed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, decodeError(t, resp))
	}
	var solve Response
	json.NewDecoder(resp.Body).Decode(&solve)
	resp.Body.Close()
	if !solve.Converged {
		t.Errorf("solve did not converge: %+v", solve)
	}

	sr, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	json.NewDecoder(sr.Body).Decode(&st)
	sr.Body.Close()
	if st.Completed < 2 {
		t.Errorf("stats completed %d, want ≥ 2", st.Completed)
	}

	mr, err := srv.Client().Get(srv.URL + "/v1/matrix/m")
	if err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	if mr.StatusCode != http.StatusOK {
		t.Errorf("matrix info status %d", mr.StatusCode)
	}
}

// Error mapping: 400 enumerates valid tokens for bad mode/format, 404 for
// unknown matrices, 429 for a full queue.
func TestHTTPErrorMapping(t *testing.T) {
	s := newTestServer(t, Config{Ranks: 2, QueueDepth: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp := postJSON(t, srv, "/v1/register", RegisterRequest{Name: "m", Spec: testSpec, Mode: "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad mode status %d", resp.StatusCode)
	}
	msg := decodeError(t, resp)
	for _, tok := range core.ModeTokens() {
		if !strings.Contains(msg, tok) {
			t.Errorf("400 body %q does not enumerate mode token %q", msg, tok)
		}
	}

	resp = postJSON(t, srv, "/v1/register", RegisterRequest{Name: "m", Spec: testSpec, Format: "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad format status %d", resp.StatusCode)
	}
	msg = decodeError(t, resp)
	for _, tok := range []string{"crs", "csr", "sell-<C>-<sigma>"} {
		if !strings.Contains(msg, tok) {
			t.Errorf("400 body %q does not enumerate format token %q", msg, tok)
		}
	}

	// A chunk height the SELL-C-σ kernel rejects is a bad request, refused
	// before the matrix is generated.
	resp = postJSON(t, srv, "/v1/register", RegisterRequest{Name: "m", Spec: testSpec, Format: "sell-65-256"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sell-65-256 status %d, want 400", resp.StatusCode)
	}
	if msg = decodeError(t, resp); !strings.Contains(msg, "sell-65-256") {
		t.Errorf("400 body %q does not name the format", msg)
	}

	resp = postJSON(t, srv, "/v1/mul", OpRequest{Tenant: "a", Matrix: "ghost"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown matrix status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// Fill the depth-1 queue with the dispatcher frozen; the next request
	// must bounce with 429.
	if _, err := register(s, "m", testSpec); err != nil {
		t.Fatal(err)
	}
	s.pauseDispatch()
	blocked := &Request{Tenant: "t", Matrix: "m", Op: OpMul}
	if err := s.prepare(blocked); err != nil {
		t.Fatal(err)
	}
	if err := s.admit(blocked); err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, srv, "/v1/mul", OpRequest{Tenant: "t", Matrix: "m"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("full queue status %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()
	s.resumeDispatch()
	<-blocked.done
	s.reg.unpin(blocked.ent)
}

// The load generator end to end: a short closed-loop run over HTTP with
// verification on, then an open-loop run. Every response must verify.
func TestRunLoadSmoke(t *testing.T) {
	s := newTestServer(t, Config{Ranks: 2, QueueDepth: 64, Sessions: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	client := &Client{Base: srv.URL, HTTP: srv.Client()}
	res, err := RunLoad(LoadConfig{
		Client: client, Matrix: "m", Spec: testSpec,
		Tenants: 2, Concurrency: 4, Duration: 500 * time.Millisecond,
		MulFraction: 0.9, Seeds: 8, Verify: true,
	})
	if err != nil {
		t.Fatalf("closed-loop RunLoad: %v", err)
	}
	if res.Completed == 0 || res.ReqPerSec <= 0 {
		t.Errorf("no throughput: %+v", res)
	}
	if res.VerifyFailures != 0 {
		t.Errorf("%d verification failures of %d verified", res.VerifyFailures, res.Verified)
	}
	if res.Verified != res.Completed {
		t.Errorf("verified %d of %d completions", res.Verified, res.Completed)
	}
	if res.P50Ms <= 0 || res.P99Ms < res.P50Ms {
		t.Errorf("implausible percentiles: %+v", res)
	}

	open, err := RunLoad(LoadConfig{
		Client: client, Matrix: "m", Spec: testSpec,
		Tenants: 1, Concurrency: 2, Duration: 400 * time.Millisecond,
		OpenRateHz: 200, Seeds: 4, Verify: true,
	})
	if err != nil {
		t.Fatalf("open-loop RunLoad: %v", err)
	}
	if open.Requests == 0 {
		t.Error("open loop issued no requests")
	}
	if open.VerifyFailures != 0 {
		t.Errorf("open loop: %d verification failures", open.VerifyFailures)
	}
}
