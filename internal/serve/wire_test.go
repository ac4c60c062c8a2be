package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultmpi"
)

func postRaw(t *testing.T, srv *httptest.Server, path, ctype string, body []byte) *http.Response {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+path, ctype, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// mustFrame builds a well-formed frame; the malformed cases cut or patch it.
func mustFrame(t testing.TB, meta any, vec []float64) []byte {
	t.Helper()
	frame, err := appendFrame(nil, meta, vec)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// The same mul and solve, seed-only and with an explicit x, give the same
// answer in process, over JSON and over the binary frame: bit-identical Y
// and equal meta.
func TestWireCodecEquivalence(t *testing.T) {
	s := newTestServer(t, Config{Ranks: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := &Client{Base: srv.URL, HTTP: srv.Client()}
	if _, err := c.Register(RegisterRequest{Name: "m", Spec: testSpec}); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, testSpec.N)
	FillVector(x, 11)

	for _, tc := range []struct {
		name string
		op   Op
		req  OpRequest
	}{
		{"mul/seed", OpMul, OpRequest{Tenant: "a", Matrix: "m", Seed: 5, Iters: 3}},
		{"mul/x", OpMul, OpRequest{Tenant: "a", Matrix: "m", X: x, Iters: 3}},
		{"solve/seed", OpSolve, OpRequest{Tenant: "a", Matrix: "m", Seed: 5}},
		{"solve/x", OpSolve, OpRequest{Tenant: "a", Matrix: "m", X: x, Tol: 1e-10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := "/v1/" + tc.op.String()
			want, err := s.Do(tc.req.request(tc.op))
			if err != nil {
				t.Fatal(err)
			}
			var viaJSON Response
			if err := c.post(path, tc.req, &viaJSON); err != nil {
				t.Fatalf("json: %v", err)
			}
			viaF64, err := c.op(path, tc.req)
			if err != nil {
				t.Fatalf("f64: %v", err)
			}
			for enc, got := range map[string]*Response{"json": &viaJSON, "f64": viaF64} {
				if !sameBits(got.Y, want.Y) {
					t.Errorf("%s: Y differs from the in-process result", enc)
				}
				if got.Iterations != want.Iterations || got.Residual != want.Residual ||
					got.Converged != want.Converged || got.Attempts != want.Attempts {
					t.Errorf("%s: meta (%d, %g, %v, %d), in process (%d, %g, %v, %d)", enc,
						got.Iterations, got.Residual, got.Converged, got.Attempts,
						want.Iterations, want.Residual, want.Converged, want.Attempts)
				}
			}
			if tc.op == OpSolve && !want.Converged {
				t.Error("solve did not converge; the meta comparison is vacuous")
			}
		})
	}
}

// Every malformed frame is a typed 4xx with a JSON error body — never a
// panic, a hang, or an allocation sized by the frame's own claim.
func TestWireMalformedFrames(t *testing.T) {
	s := newTestServer(t, Config{Ranks: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if _, err := register(s, "m", testSpec); err != nil {
		t.Fatal(err)
	}
	rows := testSpec.N
	meta := OpRequest{Tenant: "a", Matrix: "m", Iters: 1}
	good := mustFrame(t, meta, make([]float64, rows))
	seedOnly := mustFrame(t, meta, nil)
	metaLen := int(binary.LittleEndian.Uint32(good))

	// claim patches a seed-only frame's element count without adding a
	// payload: the frame lies about what follows.
	claim := func(n uint32) []byte {
		f := bytes.Clone(seedOnly)
		binary.LittleEndian.PutUint32(f[len(f)-4:], n)
		return f
	}
	withMeta := func(m string, rest ...byte) []byte {
		f := binary.LittleEndian.AppendUint32(nil, uint32(len(m)))
		return append(append(f, m...), rest...)
	}

	for _, tc := range []struct {
		name   string
		ctype  string
		body   []byte
		status int
	}{
		{"empty body", ContentTypeF64, nil, 400},
		{"short header", ContentTypeF64, good[:2], 400},
		{"metaLen over the cap", ContentTypeF64, binary.LittleEndian.AppendUint32(nil, maxMetaLen+1), 400},
		{"truncated meta", ContentTypeF64, good[:4+metaLen/2], 400},
		{"meta not JSON", ContentTypeF64, withMeta("tenant=a", 0, 0, 0, 0), 400},
		{"meta carries x", ContentTypeF64, withMeta(`{"tenant":"a","matrix":"m","x":[1]}`, 0, 0, 0, 0), 400},
		{"no element count", ContentTypeF64, good[:4+metaLen], 400},
		{"truncated payload", ContentTypeF64, good[:len(good)-3], 400},
		{"n != rows", ContentTypeF64, mustFrame(t, meta, make([]float64, rows-1)), 400},
		{"n claims the cap", ContentTypeF64, claim(maxFrameElems), 400},
		{"n over the cap", ContentTypeF64, claim(math.MaxUint32), 400},
		{"trailing byte", ContentTypeF64, append(bytes.Clone(good), 0), 400},
		{"trailing byte, seed only", ContentTypeF64, append(bytes.Clone(seedOnly), 0), 400},
		{"invalid params before the vector", ContentTypeF64, mustFrame(t, OpRequest{Matrix: "m"}, make([]float64, rows)), 400},
		{"unknown matrix", ContentTypeF64, mustFrame(t, OpRequest{Tenant: "a", Matrix: "ghost"}, make([]float64, rows)), 404},
		{"wrong content type", "application/octet-stream", good, 415},
		{"frame sent as JSON", ContentTypeJSON, good, 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			resp := postRaw(t, srv, "/v1/mul", tc.ctype, tc.body)
			runtime.ReadMemStats(&after)
			if resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if ct := resp.Header.Get("Content-Type"); ct != ContentTypeJSON {
				t.Errorf("error Content-Type %q, want JSON", ct)
			}
			if msg := decodeError(t, resp); msg == "" {
				t.Error("empty error message")
			}
			// The largest honest allocation here is one 600-row vector; a
			// frame claiming 8M elements must not be believed.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
				t.Errorf("request allocated %d bytes", grew)
			}
		})
	}

	// The server is still healthy, and the good frames really are good.
	for _, body := range [][]byte{good, seedOnly} {
		resp := postRaw(t, srv, "/v1/mul", ContentTypeF64+"; charset=binary", body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != ContentTypeF64 {
			t.Fatalf("good frame: status %d, Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		var got Response
		y, err := readFrame(resp.Body, &got, nil)
		resp.Body.Close()
		if err != nil || len(y) != rows || got.Attempts != 1 {
			t.Fatalf("good frame: %d rows, attempts %d, err %v", len(y), got.Attempts, err)
		}
	}
}

// The frame of the benchmark's serve-mul-http request is its meta plus 8
// bytes a float: 32 KB of payload where the JSON form (which the harness
// keeps reporting as serve.req_bytes, since it computes that itself with
// json.Marshal) is 76.8 KB.
func TestWireFrameSize(t *testing.T) {
	x := make([]float64, 4000)
	FillVector(x, 1000)
	req := OpRequest{Tenant: "tenant-0", Matrix: "bench-band", Iters: 4}
	meta, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	frame := mustFrame(t, req, x)
	if want := 8 + len(meta) + 8*len(x); len(frame) != want {
		t.Errorf("frame is %d bytes, want %d", len(frame), want)
	}
	if len(meta) > 100 {
		t.Errorf("meta is %d bytes: %s", len(meta), meta)
	}
	req.X = x
	asJSON, _ := json.Marshal(req)
	if len(asJSON) < 2*len(frame) {
		t.Errorf("JSON form is %d bytes, frame %d: expected less than half", len(asJSON), len(frame))
	}
}

// A result with non-finite values is never a 200 with an empty body. JSON
// cannot carry it and says so in a 500 that names the binary encoding; the
// binary frame carries exactly the bits Server.Do returns. A diverged
// solve's NaN residual fits in neither encoding's meta and is a 500 in both.
func TestWireNonFiniteResult(t *testing.T) {
	s := newTestServer(t, Config{Ranks: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := &Client{Base: srv.URL, HTTP: srv.Client()}
	if _, err := c.Register(RegisterRequest{Name: "m", Spec: testSpec}); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, testSpec.N)
	for i := range x {
		x[i] = 1e308
	}
	mul := OpRequest{Tenant: "a", Matrix: "m", X: x, Iters: 8}
	want, err := s.Do(mul.request(OpMul))
	if err != nil {
		t.Fatal(err)
	}
	nonFinite := 0
	for _, v := range want.Y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			nonFinite++
		}
	}
	if nonFinite == 0 {
		t.Fatal("the overflow input produced a finite y; the test is vacuous")
	}

	got, err := c.Mul(mul)
	if err != nil {
		t.Fatalf("f64 mul: %v", err)
	}
	if !sameBits(got.Y, want.Y) {
		t.Error("f64 mul: Y differs from the in-process bits")
	}

	expect500 := func(what string, err error, mention string) {
		t.Helper()
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
			t.Fatalf("%s: got %v, want a 500 StatusError", what, err)
		}
		if !strings.Contains(se.Msg, mention) {
			t.Errorf("%s: message %q does not mention %q", what, se.Msg, mention)
		}
	}
	var viaJSON Response
	expect500("json mul", c.post("/v1/mul", mul, &viaJSON), ContentTypeF64)

	solve := OpRequest{Tenant: "a", Matrix: "m", X: x, MaxIter: 5}
	expect500("json solve", c.post("/v1/solve", solve, &viaJSON), ContentTypeF64)
	_, err = c.solve(solve)
	expect500("f64 solve", err, "NaN")
}

// A body over the cap is a 413 with an error body, not a reset connection.
func TestBodyTooLarge(t *testing.T) {
	s := newTestServer(t, Config{Ranks: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	// JSON skips leading whitespace, so a body of spaces is read to the cap.
	spaces := bytes.Repeat([]byte{' '}, maxBodyBytes+1)
	for _, path := range []string{"/v1/register", "/v1/mul"} {
		resp := postRaw(t, srv, path, ContentTypeJSON, spaces)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, resp.StatusCode)
		}
		if msg := decodeError(t, resp); msg == "" {
			t.Errorf("%s: empty error message", path)
		}
	}
}

// Concurrent clients over recycled vectors: every op's x is decoded into a
// vector an earlier op used and its y is computed in another, and every Y
// must still be the reference's bits. Under -race this also shows that a
// vector goes back to the pool only once nothing else reads or writes it.
func TestVecPoolConcurrentClients(t *testing.T) {
	s := newTestServer(t, Config{Ranks: 2, Sessions: 2, BatchMax: 4, QueueDepth: 64})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	info, err := register(s, "m", testSpec)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	ver, err := NewVerifier(testSpec, info)
	if err != nil {
		t.Fatalf("verifier: %v", err)
	}
	defer ver.Close()

	const clients, perClient = 6, 12
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &Client{Base: srv.URL, HTTP: srv.Client()}
			x := make([]float64, info.Rows)
			for i := 0; i < perClient; i++ {
				seed := int64(w*perClient + i + 1)
				FillVector(x, seed)
				req := OpRequest{Tenant: []string{"a", "b"}[w%2], Matrix: "m", Seed: seed, X: x}
				if i%4 == 3 {
					req.Tol, req.MaxIter = 1e-8, 500
					resp, err := c.solve(req)
					if err != nil {
						t.Errorf("client %d solve %d: %v", w, i, err)
						return
					}
					if err := ver.check(OpSolve, seed, 0, req.Tol, req.MaxIter, resp.Y); err != nil {
						t.Errorf("client %d solve %d: %v", w, i, err)
					}
					continue
				}
				req.Iters = 1 + i%3
				resp, err := c.Mul(req)
				if err != nil {
					t.Errorf("client %d mul %d: %v", w, i, err)
					return
				}
				if err := ver.check(OpMul, seed, req.Iters, 0, 0, resp.Y); err != nil {
					t.Errorf("client %d mul %d: %v", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := s.vecs.puts.Load(), uint64(2*clients*perClient); !t.Failed() && got != want {
		t.Errorf("%d vectors handed back to the pool, want %d (x and y of every answered op)", got, want)
	}
}

// A request that ends in *core.DeadlineError hands nothing back: the world
// it was abandoned on may still be reading its x and writing its y. Neither
// does one that never ran; the next answered op recycles its own two.
func TestVecPoolKeepsVectorsOfFailedOps(t *testing.T) {
	faulty := &faultmpi.Transport{Sched: faultmpi.Schedule{
		Slowdowns: []faultmpi.Slowdown{{
			Src: 1, Dst: 0, Tag: faultmpi.Any,
			Count: 1, Delay: 500 * time.Millisecond,
		}},
	}}
	s := newTestServer(t, Config{
		Ranks: 2, Sessions: 1,
		Transport: func(string) func(int) core.Transport {
			return func(int) core.Transport { return faulty }
		},
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	info, err := register(s, "m", testSpec)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	c := &Client{Base: srv.URL, HTTP: srv.Client()}
	x := make([]float64, info.Rows)
	FillVector(x, 3)

	_, err = c.Mul(OpRequest{Tenant: "a", Matrix: "m", X: x, DeadlineMs: 100})
	var se *StatusError
	if !errors.As(err, &se) || !se.deadlineExceeded() {
		t.Fatalf("mul over the slow link: got %v, want a 504", err)
	}
	if _, err = c.Mul(OpRequest{Tenant: "a", Matrix: "m", X: x, Iters: -1}); err == nil {
		t.Fatal("mul with iters -1 accepted")
	}
	if got := s.vecs.puts.Load(); got != 0 {
		t.Fatalf("%d vectors handed back after a missed deadline and a rejected request, want 0", got)
	}

	resp, err := c.Mul(OpRequest{Tenant: "a", Matrix: "m", Seed: 3, X: x})
	if err != nil {
		t.Fatalf("mul after the gray failure: %v", err)
	}
	ver, err := NewVerifier(testSpec, info)
	if err != nil {
		t.Fatalf("verifier: %v", err)
	}
	defer ver.Close()
	if err := ver.check(OpMul, 3, 1, 0, 0, resp.Y); err != nil {
		t.Error(err)
	}
	if got := s.vecs.puts.Load(); got != 2 {
		t.Errorf("%d vectors handed back after one answered op, want 2", got)
	}
}

// fuzzRows is the row count FuzzReadFrame's check accepts.
const fuzzRows = 8

// FuzzReadFrame feeds arbitrary bytes to the frame decoder with the
// server's kind of check (n is 0 or the row count) and the server's kind of
// destination (a recycled vector still holding an older op's values). It
// must return a typed error or a vector the check allowed, and an accepted
// frame must survive a round trip through appendFrame bit for bit.
func FuzzReadFrame(f *testing.F) {
	meta := OpRequest{Tenant: "a", Matrix: "m", Seed: 3, Iters: 2}
	x := make([]float64, fuzzRows)
	FillVector(x, 1)
	x[0], x[1] = math.NaN(), math.Inf(-1)
	f.Add(mustFrame(f, meta, x)) // the malformed seeds are in testdata/fuzz
	f.Add(mustFrame(f, meta, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		var or OpRequest
		vec, err := readFrame(bytes.NewReader(data), &or, func(n int) ([]float64, error) {
			if n != 0 && n != fuzzRows {
				return nil, inputLengthError(n, or.Matrix, fuzzRows)
			}
			stale := make([]float64, n)
			FillVector(stale, 9)
			return stale, nil
		})
		if err != nil {
			var val *ValidationError
			if !errors.As(err, &val) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if len(vec) != 0 && len(vec) != fuzzRows {
			t.Fatalf("accepted %d elements", len(vec))
		}
		again, err := appendFrame(nil, &or, vec)
		if err != nil {
			t.Skip() // meta within the cap on the way in can re-marshal longer
		}
		var or2 OpRequest
		vec2, err := readFrame(bytes.NewReader(again), &or2, nil)
		if err != nil || !sameBits(vec, vec2) {
			t.Fatalf("round trip: %v", err)
		}
	})
}
