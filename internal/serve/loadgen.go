package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/solver"
)

// Client is a thin client for the serving API, shared by the load
// generator (RunLoad), cmd/spmv-load and the benchmark harness. Mul and
// Solve speak the binary encoding (ContentTypeF64); Register and Stats are
// JSON.
type Client struct {
	Base string // e.g. "http://127.0.0.1:8311"
	HTTP *http.Client
}

// send issues one request and returns its 200 response, body open; any
// other status comes back as a *StatusError carrying the server's message.
func (c *Client) send(method, path, ctype string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	hr, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if hr.StatusCode != http.StatusOK {
		defer hr.Body.Close()
		var eb errorBody
		data, _ := io.ReadAll(io.LimitReader(hr.Body, 4096))
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			return nil, &StatusError{Code: hr.StatusCode, Msg: eb.Error}
		}
		return nil, &StatusError{Code: hr.StatusCode, Msg: string(data)}
	}
	return hr, nil
}

// post sends req as JSON and decodes the JSON answer into resp.
func (c *Client) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hr, err := c.send(http.MethodPost, path, ContentTypeJSON, body)
	if err != nil {
		return err
	}
	defer hr.Body.Close()
	return json.NewDecoder(hr.Body).Decode(resp)
}

// op sends req as a binary frame — X as the payload — and decodes the
// frame that answers it.
func (c *Client) op(path string, req OpRequest) (*Response, error) {
	x := req.X
	req.X = nil
	frame, err := appendFrame(nil, &req, x)
	if err != nil {
		return nil, err
	}
	hr, err := c.send(http.MethodPost, path, ContentTypeF64, frame)
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	if ct := hr.Header.Get("Content-Type"); ct != ContentTypeF64 {
		return nil, fmt.Errorf("serve: %s answered a %s request with Content-Type %q", path, ContentTypeF64, ct)
	}
	var resp Response
	resp.Y, err = readFrame(hr.Body, &resp, nil)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// StatusError is a non-200 API response.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string { return fmt.Sprintf("serve: HTTP %d: %s", e.Code, e.Msg) }

// Rejected reports whether the error is an admission rejection (HTTP 429).
func (e *StatusError) Rejected() bool { return e.Code == http.StatusTooManyRequests }

// DeadlineExceeded reports whether the request missed its end-to-end
// deadline (HTTP 504, a *core.DeadlineError server-side).
func (e *StatusError) DeadlineExceeded() bool { return e.Code == http.StatusGatewayTimeout }

// Shed reports whether the server refused the request to protect itself
// (HTTP 503): brown-out shedding, an open circuit breaker, or a
// draining/closed server.
func (e *StatusError) Shed() bool { return e.Code == http.StatusServiceUnavailable }

// Register registers a matrix and returns its geometry.
func (c *Client) Register(req RegisterRequest) (MatrixInfo, error) {
	var info MatrixInfo
	err := c.post("/v1/register", req, &info)
	return info, err
}

// Mul requests y = A^iters·x.
func (c *Client) Mul(req OpRequest) (*Response, error) { return c.op("/v1/mul", req) }

// Solve requests a CG solve.
func (c *Client) Solve(req OpRequest) (*Response, error) { return c.op("/v1/solve", req) }

// Stats fetches the server's counters.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	hr, err := c.send(http.MethodGet, "/v1/stats", "", nil)
	if err != nil {
		return st, err
	}
	defer hr.Body.Close()
	return st, json.NewDecoder(hr.Body).Decode(&st)
}

// Verifier checks served responses bit for bit against an independently
// built reference cluster with the server's exact geometry (same spec,
// partition, mode and storage format — threads don't affect bits, so the
// reference runs single-threaded). Results are memoized per (op, seed,
// parameters), so sweeping a bounded seed set pays each reference
// computation once. Safe for concurrent use; Close releases the cluster.
type Verifier struct {
	mu   sync.Mutex
	cl   *core.Cluster
	rows int
	memo map[verifyKey][]float64
	x, b []float64
}

type verifyKey struct {
	op      Op
	seed    int64
	iters   int
	tol     float64
	maxIter int
}

// NewVerifier builds the reference cluster from the registered matrix's
// spec and reported geometry.
func NewVerifier(spec Spec, info MatrixInfo) (*Verifier, error) {
	src, err := spec.normalize().build()
	if err != nil {
		return nil, err
	}
	mode, err := core.ParseMode(info.Mode)
	if err != nil {
		return nil, err
	}
	var format matrix.FormatBuilder
	if info.Format != "" {
		format, err = core.ParseFormat(info.Format)
		if err != nil {
			return nil, err
		}
	}
	part := core.PartitionByNnz(src, info.Ranks)
	plan, err := core.BuildPlan(src, part, true)
	if err != nil {
		return nil, err
	}
	if format != nil {
		if err := plan.ConvertFormat(format); err != nil {
			return nil, err
		}
	}
	cl, err := core.NewCluster(plan, core.WithMode(mode), core.WithThreads(1))
	if err != nil {
		return nil, err
	}
	return &Verifier{
		cl: cl, rows: info.Rows,
		memo: make(map[verifyKey][]float64),
		x:    make([]float64, info.Rows),
		b:    make([]float64, info.Rows),
	}, nil
}

// Close releases the reference cluster.
func (v *Verifier) Close() error { return v.cl.Close() }

// Expected returns the reference result for a seeded request.
func (v *Verifier) Expected(op Op, seed int64, iters int, tol float64, maxIter int) ([]float64, error) {
	key := verifyKey{op: op, seed: seed, iters: iters, tol: tol, maxIter: maxIter}
	v.mu.Lock()
	defer v.mu.Unlock()
	if y, ok := v.memo[key]; ok {
		return y, nil
	}
	FillVector(v.b, seed)
	y := make([]float64, v.rows)
	switch op {
	case OpMul:
		if err := v.cl.Mul(y, v.b, iters); err != nil {
			return nil, err
		}
	case OpSolve:
		if _, err := solver.DistCG(v.cl, v.b, y, tol, maxIter); err != nil {
			return nil, err
		}
	}
	v.memo[key] = y
	return y, nil
}

// Check compares a served result bit for bit against the reference.
func (v *Verifier) Check(op Op, seed int64, iters int, tol float64, maxIter int, got []float64) error {
	want, err := v.Expected(op, seed, iters, tol, maxIter)
	if err != nil {
		return fmt.Errorf("serve: reference computation: %w", err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("serve: result length %d, reference %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("serve: result differs from reference at row %d: got %x want %x",
				i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	return nil
}

// LoadConfig drives RunLoad: a fixed-duration sweep of concurrent tenants
// against one registered matrix.
type LoadConfig struct {
	Client *Client
	// Matrix and Spec identify (and if needed register) the target.
	Matrix string
	Spec   Spec
	Mode   string // optional registration overrides
	Format string
	// Tenants is the number of distinct tenant identities; Concurrency
	// the number of closed-loop workers (worker i acts as tenant
	// i%Tenants). Defaults 1 and 1.
	Tenants     int
	Concurrency int
	// Duration bounds the run (default 2s).
	Duration time.Duration
	// MulFraction is the share of requests that are multiplications, the
	// rest CG solves (default 1.0 — all mul).
	MulFraction float64
	Iters       int
	Tol         float64
	MaxIter     int
	// Seeds is the cardinality of the request-seed set (default 32):
	// request k uses seed k%Seeds, so verification memoizes at most Seeds
	// reference results per op.
	Seeds int
	// OpenRateHz, when positive, switches to open-loop arrivals at the
	// given rate: requests fire on a fixed clock regardless of
	// completions, up to Concurrency outstanding; arrivals beyond that
	// are counted as Dropped (the offered load exceeded capacity).
	OpenRateHz float64
	// Verify checks every successful response bit for bit against a
	// reference cluster built from Spec.
	Verify bool
	// DeadlineMs, when positive, attaches an end-to-end deadline to every
	// request; misses come back as HTTP 504 and are counted in
	// LoadResult.Deadlined instead of Errors.
	DeadlineMs int64
}

// LoadResult summarizes one load run.
type LoadResult struct {
	Requests  int `json:"requests"`
	Completed int `json:"completed"`
	Rejected  int `json:"rejected"`
	// Deadlined counts HTTP 504 responses (missed end-to-end deadlines);
	// Shed counts HTTP 503 fail-fast refusals (brown-out shedding, open
	// circuit breaker, draining server). Both are the server degrading
	// gracefully, kept apart from hard Errors.
	Deadlined      int     `json:"deadlined,omitempty"`
	Shed           int     `json:"shed,omitempty"`
	Errors         int     `json:"errors"`
	Dropped        int     `json:"dropped,omitempty"`
	Verified       int     `json:"verified"`
	VerifyFailures int     `json:"verify_failures"`
	Retried        int     `json:"retried"`
	DurationSec    float64 `json:"duration_sec"`
	ReqPerSec      float64 `json:"req_per_sec"`
	MeanMs         float64 `json:"mean_ms"`
	P50Ms          float64 `json:"p50_ms"`
	P95Ms          float64 `json:"p95_ms"`
	P99Ms          float64 `json:"p99_ms"`
	MaxMs          float64 `json:"max_ms"`
}

// RunLoad registers the matrix (idempotent) and drives it for the
// configured duration, measuring throughput, latency percentiles,
// rejections — and, with Verify, checking every response bit for bit.
func RunLoad(cfg LoadConfig) (LoadResult, error) {
	if cfg.Client == nil {
		return LoadResult{}, fmt.Errorf("serve: RunLoad needs a Client")
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 1
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.MulFraction == 0 {
		cfg.MulFraction = 1.0
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 1
	}
	if cfg.Tol == 0 {
		cfg.Tol = 1e-8
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 500
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = 32
	}

	info, err := cfg.Client.Register(RegisterRequest{
		Name: cfg.Matrix, Spec: cfg.Spec, Mode: cfg.Mode, Format: cfg.Format,
	})
	if err != nil {
		return LoadResult{}, fmt.Errorf("serve: load register: %w", err)
	}

	var ver *Verifier
	if cfg.Verify {
		ver, err = NewVerifier(cfg.Spec, info)
		if err != nil {
			return LoadResult{}, fmt.Errorf("serve: load verifier: %w", err)
		}
		defer ver.Close()
	}

	var (
		mu        sync.Mutex
		res       LoadResult
		latencies []float64
		seq       atomic.Int64
	)
	deadline := time.Now().Add(cfg.Duration)

	oneRequest := func(worker int) {
		k := seq.Add(1) - 1
		seed := k % int64(cfg.Seeds)
		// Deterministic op mix: hash the request index against the
		// configured fraction.
		h := uint64(k)*0x9e3779b97f4a7c15 + 0x1d8e4e27c47d124f
		h ^= h >> 33
		isMul := float64(h%1000)/1000.0 < cfg.MulFraction
		req := OpRequest{
			Tenant:     fmt.Sprintf("tenant-%d", worker%cfg.Tenants),
			Matrix:     cfg.Matrix,
			Seed:       seed,
			DeadlineMs: cfg.DeadlineMs,
		}
		start := time.Now()
		var resp *Response
		var err error
		op := OpMul
		if isMul {
			req.Iters = cfg.Iters
			resp, err = cfg.Client.Mul(req)
		} else {
			op = OpSolve
			req.Tol = cfg.Tol
			req.MaxIter = cfg.MaxIter
			resp, err = cfg.Client.Solve(req)
		}
		elapsed := time.Since(start).Seconds() * 1000

		var verifyErr error
		if err == nil && ver != nil {
			verifyErr = ver.Check(op, seed, cfg.Iters, cfg.Tol, cfg.MaxIter, resp.Y)
		}

		mu.Lock()
		defer mu.Unlock()
		res.Requests++
		var se *StatusError
		switch {
		case err == nil:
			res.Completed++
			latencies = append(latencies, elapsed)
			if resp.Attempts > 1 {
				res.Retried++
			}
			if ver != nil {
				res.Verified++
				if verifyErr != nil {
					res.VerifyFailures++
				}
			}
		case errors.As(err, &se) && se.Rejected():
			res.Rejected++
		case errors.As(err, &se) && se.DeadlineExceeded():
			res.Deadlined++
		case errors.As(err, &se) && se.Shed():
			res.Shed++
		default:
			res.Errors++
		}
	}

	start := time.Now()
	if cfg.OpenRateHz > 0 {
		runOpenLoop(cfg, deadline, oneRequest, &mu, &res)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < cfg.Concurrency; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					oneRequest(worker)
				}
			}(w)
		}
		wg.Wait()
	}
	res.DurationSec = time.Since(start).Seconds()

	if res.DurationSec > 0 {
		res.ReqPerSec = float64(res.Completed) / res.DurationSec
	}
	sort.Float64s(latencies)
	if n := len(latencies); n > 0 {
		var sum float64
		for _, l := range latencies {
			sum += l
		}
		res.MeanMs = sum / float64(n)
		res.P50Ms = percentile(latencies, 0.50)
		res.P95Ms = percentile(latencies, 0.95)
		res.P99Ms = percentile(latencies, 0.99)
		res.MaxMs = latencies[n-1]
	}
	return res, nil
}

// runOpenLoop fires requests on a fixed clock regardless of completions —
// the offered-load mode: a tick finding Concurrency requests already
// outstanding drops the arrival instead of queueing it client-side, so the
// measured rejection and latency profile reflects the server's admission
// control, not the generator's backlog.
func runOpenLoop(cfg LoadConfig, deadline time.Time, oneRequest func(int), mu *sync.Mutex, res *LoadResult) {
	interval := time.Duration(float64(time.Second) / cfg.OpenRateHz)
	if interval <= 0 {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var wg sync.WaitGroup
	var outstanding atomic.Int64
	worker := 0
	for now := range ticker.C {
		if !now.Before(deadline) {
			break
		}
		if outstanding.Load() >= int64(cfg.Concurrency) {
			mu.Lock()
			res.Dropped++
			mu.Unlock()
			continue
		}
		outstanding.Add(1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer outstanding.Add(-1)
			oneRequest(w)
		}(worker)
		worker++
	}
	wg.Wait()
}

// percentile reads the p-quantile from an ascending sample by
// nearest-rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
