// Package serve is the multi-tenant SpMV service layer over the resident
// distributed runtime: a Registry of named matrices (loaded once,
// partitioned, converted to the session format, evicted under a byte
// budget), a pool of warm core.Clusters per matrix (lazy spin-up,
// core.Supervisor-wrapped so a failed world restarts transparently),
// per-tenant FIFO queues with admission control (bounded queue depth →
// fast 429-style rejection), and a dispatcher that batches compatible
// requests onto a warm cluster so the steady state stays on the
// zero-allocation resident path.
//
// The serving guarantee is the runtime's bit-reproducibility contract
// lifted to the wire: a multiply or solve request is a pure function of
// (matrix spec, partition geometry, mode, format, input seed), so every
// served response can be verified bit-identical against an independently
// built reference — the load generator (RunLoad) does exactly that for
// every response it receives.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/solver"
)

// Op selects the request operation.
type Op int

const (
	// OpMul is y = A^iters · x on the matrix's warm cluster.
	OpMul Op = iota
	// OpSolve is a distributed CG solve A·x = b (the matrix must be SPD
	// for CG to converge; a breakdown surfaces as a request error).
	OpSolve
)

func (o Op) String() string {
	switch o {
	case OpMul:
		return "mul"
	case OpSolve:
		return "solve"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Config sizes the server. Zero values select the documented defaults.
type Config struct {
	// Ranks and Threads are the geometry of every pooled cluster: ranks
	// per world, compute threads per rank (defaults 4 and 1).
	Ranks   int
	Threads int
	// Mode is the default kernel mode for registered matrices (a register
	// request may override it per matrix).
	Mode core.Mode
	// Format is the default storage format builder (nil = CSR); a
	// register request may override it per matrix. Conversion happens
	// once at registration, so pooled sessions share the converted plan.
	Format matrix.FormatBuilder
	// QueueDepth bounds each tenant's FIFO; an admission beyond it is
	// rejected immediately with a *RejectError (default 64).
	QueueDepth int
	// InflightCap bounds how many of a tenant's requests may be
	// dispatched-but-unfinished at once; beyond it the tenant's queue
	// simply waits (default 16).
	InflightCap int
	// BatchMax bounds how many requests ride one dispatch batch onto a
	// warm cluster (default 8).
	BatchMax int
	// Sessions bounds the resident clusters per matrix; sessions spin up
	// lazily as load arrives (default 2).
	Sessions int
	// ByteBudget bounds the registry's resident matrix bytes (plan
	// estimate, see core.Plan.Bytes); registration beyond it evicts
	// least-recently-used idle matrices, or fails if none can go
	// (0 = unlimited).
	ByteBudget int64
	// MaxAttempts bounds how many worlds one request may be tried on
	// before its failure is surfaced to the caller (default 2: the
	// original attempt plus one transparent retry after a world failure).
	MaxAttempts int
	// MaxRestarts is each session supervisor's restart budget per
	// recovery episode (default 3).
	MaxRestarts int
	// Transport, when non-nil, supplies the transport factory for a
	// matrix's pool — the fault-injection hook (nil epochs fall back to
	// the in-process chan transport).
	Transport func(matrixName string) func(epoch int) core.Transport

	// RetryBudget is each tenant's transparent-retry token bucket. A
	// world failure consumes one token to re-run the request on a fresh
	// epoch; a completed request restores one (capacity RetryBudget). An
	// empty bucket fails requests on their first world failure instead of
	// retrying, so a tenant whose traffic keeps poisoning worlds cannot
	// burn unbounded epochs (default 8).
	RetryBudget int
	// BreakerThreshold opens a matrix pool's circuit breaker after that
	// many consecutive supervisor give-ups; an open breaker fail-fasts
	// admissions with a *BreakerError (HTTP 503) instead of queueing onto
	// a pool that keeps losing worlds (default 2).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before letting
	// a single half-open probe through; the probe's fate decides between
	// closing the breaker and another cooldown (default 250ms).
	BreakerCooldown time.Duration
	// BrownoutHigh and BrownoutLow are the total-queued watermarks of
	// brown-out mode: when the server-wide queue depth holds at or above
	// High for BrownoutAfter, the lowest-priority queued requests are
	// shed with a *ShedError (HTTP 503) until depth falls to Low — a
	// deliberate partial outage instead of timing every request out.
	// Defaults: 2×QueueDepth and QueueDepth/2.
	BrownoutHigh int
	BrownoutLow  int
	// BrownoutAfter is how long overload must persist before shedding
	// begins — a burst shorter than this rides the queues (default 100ms).
	BrownoutAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 4
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.InflightCap <= 0 {
		c.InflightCap = 16
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 8
	}
	if c.Sessions <= 0 {
		c.Sessions = 2
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 2
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 3
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 8
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 2
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 250 * time.Millisecond
	}
	if c.BrownoutHigh <= 0 {
		c.BrownoutHigh = 2 * c.QueueDepth
	}
	if c.BrownoutLow <= 0 {
		c.BrownoutLow = c.QueueDepth / 2
	}
	if c.BrownoutAfter <= 0 {
		c.BrownoutAfter = 100 * time.Millisecond
	}
	return c
}

// ErrClosed reports a request against a server that has shut down.
var ErrClosed = errors.New("serve: server closed")

// ErrDraining reports an admission during graceful drain: the server is
// finishing queued and in-flight work but accepts nothing new. The HTTP
// layer maps it to 503.
var ErrDraining = errors.New("serve: server draining (no new admissions)")

// BreakerError is a fail-fast rejection from a matrix pool's circuit
// breaker: the pool's supervisors kept giving up, so admissions are
// refused until a cooldown elapses and a half-open probe succeeds. The
// HTTP layer maps it to 503.
type BreakerError struct {
	Matrix string
	State  string // "open" or "half-open"
}

func (e *BreakerError) Error() string {
	return fmt.Sprintf("serve: matrix %q circuit breaker %s (pool keeps losing worlds); retry later", e.Matrix, e.State)
}

// ShedError reports a queued request shed by brown-out mode: the server
// held at its overload watermark long enough that the lowest-priority
// queued work was dropped to keep the rest inside its latency budget.
// The HTTP layer maps it to 503.
type ShedError struct {
	Tenant   string
	Priority int
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("serve: request from tenant %q (priority %d) shed under sustained overload; retry later", e.Tenant, e.Priority)
}

// RejectError is a fast admission rejection: the tenant's queue is at its
// configured depth. The HTTP layer maps it to 429 Too Many Requests.
type RejectError struct {
	Tenant string
	Depth  int
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("serve: tenant %q queue full (depth %d); retry later", e.Tenant, e.Depth)
}

// UnknownMatrixError reports a request naming an unregistered (or
// evicted) matrix. The HTTP layer maps it to 404.
type UnknownMatrixError struct{ Name string }

func (e *UnknownMatrixError) Error() string {
	return fmt.Sprintf("serve: unknown matrix %q (register it first)", e.Name)
}

// ValidationError reports malformed request parameters. The HTTP layer
// maps it to 400.
type ValidationError struct{ Msg string }

func (e *ValidationError) Error() string { return "serve: " + e.Msg }

// Request is one tenant operation against a registered matrix. The
// exported fields are the wire-level parameters; everything needed to
// dispatch, retry and complete the request lives in unexported runtime
// state, so a Request must not be reused across Do calls.
type Request struct {
	Tenant string
	Matrix string
	Op     Op
	// Seed derives the input vector when X is nil — the shared
	// deterministic generator FillVector, so a verifying client can
	// rebuild the exact input from the wire-level seed.
	Seed int64
	// X is the explicit input (mul RHS, solve right-hand side b); nil
	// generates it from Seed.
	X []float64
	// Iters is the mul iteration count (default 1).
	Iters int
	// Tol and MaxIter configure a solve (defaults 1e-8 and 500).
	Tol     float64
	MaxIter int
	// DeadlineMs, when positive, is the request's end-to-end budget in
	// milliseconds from admission. A request still queued at expiry is
	// failed without ever touching a cluster; one already executing is
	// abandoned through the cluster's interrupt path. Both surface a
	// *core.DeadlineError (HTTP 504), final for this request — it is
	// never retried, though batch-mates of a mid-job expiry are.
	DeadlineMs int64
	// Priority orders requests under brown-out shedding: when sustained
	// overload forces the server to drop queued work, lower priorities go
	// first (default 0; higher is more important).
	Priority int

	// runtime state (owned by the server once admitted)
	ent        *entry
	tn         *tenant
	x, y       []float64
	done       chan struct{}
	err        error
	finished   bool
	attempts   int
	queuedNs   int64
	deadlineNs int64 // absolute; 0 means no deadline
	startedNs  int64
	finishedNs int64
	solveRes   solver.CGResult

	// xPooled and yPooled are set when x and y came from Server.vecs (the
	// HTTP handler's binary ops); see Server.recycle.
	xPooled, yPooled *[]float64
}

// Response carries a completed request's results and timing.
type Response struct {
	// Y is the mul result y = A^iters·x, or the solve solution x.
	Y []float64 `json:"y"`
	// Iterations, Residual and Converged are set for solves.
	Iterations int     `json:"iterations,omitempty"`
	Residual   float64 `json:"residual,omitempty"`
	Converged  bool    `json:"converged,omitempty"`
	// Attempts counts the worlds this request ran on (>1 means a world
	// failure was recovered transparently).
	Attempts int `json:"attempts"`
	// QueueNs and ExecNs split the request's latency into time waiting
	// for dispatch and time on the cluster (batch-mates included).
	QueueNs int64 `json:"queue_ns"`
	ExecNs  int64 `json:"exec_ns"`
}

// Server is the multi-tenant serving runtime: registry, tenant queues,
// dispatcher and session pools. Create with NewServer, serve with Do (or
// the HTTP Handler), shut down with Close.
type Server struct {
	cfg  Config
	reg  *registry
	vecs vecPool

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	tenants  map[string]*tenant
	order    []*tenant
	rr       int
	pools    []*pool
	dirty    bool
	paused   bool // test hook: freeze the dispatcher
	closed   bool
	draining bool

	// brown-out state (under mu): total queued across all tenants, when
	// the high watermark was first crossed, and a grow-once scratch for
	// the shed pass.
	queuedTotal     int
	overloadSinceNs int64
	shedScratch     []*Request

	dispatchDone chan struct{}

	startNs uint64
	// global counters (under mu)
	accepted, rejected, completed, failed, retried uint64
	batches, batchedReqs, restarts                 uint64
	shed, deadlined                                uint64
}

// NewServer builds a serving runtime and starts its dispatcher.
func NewServer(cfg Config) *Server {
	s := &Server{
		cfg:          cfg.withDefaults(),
		tenants:      make(map[string]*tenant),
		dispatchDone: make(chan struct{}),
		startNs:      uint64(time.Now().UnixNano()),
	}
	s.cond = sync.NewCond(&s.mu)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.reg = newRegistry(s)
	go s.dispatchLoop()
	return s
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Register loads/generates the named matrix, partitions it into the
// server's cluster geometry, converts it to the session's storage format,
// and readies a session pool — evicting idle matrices if the byte budget
// requires. Registering the same name with the same spec is idempotent.
func (s *Server) Register(name string, spec Spec) (MatrixInfo, error) {
	return s.reg.register(name, spec, s.cfg.Mode, s.cfg.Format)
}

// RegisterWith is Register with per-matrix mode and format overrides.
func (s *Server) RegisterWith(name string, spec Spec, mode core.Mode, format matrix.FormatBuilder) (MatrixInfo, error) {
	if format == nil {
		format = s.cfg.Format
	}
	return s.reg.register(name, spec, mode, format)
}

// Matrix returns the registered matrix's info.
func (s *Server) Matrix(name string) (MatrixInfo, error) {
	ent, err := s.reg.pin(name)
	if err != nil {
		return MatrixInfo{}, err
	}
	defer s.reg.unpin(ent)
	return ent.info, nil
}

// Do validates, admits, dispatches and waits out one request. Admission
// failures (unknown matrix, malformed parameters, full tenant queue)
// return immediately; an admitted request blocks until its batch has run
// on a warm cluster (transparently retried on a fresh world after a world
// failure, up to Config.MaxAttempts).
func (s *Server) Do(req *Request) (*Response, error) {
	if err := s.prepare(req); err != nil {
		return nil, err
	}
	if err := s.admit(req); err != nil {
		s.reg.unpin(req.ent)
		return nil, err
	}
	<-req.done
	s.reg.unpin(req.ent)
	if req.err != nil {
		return nil, req.err
	}
	resp := &Response{
		Y:        req.y,
		Attempts: req.attempts,
		QueueNs:  req.startedNs - req.queuedNs,
		ExecNs:   req.finishedNs - req.startedNs,
	}
	if req.Op == OpSolve {
		resp.Iterations = req.solveRes.Iterations
		resp.Residual = req.solveRes.Residual
		resp.Converged = req.solveRes.Converged
	}
	return resp, nil
}

// validate checks the request's own parameters and fills in their
// defaults — everything prepare can decide without looking the matrix up.
// It is idempotent: the binary wire calls it before it sizes the input
// vector, and prepare calls it again.
func (req *Request) validate() error {
	if req.Tenant == "" {
		return &ValidationError{Msg: "request needs a tenant"}
	}
	if req.Matrix == "" {
		return &ValidationError{Msg: "request needs a matrix name"}
	}
	switch req.Op {
	case OpMul:
		if req.Iters == 0 {
			req.Iters = 1
		}
		if req.Iters < 1 {
			return &ValidationError{Msg: fmt.Sprintf("mul needs iters ≥ 1, got %d", req.Iters)}
		}
	case OpSolve:
		if req.Tol == 0 {
			req.Tol = 1e-8
		}
		if req.MaxIter == 0 {
			req.MaxIter = 500
		}
		if req.Tol <= 0 || req.MaxIter < 1 {
			return &ValidationError{Msg: fmt.Sprintf("solve needs tol > 0 and maxiter ≥ 1, got tol=%g maxiter=%d", req.Tol, req.MaxIter)}
		}
	default:
		return &ValidationError{Msg: fmt.Sprintf("unknown op %d", int(req.Op))}
	}
	if req.DeadlineMs < 0 {
		return &ValidationError{Msg: fmt.Sprintf("deadline must be ≥ 0 ms, got %d", req.DeadlineMs)}
	}
	return nil
}

// inputLengthError is the rejection of an explicit input whose length is
// not the matrix's row count.
func inputLengthError(n int, matrix string, rows int) error {
	return &ValidationError{Msg: fmt.Sprintf("input length %d, matrix %q has %d rows", n, matrix, rows)}
}

// prepare validates the request, pins its matrix against eviction, and
// materializes the input and result buffers.
func (s *Server) prepare(req *Request) error {
	if err := req.validate(); err != nil {
		return err
	}
	ent, err := s.reg.pin(req.Matrix)
	if err != nil {
		return err
	}
	rows := ent.info.Rows
	if req.X != nil && len(req.X) != rows {
		s.reg.unpin(ent)
		return inputLengthError(len(req.X), req.Matrix, rows)
	}
	req.ent = ent
	req.x = req.X
	if req.x == nil {
		req.x = make([]float64, rows)
		FillVector(req.x, req.Seed)
	}
	if req.xPooled != nil {
		req.yPooled = s.vecs.get(rows)
		req.y = *req.yPooled
	} else {
		req.y = make([]float64, rows)
	}
	req.done = make(chan struct{})
	req.finished = false
	req.err = nil
	req.attempts = 0
	return nil
}

// admit appends the request to its tenant's FIFO — or rejects immediately
// when the server is draining, the matrix's circuit breaker is open, or
// the queue is at depth — and wakes the dispatcher. Admission is also
// where the request's deadline is armed and where sustained overload is
// re-evaluated (each arriving request gives brown-out a clock edge even
// when nothing is completing).
func (s *Server) admit(req *Request) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.draining {
		return ErrDraining
	}
	now := time.Now().UnixNano()
	t := s.tenants[req.Tenant]
	if t == nil {
		t = newTenant(req.Tenant, s.cfg.QueueDepth, s.cfg.RetryBudget)
		s.tenants[req.Tenant] = t
		s.order = append(s.order, t)
	}
	// Queue capacity before the breaker, so a queue-full rejection can
	// never consume the breaker's half-open probe slot.
	if t.q.n == len(t.q.buf) {
		t.rejected++
		s.rejected++
		return &RejectError{Tenant: req.Tenant, Depth: s.cfg.QueueDepth}
	}
	if err := req.ent.pool.breakerAdmit(now); err != nil {
		return err
	}
	t.q.push(req)
	req.tn = t
	req.queuedNs = now
	if req.DeadlineMs > 0 {
		req.deadlineNs = now + req.DeadlineMs*int64(time.Millisecond)
	} else {
		req.deadlineNs = 0
	}
	t.accepted++
	s.accepted++
	s.queuedTotal++
	s.checkBrownout(now)
	s.dirty = true
	s.cond.Broadcast()
	return nil
}

// checkBrownout tracks how long the server has held at or above the high
// watermark and sheds once the overload is sustained. Caller holds s.mu.
func (s *Server) checkBrownout(nowNs int64) {
	if s.queuedTotal < s.cfg.BrownoutHigh {
		s.overloadSinceNs = 0
		return
	}
	if s.overloadSinceNs == 0 {
		s.overloadSinceNs = nowNs
		return
	}
	if nowNs-s.overloadSinceNs >= int64(s.cfg.BrownoutAfter) {
		s.shedLowest(nowNs)
	}
}

// shedLowest drops queued requests — lowest priority first, newest first
// within a priority — until the total backlog is back at the low
// watermark. Shed requests fail with *ShedError; requests already
// dispatched are never shed. Caller holds s.mu.
func (s *Server) shedLowest(nowNs int64) {
	sc := s.shedScratch[:0]
	for _, t := range s.order {
		for i := 0; i < t.q.n; i++ {
			sc = append(sc, t.q.buf[(t.q.head+i)%len(t.q.buf)])
		}
	}
	sort.Slice(sc, func(i, j int) bool {
		if sc[i].Priority != sc[j].Priority {
			return sc[i].Priority < sc[j].Priority
		}
		return sc[i].queuedNs > sc[j].queuedNs
	})
	for _, r := range sc {
		if s.queuedTotal <= s.cfg.BrownoutLow {
			break
		}
		r.err = &ShedError{Tenant: r.Tenant, Priority: r.Priority}
		r.startedNs = nowNs
		r.finishedNs = nowNs
		r.finished = true
		r.tn.shed++
		s.shed++
		s.queuedTotal--
	}
	// Compact every ring around the shed requests and release their
	// callers. FIFO order of the survivors is preserved.
	for _, t := range s.order {
		for i, n := 0, t.q.n; i < n; i++ {
			r := t.q.pop()
			if r.finished {
				close(r.done)
				continue
			}
			t.q.push(r)
		}
	}
	s.shedScratch = sc[:0]
	if s.queuedTotal < s.cfg.BrownoutHigh {
		s.overloadSinceNs = 0
	}
}

// dispatchLoop is the single dispatcher goroutine: it sleeps until
// admission or batch completion marks work available, then drains tenant
// queues into batches and flushes them onto warm sessions.
func (s *Server) dispatchLoop() {
	defer close(s.dispatchDone)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for (!s.dirty || s.paused) && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			return
		}
		s.dirty = false
		s.checkBrownout(time.Now().UnixNano())
		s.drain()
		s.flushOpen()
	}
}

// drain is the dispatcher's steady-state request loop: round-robin over
// the tenants (the starting tenant rotates per round, so no tenant owns
// the head of the line), popping at most one request per tenant per round
// into its matrix's open batch, until no tenant can make progress —
// queue empty, in-flight cap reached, or the matrix's batches all full.
// Every structure it touches is preallocated (rings, batch freelists), so
// a steady-state dispatch allocates nothing. Caller holds s.mu.
//
//repro:noalloc
func (s *Server) drain() {
	n := len(s.order)
	if n == 0 {
		return
	}
	for {
		progress := false
		for k := 0; k < n; k++ {
			t := s.order[(s.rr+k)%n]
			if t.q.n == 0 || t.inflight >= s.cfg.InflightCap {
				continue
			}
			r := t.q.peek()
			if !r.ent.pool.offer(r) {
				continue
			}
			t.q.pop()
			s.queuedTotal--
			t.inflight++
			progress = true
		}
		s.rr++
		if !progress {
			return
		}
	}
}

// flushOpen hands every non-empty open batch to a warm session (spinning
// one up lazily below the pool's cap). A batch no session can take stays
// open and is retried when a session completes. Caller holds s.mu.
//
//repro:noalloc
func (s *Server) flushOpen() {
	for _, p := range s.pools {
		b := p.open
		if b == nil || b.n == 0 {
			continue
		}
		if p.trySend(b) {
			p.open = nil
		}
	}
}

// noteRestart counts a session supervisor's recovery decision.
func (s *Server) noteRestart() {
	s.mu.Lock()
	s.restarts++
	s.mu.Unlock()
}

// noteDeadline counts a request failed by its deadline.
func (s *Server) noteDeadline() {
	s.mu.Lock()
	s.deadlined++
	s.mu.Unlock()
}

// takeRetryToken consumes one of the tenant's transparent-retry tokens,
// reporting false when the bucket is empty (the request must fail rather
// than burn another epoch).
func (s *Server) takeRetryToken(t *tenant) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.retryTokens <= 0 {
		return false
	}
	t.retryTokens--
	return true
}

// Drain puts the server into graceful-drain mode: every subsequent
// admission fails fast with ErrDraining while queued and in-flight work
// runs to completion. It blocks until the server is quiet or ctx
// expires, returning ctx's error in the latter case; either way the
// server stays in drain mode until Close.
func (s *Server) Drain(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	for ctx.Err() == nil && !s.closed && !s.quietLocked() {
		s.cond.Wait()
	}
	return ctx.Err()
}

// quietLocked reports whether no request is queued or in flight.
func (s *Server) quietLocked() bool {
	if s.queuedTotal > 0 {
		return false
	}
	for _, t := range s.order {
		if t.inflight > 0 {
			return false
		}
	}
	for _, p := range s.pools {
		if b := p.open; b != nil && b.n > 0 {
			return false
		}
	}
	return true
}

// addPool publishes a new matrix's pool to the dispatcher.
func (s *Server) addPool(p *pool) {
	s.mu.Lock()
	s.pools = append(s.pools, p)
	s.mu.Unlock()
}

// removePool retracts an evicted matrix's pool.
func (s *Server) removePool(p *pool) {
	s.mu.Lock()
	for i, q := range s.pools {
		if q == p {
			s.pools = append(s.pools[:i], s.pools[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// pauseDispatch freezes the dispatcher (test hook for admission and
// batching edges); resumeDispatch unfreezes it.
func (s *Server) pauseDispatch() {
	s.mu.Lock()
	s.paused = true
	s.mu.Unlock()
}

func (s *Server) resumeDispatch() {
	s.mu.Lock()
	s.paused = false
	s.dirty = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Close shuts the service down: the dispatcher exits, in-flight epochs
// are interrupted (the supervisor's graceful-departure path), sessions
// drain, and every request still queued or batched fails with ErrClosed.
// Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	pools := append([]*pool(nil), s.pools...)
	s.mu.Unlock()

	<-s.dispatchDone
	s.cancel()
	for _, p := range pools {
		p.shutdown()
	}

	// Final sweep: nothing is running anymore, so whatever is still
	// queued in tenant rings or parked in open batches fails here.
	s.mu.Lock()
	for _, t := range s.order {
		for t.q.n > 0 {
			r := t.q.pop()
			s.queuedTotal--
			r.err = ErrClosed
			r.finished = true
			s.failed++
			t.failed++
			close(r.done)
		}
	}
	for _, p := range s.pools {
		if b := p.open; b != nil {
			for i := 0; i < b.n; i++ {
				r := b.reqs[i]
				r.err = ErrClosed
				r.finished = true
				r.tn.inflight--
				r.tn.failed++
				s.failed++
				close(r.done)
			}
			b.n = 0
			p.open = nil
		}
	}
	s.mu.Unlock()
	return nil
}
