package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/matrix"
)

// Cluster is the persistent distributed runtime behind every multiplication,
// solve and sweep: rank goroutines, compute teams, communicators and halo
// buffers are brought up once by NewCluster and stay resident until Close.
// Between submissions the rank goroutines block on a job queue, so
// sequential solves and benchmark sweeps reuse the same runtime instead of
// paying the world + team spawn per call — the paper's long-running
// application shape (exact diagonalization, CG), where threads and
// communicators persist across thousands of spMVM iterations.
//
// The cluster drives only the ranks its World owns locally. On the default
// ChanTransport that is every rank; on a multi-process transport (tcpmpi)
// each OS process holds its own Cluster over the same plan and drives its
// own rank subset, so submissions are SPMD across processes: every process
// must submit the same sequence of jobs (Mul, Run, Convert) for the
// cross-rank collectives inside them to line up.
//
// Jobs (Mul, Run, Convert's refresh) are serialized: a second submission
// queues until the current one drains. Live reconfiguration between jobs
// goes through SetMode and Convert. A Cluster must be closed to release its
// worker teams; Close is idempotent.
//
// Because submissions hold the cluster's lock until the job drains, a job
// body must not call back into Mul, Run, SetMode, Convert or Close — doing
// so self-deadlocks. Mode is the exception: it is lock-free and safe from
// inside a body.
type Cluster struct {
	plan    *Plan
	threads int
	world   World

	localRanks []int     // the ranks this process drives, ascending
	workers    []*Worker // parallel to localRanks
	jobs       []chan *job
	done       sync.WaitGroup // rank-goroutine exit

	mode atomic.Int32 // current Mode; lock-free so job bodies may read it

	mu     sync.Mutex // serializes submissions and reconfiguration
	closed bool
	failed error // first job failure; the world is poisoned, rebuild to recover

	// The resident Mul job: one reusable job whose body reads mulArgs, so a
	// steady-state Mul on a warm cluster allocates nothing — no per-call
	// closure, job object or error slice. mulArgs is written under mu before
	// submission and read by the rank goroutines during the job (the job
	// queue's channel handoff orders the accesses).
	mulJob  *job
	mulArgs struct {
		y, x  []float64
		iters int
		mode  Mode
	}
}

// job is one SPMD submission: every local rank runs body on its resident
// Worker. Body errors and recovered panics are collected per rank.
type job struct {
	body func(*Worker) error
	wg   sync.WaitGroup
	errs []error // per-local-rank failures
}

// Option configures a Cluster at construction.
type Option func(*clusterConfig)

type clusterConfig struct {
	mode      Mode
	threads   int
	format    matrix.FormatBuilder
	transport Transport
	ctx       context.Context
}

// WithMode selects the kernel mode multiplications run in (default
// VectorNoOverlap); SetMode changes it later without rebuilding.
func WithMode(m Mode) Option { return func(c *clusterConfig) { c.mode = m } }

// WithThreads sets the compute-team size per rank (default 1) — the paper's
// "worker threads"; in task mode the rank's own goroutine plays the
// dedicated communication thread on top of them.
func WithThreads(n int) Option { return func(c *clusterConfig) { c.threads = n } }

// WithFormat converts the plan's local matrices to the builder's storage
// scheme (e.g. formats.SELLBuilder) before the workers spin up — equivalent
// to Plan.ConvertFormat followed by NewCluster.
func WithFormat(b matrix.FormatBuilder) Option { return func(c *clusterConfig) { c.format = b } }

// WithTransport substitutes the message-passing backend (default
// ChanTransport, the in-process chanmpi runtime).
func WithTransport(t Transport) Option { return func(c *clusterConfig) { c.transport = t } }

// WithDialContext bounds the transport's world bring-up: a multi-process
// Dial blocks until every peer has joined, and the context's deadline or
// cancellation aborts the wait. Default context.Background().
func WithDialContext(ctx context.Context) Option { return func(c *clusterConfig) { c.ctx = ctx } }

// NewCluster validates the plan and options once, dials the transport, and
// spins up one resident rank goroutine (with Worker, compute team and halo
// buffers) per LOCAL rank of the dialed world — every rank on the default
// chan transport, this process's subset on a multi-process one. All misuse
// that the deprecated shims still panic on — pattern-only plan, threads < 1,
// half-converted plan, unknown mode — surfaces here as an error.
func NewCluster(plan *Plan, opts ...Option) (*Cluster, error) {
	if plan == nil || plan.Part == nil {
		return nil, fmt.Errorf("core: NewCluster needs a non-nil plan")
	}
	cfg := clusterConfig{mode: VectorNoOverlap, threads: 1, transport: ChanTransport{}, ctx: context.Background()}
	for _, opt := range opts {
		opt(&cfg)
	}
	if !cfg.mode.valid() {
		return nil, fmt.Errorf("core: unknown mode %v", cfg.mode)
	}
	if cfg.threads < 1 {
		// Checked before WithFormat runs: construction must fail without
		// the durable side effect of converting the caller's plan.
		return nil, fmt.Errorf("core: threads %d < 1", cfg.threads)
	}
	if cfg.format != nil {
		if err := plan.ConvertFormat(cfg.format); err != nil {
			return nil, err
		}
	}
	ranks := plan.Part.NumRanks()
	world, err := cfg.transport.Dial(cfg.ctx, ranks)
	if err != nil {
		return nil, err
	}
	if world.Size() != ranks {
		world.Close()
		return nil, fmt.Errorf("core: transport dialed a %d-rank world, plan has %d", world.Size(), ranks)
	}
	local := append([]int(nil), world.LocalRanks()...)
	if err := validLocalRanks(local, ranks); err != nil {
		world.Close()
		return nil, err
	}

	c := &Cluster{
		plan:       plan,
		threads:    cfg.threads,
		world:      world,
		localRanks: local,
		workers:    make([]*Worker, len(local)),
		jobs:       make([]chan *job, len(local)),
	}
	c.mode.Store(int32(cfg.mode))
	for i, r := range local {
		comm, err := world.Comm(r)
		if err == nil && comm.Rank() != r {
			err = fmt.Errorf("core: world handed rank %d a communicator for rank %d", r, comm.Rank())
		}
		var w *Worker
		if err == nil {
			w, err = newWorker(plan.Ranks[r], comm, cfg.threads)
		}
		if err != nil {
			for _, built := range c.workers[:i] {
				built.Team.Close()
			}
			world.Close()
			return nil, err
		}
		c.workers[i] = w
		c.jobs[i] = make(chan *job)
	}
	c.mulJob = &job{errs: make([]error, len(local)), body: func(w *Worker) error {
		a := &c.mulArgs
		rp := w.Plan
		copy(w.X[:rp.NLocal], a.x[rp.Rows.Lo:rp.Rows.Hi])
		for it := 0; it < a.iters; it++ {
			if err := w.Step(a.mode); err != nil {
				return err
			}
			if it < a.iters-1 {
				// Next iteration multiplies the previous result.
				copy(w.X[:rp.NLocal], w.Y)
			}
		}
		copy(a.y[rp.Rows.Lo:rp.Rows.Hi], w.Y)
		return nil
	}}
	for i := range local {
		c.done.Add(1)
		go c.rankLoop(i)
	}
	return c, nil
}

// rankLoop is the resident rank goroutine: block on the job queue, run each
// job on this rank's Worker, release the team on shutdown. In task mode this
// goroutine doubles as the dedicated communication thread (it sits inside
// Waitall while the team computes).
func (c *Cluster) rankLoop(i int) {
	defer c.done.Done()
	w := c.workers[i]
	defer w.Team.Close()
	for j := range c.jobs[i] {
		c.runJob(j, i, w)
	}
}

// runJob executes one job body on one rank, recording its error and
// converting a panic into a recorded per-rank failure so the submitter can
// report it as an error. A failure immediately fails the world
// (MPI_ERRORS_ARE_FATAL): peers blocked on a collective or receive this
// rank abandoned wake with a *WorldError instead of wedging the job
// forever — on a multi-process transport the teardown reaches the peer
// processes too.
func (c *Cluster) runJob(j *job, i int, w *Worker) {
	defer j.wg.Done()
	rank := c.localRanks[i]
	defer func() {
		if p := recover(); p != nil {
			j.errs[i] = fmt.Errorf("core: rank %d panicked: %v", rank, p)
		}
		if j.errs[i] != nil {
			c.world.Fail(j.errs[i])
		}
	}()
	if err := j.body(w); err != nil {
		j.errs[i] = fmt.Errorf("core: rank %d: %w", rank, err)
	}
}

// Ranks returns the total number of message-passing ranks in the world,
// including ranks driven by peer processes.
func (c *Cluster) Ranks() int { return c.plan.Part.NumRanks() }

// LocalRanks returns the ranks this cluster drives, ascending — all of them
// on the default chan transport, this process's subset on a multi-process
// one.
func (c *Cluster) LocalRanks() []int { return append([]int(nil), c.localRanks...) }

// Rows returns the global matrix dimension.
func (c *Cluster) Rows() int { return c.plan.Part.Rows() }

// Plan returns the communication plan the cluster executes. Mutating it
// while jobs run is a race; use Convert for live format changes.
func (c *Cluster) Plan() *Plan { return c.plan }

// Mode returns the kernel mode multiplications currently run in. It is
// lock-free, so — unlike every other Cluster method — it may be called from
// inside a Run job body.
func (c *Cluster) Mode() Mode { return Mode(c.mode.Load()) }

// Failed returns the error of the job that poisoned the cluster's world,
// or nil while the cluster is healthy. Session pools (internal/serve) use
// it to decide whether a resident cluster can take further work without
// paying a probe job. It takes the cluster lock, so — like every method
// except Mode — it must not be called from inside a job body.
func (c *Cluster) Failed() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

// SetMode switches the kernel mode for subsequent multiplications, without
// touching the resident runtime. It takes effect after in-flight jobs drain.
func (c *Cluster) SetMode(m Mode) error {
	if !m.valid() {
		return fmt.Errorf("core: unknown mode %v", m)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("core: SetMode on closed cluster")
	}
	c.mode.Store(int32(m))
	return nil
}

// Convert switches the plan's local matrices to the builder's storage scheme
// between jobs (see Plan.ConvertFormat) and refreshes every resident
// worker's kernels and chunking. The refresh rides the job queue, so it is
// ordered after any in-flight job.
func (c *Cluster) Convert(b matrix.FormatBuilder) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("core: Convert on closed cluster")
	}
	if c.failed != nil {
		// Checked before ConvertFormat runs: a refused Convert must not
		// have the durable side effect of converting the caller's plan
		// while the resident workers are never refreshed.
		return fmt.Errorf("core: cluster failed by an earlier job (%v); close and rebuild", c.failed)
	}
	if err := c.plan.ConvertFormat(b); err != nil {
		return err
	}
	return c.submitLocked(func(w *Worker) error { w.refresh(); return nil })
}

// Run executes body once per local rank on the resident Workers — the SPMD
// entry point entire iterative algorithms (CG, Lanczos, …) run on. body
// runs concurrently on all local ranks; cross-rank coordination goes
// through w.Comm. Run returns after every local rank's body has finished.
//
// A body error or panic on any rank is fatal to the world, as an MPI error
// is to an MPI job: the failing rank's error poisons the world, peers
// blocked on a collective or receive it abandoned wake with a *WorldError
// instead of wedging, Run returns the primary cause, and the cluster
// refuses further submissions (Close and rebuild to recover). A condition
// an algorithm detects in lockstep on every rank (e.g. CG breakdown on a
// globally reduced scalar) should therefore be recorded out-of-band and
// returned after Run, not through the body error. body must not call back
// into Mul, Run, SetMode, Convert or Close (self-deadlock); Mode is safe.
func (c *Cluster) Run(body func(w *Worker) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("core: Run on closed cluster")
	}
	return c.submitLocked(body)
}

// submitLocked broadcasts one ephemeral job body to every local rank queue
// and waits for it to drain. Caller holds c.mu.
func (c *Cluster) submitLocked(body func(w *Worker) error) error {
	return c.submitJobLocked(&job{body: body, errs: make([]error, len(c.workers))})
}

// submitJobLocked runs one (possibly reused) job on every local rank —
// refusing outright on a cluster a previous job already failed — and
// returns its primary failure: the first rank error in rank order that is
// not a secondary *WorldError report of a failure that originated
// elsewhere. A failure marks the cluster failed, since the world is
// poisoned. Caller holds c.mu and guarantees j.errs is clean.
func (c *Cluster) submitJobLocked(j *job) error {
	if c.failed != nil {
		return fmt.Errorf("core: cluster failed by an earlier job (%v); close and rebuild", c.failed)
	}
	j.wg.Add(len(c.workers))
	for _, q := range c.jobs {
		q <- j
	}
	j.wg.Wait()
	var first error
	for _, err := range j.errs {
		if err == nil {
			continue
		}
		var we *WorldError
		if !errors.As(err, &we) {
			first = err
			break
		}
		if first == nil {
			first = err
		}
	}
	if first != nil {
		c.failed = first
	}
	return first
}

// Mul runs iters distributed multiplications y = A^iters·x in the cluster's
// current mode and gathers the result rows of the LOCAL ranks into y. x and
// y are global vectors of length Rows; they may alias. On an all-local
// world y is the complete global result; on a multi-process world each
// process obtains the rows its ranks own (every process must call Mul with
// the same x for the halo exchanges to agree).
func (c *Cluster) Mul(y, x []float64, iters int) error {
	rows := c.plan.Part.Rows()
	if len(x) != rows || len(y) != rows {
		return fmt.Errorf("core: Mul dimension mismatch (matrix %d rows, len(x)=%d, len(y)=%d)", rows, len(x), len(y))
	}
	if iters < 1 {
		return fmt.Errorf("core: Mul needs iters ≥ 1, got %d", iters)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("core: Mul on closed cluster")
	}
	return c.mulLocked(y, x, iters)
}

// mulLocked dispatches the resident Mul job. Caller holds c.mu.
func (c *Cluster) mulLocked(y, x []float64, iters int) error {
	// Steady-state path: the resident Mul job is reused across calls, so a
	// multiplication on a warm cluster performs zero allocations.
	c.mulArgs.y, c.mulArgs.x, c.mulArgs.iters, c.mulArgs.mode = y, x, iters, c.Mode()
	for i := range c.mulJob.errs {
		c.mulJob.errs[i] = nil
	}
	err := c.submitJobLocked(c.mulJob)
	c.mulArgs.y, c.mulArgs.x = nil, nil // don't pin the caller's vectors
	return err
}

// MulContext is Mul with an end-to-end deadline: the context's expiry or
// cancellation abandons the multiplication instead of letting it run (or
// queue) forever, surfacing a typed *DeadlineError.
//
// Two regimes, distinguished by when the context dies:
//
//   - Before dispatch — the deadline passed while the request waited for
//     the cluster (e.g. queued behind a long job on the submission lock).
//     The job never starts, the world is NEVER touched, and the cluster
//     stays healthy for the next submission: the non-poisoning fast
//     reject of a request that is already too late.
//   - Mid-job — the context fires while ranks are inside the job. The
//     interrupt hook (Cluster.Interrupt, the same path a supervisor's
//     cancellation takes) closes the world, the blocked ranks unwedge,
//     and MulContext returns a *DeadlineError. The world is poisoned as
//     by any interrupt; a Supervisor rebuilds it on the next epoch, but
//     the DeadlineError itself is non-recoverable — re-running expired
//     work would just miss the deadline again.
//
// Like Mul, MulContext takes the cluster lock and therefore must not be
// called from inside a job body.
func (c *Cluster) MulContext(ctx context.Context, y, x []float64, iters int) error {
	rows := c.plan.Part.Rows()
	if len(x) != rows || len(y) != rows {
		return fmt.Errorf("core: Mul dimension mismatch (matrix %d rows, len(x)=%d, len(y)=%d)", rows, len(x), len(y))
	}
	if iters < 1 {
		return fmt.Errorf("core: Mul needs iters ≥ 1, got %d", iters)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("core: Mul on closed cluster")
	}
	if err := ctx.Err(); err != nil {
		return &DeadlineError{Op: "Mul", Err: err}
	}
	stop := context.AfterFunc(ctx, c.Interrupt)
	err := c.mulLocked(y, x, iters)
	stop()
	if err != nil && ctx.Err() != nil {
		return &DeadlineError{Op: "Mul", Err: ctx.Err()}
	}
	return err
}

// RunContext is Run with an end-to-end deadline: the context's expiry or
// cancellation abandons the job instead of letting it run (or queue)
// forever, surfacing a typed *DeadlineError. The two regimes of MulContext
// apply unchanged: a context already dead before dispatch rejects the job
// without touching the world (the cluster stays healthy), while a context
// firing mid-job closes the world through Cluster.Interrupt — poisoned as
// by any interrupt, rebuilt by the next supervised epoch, but the
// DeadlineError itself is final for the request.
//
// Like Run, RunContext takes the cluster lock and therefore must not be
// called from inside a job body.
func (c *Cluster) RunContext(ctx context.Context, body func(w *Worker) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("core: Run on closed cluster")
	}
	if err := ctx.Err(); err != nil {
		return &DeadlineError{Op: "Run", Err: err}
	}
	stop := context.AfterFunc(ctx, c.Interrupt)
	err := c.submitLocked(body)
	stop()
	if err != nil && ctx.Err() != nil {
		return &DeadlineError{Op: "Run", Err: ctx.Err()}
	}
	return err
}

// Interrupt aborts any in-flight job by closing the transport's world —
// the graceful-departure path: on the TCP backend the BYE announcement is
// flushed to every peer, then the local world fails with its closed-world
// error, unwedging every rank blocked in a collective or receive so the
// job returns with a *WorldError. Unlike Close it takes no lock and does
// not wait for the rank goroutines, so it is safe to call concurrently
// with a running job — it is how a SIGTERM handler or a supervisor's
// context cancellation stops a resident solve. The cluster is failed
// afterwards; Close it and rebuild to continue.
func (c *Cluster) Interrupt() { c.world.Close() }

// Close shuts the rank goroutines down, releases the compute teams, and
// closes the transport's world (sockets, peer goroutines). Close is
// idempotent and safe after partial use; jobs submitted after Close fail
// with an error.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	for _, q := range c.jobs {
		close(q)
	}
	c.mu.Unlock()
	c.done.Wait()
	return c.world.Close()
}
