// Package repro is a Go reproduction of "Parallel sparse matrix-vector
// multiplication as a test case for hybrid MPI+OpenMP programming"
// (Schubert, Hager, Fehske, Wellein; arXiv:1101.0091).
//
// The library lives under internal/: the distributed hybrid SpMV kernels
// (internal/core) run for real on an in-process message-passing runtime
// (internal/chanmpi) and are re-enacted, with the paper's MPI progress
// semantics and calibrated ccNUMA/network models, on a discrete-event
// cluster simulator (internal/des, fluid, machine, netmodel, simnet) that
// regenerates every figure of the evaluation. See
// benchmark/README.md for how the repository is measured and the
// README.md under internal/formats, internal/simnet and internal/tcpmpi.
//
// # The session API: core.Cluster
//
// The distributed runtime is session-oriented, mirroring the paper's
// long-running applications (exact diagonalization, CG), where threads,
// communicators and halo buffers persist across thousands of spMVM
// iterations. core.NewCluster(plan, opts...) validates once and brings up
// one resident rank goroutine per plan rank — compute team, communicator
// and halo buffers included — configured through functional options
// (core.WithMode, WithThreads, WithFormat, WithTransport). The session
// then serves any number of jobs until Close:
//
//	cluster, err := core.NewCluster(plan, core.WithMode(core.TaskMode), core.WithThreads(4))
//	defer cluster.Close()
//	err = cluster.Mul(y, x, iters)                // distributed y = A^iters·x
//	err = cluster.Run(func(w *core.Worker) error { // SPMD job on the resident ranks
//		if err := w.Step(mode); err != nil { return err }
//		sum, err := w.Comm.AllreduceScalar(core.OpSum, v)
//		...
//		return nil
//	})
//	err = cluster.SetMode(core.VectorNaiveOverlap)        // live reconfiguration
//	err = cluster.Convert(formats.SELLBuilder{C: 32, Sigma: 256})
//
// Between jobs the rank goroutines block on a job queue, so sequential
// solves and benchmark sweeps reuse the same runtime instead of paying
// world + team spawn per call (BenchmarkClusterReuse measures the gap).
// SetMode switches the kernel organization and Convert swaps the storage
// format in place — results stay bit-identical across both. The solvers
// (solver.DistCG, solver.DistLanczos), the cmd/spmv-bench distributed
// sweep and all examples/ run on one resident Cluster; misuse
// (pattern-only plan, threads < 1, half-converted plan, unknown mode)
// surfaces as errors from NewCluster rather than panics.
//
// # Comm v2: the wire-capable transport contract
//
// core is decoupled from the concrete message-passing runtime by the
// core.Comm interface — error-first end to end, so misuse and transport
// failures surface as errors from the Cluster and solver entry points
// instead of panics (no panic is reachable through the interface). A
// transport dials a core.World that may own only a SUBSET of the ranks:
// core.Transport.Dial(ctx, size) blocks until every participating process
// has joined, World.LocalRanks lists the ranks this process drives, and
// the Cluster spins resident goroutines only for those. The default
// ChanTransport (the in-process chanmpi runtime) owns every rank and
// keeps today's single-process behavior bit-identically; internal/tcpmpi
// is the real multi-process TCP backend — rendezvous by address, rank
// ranges per process, length-prefixed binary frames, and two-level
// collectives: a process's ranks combine in shared memory and one rank per
// process runs a dissemination allgather over the Q processes (⌈log₂Q⌉
// one-way rounds, leader to leader), with canonical rank-order combining
// (see internal/tcpmpi/README.md). Both real-time
// transports match messages in one engine: tcpmpi holds its local ranks in
// a chanmpi range world and files every local send and every wire frame
// into chanmpi's mailboxes, so matching order, buffering, truncation,
// failure and the collectives are one implementation (the point-to-point conformance table,
// TestConformanceP2P in internal/tcpmpi, runs the same cases on both).
// Reductions combine in canonical rank order on every transport, so
// distributed solves are bit-reproducible across runs AND across
// transports: cmd/spmv-worker joins a world by address + rank range, and
// examples/tcp (the CI tcp-smoke job) verifies a two-OS-process DistCG
// bit-identical to the in-process solve.
//
// # Steady-state performance contract
//
// The paper's workloads run thousands of back-to-back spMVM iterations,
// so the runtime guarantees that the RESIDENT iteration path is
// allocation-free: once a Cluster is warm, the following perform zero heap
// allocations per iteration on the chan transport (enforced by the
// TestAllocGate… tests, run as a dedicated CI step):
//
//   - Cluster.Mul in all three kernel modes (hence Worker.Step — halo
//     exchange, kernel passes, and the task-mode rendezvous);
//   - a chanmpi halo exchange over persistent channels, in either
//     post-first or send-first order;
//   - scalar reductions (Comm.AllreduceScalar), i.e. the per-iteration dot
//     products of the solvers;
//   - a solver.DistCG iteration (all per-solve state is preallocated; the
//     same discipline holds for DistLanczos' basis and coefficients).
//
// The machinery behind the guarantee maps onto MPI's persistent
// communication requests: Comm.SendInit/RecvInit bind a (peer, tag,
// buffer) triple once and return a core.PersistentRequest — the analogue
// of MPI_Send_init/MPI_Recv_init — whose Start/Wait cycle reuses one
// resident request object (token-based completion, no per-message channel
// or request allocation). Workers compile their whole halo schedule into
// persistent channels at construction, and compile each kernel pass into a
// restartable spmv.Team region (spmv.Team.Compile/Exec), so a step is pure
// restart loops. In the vector modes the rank goroutine is thread 0 of its
// team (Team.Exec runs chunk 0 on the caller; with one thread per rank a
// step hands nothing to another goroutine). Task mode launches its compiled
// regions on the pool (Team.Start) and Joins after the halo wait — the rank
// goroutine is the resident communication thread; no goroutine is spawned
// per step. On the wire transport, tcpmpi's reader goroutine reads
// arriving frames DIRECTLY into a posted receive's user buffer, claimed
// from chanmpi's mailbox (no intermediate slice; unposted arrivals go
// through the mailbox's recycled carriers, as unmatched local sends do),
// and the collectives run on resident per-communicator scratch.
//
// Two contract changes pay for this: Allreduce/AllgatherInt64 results are
// resident buffers, read-only and valid only until the rank's NEXT
// collective (copy them to retain); and a PersistentRequest requires one
// Wait per Start. cmd/spmv-bench records allocs_per_iter and ns_per_iter
// per kernel in its snapshots (BENCH_5.json onward) and takes
// -cpuprofile/-memprofile flags, so a regression shows up in both the
// alloc gates and the perf trajectory.
//
// # Fault tolerance: heartbeats, checkpoints, epoch restarts
//
// The failure model is fail-stop per world, mirroring an MPI job abort:
// the first failure poisons the world, blocked ranks unwedge with a
// *core.WorldError, and the cause chain carries a *core.PeerError naming
// the suspect rank range and the phase that implicated it (handshake,
// frame read, heartbeat, collective, send). Detection is layered on the
// wire transport: a peer that dies visibly (connection reset, EOF without
// the BYE departure frame) is named immediately by its reader goroutine;
// a peer that falls SILENT — powered off, partitioned, frozen — is caught
// by heartbeats (tcpmpi.Transport.HeartbeatInterval/HeartbeatTimeout:
// idle links carry kindPing frames, and silence past the timeout fails
// the world within a bounded interval); a live process whose rank never
// enters a collective is caught by the collective deadline
// (CollectiveTimeout), which names the leader edge that never delivered
// — its source process's ranks — or the local rank that never entered.
// internal/faultmpi is the matching test instrument: a transport
// decorator that injects deterministic, seeded faults (kill rank r at
// its k-th operation, drop/delay/duplicate matched frames, fail dials)
// so every detection and recovery path is exercised hermetically in-process.
//
// Recovery is epoch-structured. core.Supervisor.Run dials a fresh world
// per epoch, rebuilds the Cluster from the same plan, and hands the
// epoch to the caller's body; when the body dies of a world-level error
// (Recoverable — a WorldError/PeerError in the chain), it re-dials with
// bounded, jittered exponential backoff and runs the next epoch, while
// deterministic errors surface immediately. CG makes epochs resumable:
// DistCGOpt snapshots its complete iteration state into a caller-owned
// checkpoint every k iterations at a collective boundary, and a restore is BIT-IDENTICAL — the snapshot is taken at the
// top-of-iteration boundary and restores the ITERATED residual rather
// than recomputing b−A·x, and every derived scalar comes from the
// canonical-rank-order reductions, so the resumed trajectory (iterates,
// residual history, MVM count) is exactly the uninterrupted one.
// internal/ckpt makes snapshots durable (atomic tmp+rename files with a
// CRC, one per process row-span) and, after a crash, Agree picks the
// newest iteration ALL processes hold via a min-reduction.
// cmd/spmv-worker wires the whole stack behind flags (-heartbeat,
// -coll-timeout, -rejoin, -ckpt-every, -ckpt-dir), departs gracefully on
// SIGINT/SIGTERM (BYE flushed, so peers see a departure, not a crash),
// and offers -kill-at-ckpt for chaos drills; examples/tcp -chaos and the
// CI chaos job SIGKILL a real worker process mid-solve and require the
// recovered two-process answer bit-identical to the uninterrupted one
// (TestSIGKILLedWorkerRecoversBitIdentical).
//
// The checkpoint cadence k trades snapshot bandwidth against recovery
// time, and both sides are bandwidth terms of the paper's cost model: a
// CG snapshot streams three local vectors (x, r, p — pure local memory
// and disk traffic, no communication), while recovery re-executes up to k
// iterations, each paying the full spMVM data volume of Eq. 1 (matrix +
// vector traffic, the memory-bandwidth bound) plus the halo transfer and
// — in the overlap modes — the Eq. 2 write-twice penalty. Since the
// snapshot moves O(3·N_local) doubles and a re-executed iteration moves
// the whole matrix (N_nzr ≫ 3 nonzeros per row in the paper's matrices),
// checkpointing every k ≳ 10 iterations keeps the steady-state overhead
// marginal while bounding recovery to k iterations of re-execution;
// BENCH_6.json records the measured heartbeat overhead and
// time-to-recover next to the kernel numbers (the resilience machinery —
// heartbeats enabled, checkpoints at that cadence — costs <5% steady
// state, and the alloc gates still hold with heartbeats on).
//
// # Gray failures: deadlines, slow-peer suspicion, overload grace
//
// Fail-stop is only half the failure model: a GRAY failure — a rank that
// is alive but slow, a link that stalls without dropping, a service
// that is up but drowning — never trips the fail-stop detectors, so the
// runtime bounds it in time instead. Cluster.MulContext and
// Cluster.RunContext attach a context to a job; when its deadline
// expires (or it is cancelled), Cluster.Interrupt poisons the in-flight
// world so every blocked rank unwedges, and the job returns a typed
// *core.DeadlineError. The contract is three-sided: a DeadlineError is
// NOT Recoverable — the supervisor must not burn restart epochs
// re-running work that timed out deterministically — it is FINAL for
// the request that carried the deadline, and it still poisons the world
// it interrupted, so batch-mates sharing that world are world-failed
// (Recoverable) and retried on the next epoch. DistCGOpt takes the same
// option (solver.CGOptions.Context), checked at the top-of-iteration
// collective boundary so a timed-out solve still leaves a bit-identical
// resumable checkpoint. Below the
// job layer, tcpmpi runs slow-peer SUSPICION next to the heartbeat
// detectors: per-peer EWMA round-trip tracking flags a peer whose
// acknowledgements fall persistently behind as a *core.PeerError with
// phase "slow" — suspicion names the lagging rank range for operators
// and deadline attribution, but never fails the world by itself (a slow
// rank is not a dead rank; only silence past HeartbeatTimeout is).
// internal/faultmpi injects the matching gray faults deterministically
// (Slowdowns delay the k-th matched frame, Stalls freeze a link without
// closing it), and internal/simnet runs the same drills in virtual time
// at 1024+ ranks, where time-to-detect is measured exactly rather than
// slept for.
//
// The serving layer turns those primitives into overload grace.
// Requests carry an end-to-end deadline from admission: one already
// expired in its tenant queue fails with a DeadlineError (HTTP 504)
// without ever dispatching — it cannot poison a cluster — and one that
// expires mid-job interrupts only its own batch, with batch-mates
// retried under a per-tenant retry-token budget so a pathological
// tenant cannot convert world restarts into unbounded re-execution.
// Each matrix pool carries a circuit breaker: consecutive exhausted
// retries open it, admissions then fail fast (HTTP 503) instead of
// queueing behind a poisoned pool, and after a cooldown a single
// half-open probe decides recovery. Sustained queue growth past a high
// watermark triggers brown-out shedding — the lowest-priority, newest
// queued requests are shed (503) until the backlog returns to the low
// watermark, keeping admitted-work latency within a small factor of the
// unloaded baseline instead of stretching every tenant's tail.
// Server.Drain completes the lifecycle: admissions 503 while queued and
// in-flight work runs out, then shutdown proceeds (cmd/spmv-serve wires
// it to SIGINT/SIGTERM behind -drain-timeout, before the HTTP listener
// stops). cmd/spmv-load -deadline drives all of it and reports
// deadline-exceeded and 503-shed as their own outcome columns — graceful
// degradation, distinct from errors.
//
// # Static contracts: cmd/reprolint
//
// The runtime's load-bearing conventions are enforced at compile time by
// cmd/reprolint, a multichecker over the internal/analysis suite (a
// required CI job, also runnable as `go vet -vettool=`). Six analyzers,
// one invariant each:
//
//   - commerr — no error returned by a core.Comm, core.Request or
//     core.PersistentRequest method may be discarded (bare call, go/defer,
//     or blank-identifier assignment): the error-first contract above is
//     only real if every call site looks.
//   - persistwait — one Wait per Start on persistent channels: a Start
//     that can re-fire (straight-line or looped) without an intervening
//     Wait of the same request is flagged.
//   - hotalloc — functions annotated //repro:noalloc (the resident halo
//     exchange, the team barrier path, the row kernels, tcpmpi framing)
//     must not allocate: make/new/append, composite literals, closures,
//     go statements, string conversions and interface boxing are flagged.
//     Allocations inside early-exit guards are exempt; deliberate
//     grow-once resident-buffer sites carry //repro:alloc-ok.
//   - rankorder — reduction combine loops must iterate ranks in canonical
//     ascending order (descending, strided and map-ordered loops break
//     the bit-identical reproducibility every transport promises).
//   - clusterctx — no mutex-taking *core.Cluster method (Mul, Run,
//     MulContext, RunContext, SetMode, Convert, Close, Failed) may be
//     reachable from a Run job body,
//     directly or through package-local helpers: the submitter holds the
//     cluster lock while the body runs, so the call self-deadlocks.
//     Mode() and the read-only accessors are the lock-free exceptions.
//   - wallclock — packages whose package clause carries the
//     //repro:virtualtime directive (internal/des, internal/simnet) must
//     not touch the wall clock: time.Now, Since, Until, Sleep, After,
//     AfterFunc, Tick, NewTimer and NewTicker are flagged, called or
//     stored. The simulator's bit-reproducibility rests on every
//     timestamp coming from the des clock; simnet's WallBudget (which
//     bounds planning wall time, not simulated time) is the one
//     annotated exception.
//
// A deliberate exception to any analyzer is written in the code as
// `//reprolint:ignore <name> <reason>` on (or directly above) the line.
// Each analyzer ships analysistest-style want-comment fixtures under
// internal/analysis/testdata/src/, including the known-hard
// false-positive shapes the suite intentionally tolerates.
//
// One more check needs the whole module at once, so it runs in go test
// rather than in reprolint: the exported-API gate
// (analysis.UnreferencedExports, run by TestExportedAPIHasOutsideCaller).
// Every exported function or method of an internal/ package must be
// referenced by a non-test file of another package — a cmd/, example,
// benchmark or another internal package. Exempt are methods through which
// a type satisfies an interface of the module or the standard library
// (errors' Unwrap/Is/As included), test-support packages whose name ends
// in "test" (internal/matrix/matrixtest), and declarations whose doc
// comment carries `//repro:api <reason>`; a mark without a reason is
// itself a finding. Code that only its own package or only tests call is
// unexported, deleted or moved into test code. The gate's fixture module
// is internal/analysis/testdata/apigate.
//
// # Storage formats and kernels
//
// The kernel engine is format-generic end to end. The runtime runs two
// storage schemes, CRS (internal/matrix) and SELL-C-σ (internal/formats);
// both satisfy the matrix.Format interface, so the parallel engine
// (spmv.Parallel), the solver operators (CG, Lanczos, KPM) and all three
// distributed modes run on either. Plan.ConvertFormat (or the
// session-level WithFormat/Convert) takes a matrix.FormatBuilder (e.g.
// formats.SELLBuilder) and converts both the full local matrix (vector
// mode without overlap) and the local half of the column split (naive
// overlap and task mode, via spmv.FormatSplit); the remote half always
// stays a compacted CSR of the halo-coupled rows.
//
// A plan holds each rank's entries once. core.BuildPlan writes the
// renumbered local matrix RankPlan.A in one sweep, every array allocated at
// the size the pattern pass counted, each row as its owned columns then its
// halo columns; in CRS the split's local half is a view of those rows'
// prefixes (spmv.LocalView: A plus one prefix end per row), not a second
// copy, and the remote half is a copy of the suffixes of the halo-coupled
// rows only, emitted in the same sweep. matrix.Materialize builds the
// global CRS matrix the same way: a parallel pattern pass, one prefix sum,
// a parallel value pass into each row's own slot. Plan.Bytes adds up the
// arrays a plan holds — per rank 12 bytes per entry plus 16 per row, the
// compacted remote and the halo index lists; a converted format is
// estimated at twice that again, its full matrix and split-local half
// being real copies — and is what the serving registry's byte budget is
// charged. By Eq. (1) the kernel streams exactly these bytes, so the
// second copy a rank used to hold was also a second set of pages to fault
// in at every set-up. See
// internal/formats/README.md for the mode × format support matrix, when
// SELL-C-σ beats CRS — including in the overlap modes, where the Eq. (2)
// write-twice penalty scales with the halo — and how σ-sorting composes
// with the RCM reordering of internal/rcm. All row kernels accumulate in
// the same floating-point order (4-way unrolled over a single
// accumulator), so serial CRS, parallel, split two-pass and SELL-C-σ
// results are bit-identical in every mode. Each of the three passes (full,
// split-local, compacted remote) is chunked independently, balanced on its
// own nonzero counts; parallel regions are dispatched through a
// sense-reversing barrier (one broadcast + one completion signal per
// region) instead of per-worker channels.
//
// cmd/spmv-bench -snapshot writes a kernel GFlop/s snapshot covering the
// node kernels and the distributed modes × formats sweep on a resident
// Cluster, plus a per-call reference point (see BENCH_1.json …
// BENCH_3.json) that tracks the repo's performance trajectory; -mode,
// -format and -transport (core.ParseMode, core.ParseFormat,
// core.ParseTransport) restrict the sweep to a single kernel mode,
// storage format, or transport backend (chan, a tcpmpi loopback pair, or
// the simulated transport below). From BENCH_9.json on, the snapshot also
// carries a modeled_scaling section: the full-scale capacity-planning
// sweep's crossover rank and per-mode modeled GFlop/s.
//
// # Capacity planning: internal/simnet and cmd/spmv-sim
//
// The paper's strong-scaling verdict (Figs. 5 and 6) needed thousands of
// real cores; internal/simnet reaches the same rank counts on a laptop by
// running the UNMODIFIED resident runtime — core.Cluster, Supervisor,
// solver.DistCG, the persistent-channel halo exchange — on a third
// core.Transport whose world lives in virtual time. Virtual time advances
// one event at a time on the internal/des kernel (deterministic by
// construction; the planner's ranks are des.Procs, coroutines the kernel
// resumes one at a time without a trip through the Go scheduler), payload
// bytes move for real and only once (the conformance suite asserts DistCG
// on sim is bit-identical to chan), and
// every Comm operation is costed by a calibrated network model:
// latency/bandwidth links under fluid-flow contention (internal/fluid),
// an eager/rendezvous protocol switch at the MPI library's threshold, and
// the paper's §3 observation that without an asynchronous progress
// thread, rendezvous transfers advance only while both endpoints are
// inside MPI calls — the very effect that makes "overlap" modes
// non-overlapping in practice. Compute phases are costed by the Eq. (1)
// code-balance model ((8+4)/β + κ bytes per nonzero through the
// locality domain's saturating memory bus, Fig. 3) with the Eq. (2)
// write-twice penalty in the overlap modes.
//
// cmd/spmv-sim is the planner front end: it sweeps rank counts × kernel
// modes × storage formats on a machine-described cluster
// (internal/machine specs: Westmere/Nehalem IB clusters, a Cray XE6
// torus) and emits a machine-readable JSON crossover table — per-point
// simulated time and modeled GFlop/s, plus the smallest rank count at
// which the winning mode changes, the Fig. 5/6 crossover. The full-scale
// HMeP sweep reproduces the paper's qualitative result in under a minute
// of wall time: task mode wins while halos are rendezvous-sized, and
// once strong scaling shrinks them under the eager threshold the naive
// overlap starts genuinely overlapping and takes over (at 4096 of
// {64, 512, 4096} simulated ranks). The sim-smoke CI job gates on a
// crossover being found (-require-crossover) under a wall-clock budget
// (-budget, simnet.WallBudget). See internal/simnet/README.md for the
// progress-semantics model and the deterministic-scheduler contract.
//
// # Serving: the multi-tenant SpMV service
//
// internal/serve lifts the resident runtime into a long-running service —
// the shape the paper's application codes take when the same operator is
// hit by many independent request streams. cmd/spmv-serve exposes it over
// HTTP on loopback; cmd/spmv-load is its throughput/latency harness.
//
// The wire has two encodings for the two requests that carry vectors,
// POST /v1/mul and /v1/solve, chosen by the request's Content-Type and
// mirrored by the response. application/json is the form to type:
//
//	curl -s -H 'Content-Type: application/json' 127.0.0.1:8311/v1/mul \
//	    -d '{"tenant": "a", "matrix": "band", "seed": 1, "iters": 10}'
//
// application/x-spmv-f64 is the form programs speak (serve.Client, and
// through it spmv-load and the benchmark): one little-endian frame
// u32 metaLen | meta | u32 n | n × float64, where meta is the same
// OpRequest / Response struct as JSON with its vector left nil — one
// definition of the fields for both encodings — and the vector travels as
// raw float64 bits, n being 0 (seed-derived x) or the row count. The
// benchmark's ruler put 4.2 ms of a 4.5 ms served multiplication in
// printing and parsing decimals; the frame moves the same request in
// 0.55 ms, of which the kernel is half (go test -bench WireMul -benchmem
// ./internal/serve shows both). The server decodes defensively: meta is
// capped at 4 KB, the element count is checked against the named matrix
// before the vector is read, every body is capped at 64 MB (413), a short
// frame, a wrong count or a trailing byte is a 400, any other
// Content-Type a 415 — FuzzReadFrame holds the decoder to typed errors.
// Errors, register, matrix info and stats are JSON in either case. JSON
// cannot write NaN or ±Inf, so a non-finite result is a 500 naming the
// binary encoding, which carries y's bits whatever they are.
//
// The architecture is three layers over one shared plan. The REGISTRY
// loads or generates each named matrix once (deterministically, from a
// comparable Spec), partitions it by nonzeros, converts it to the
// session's storage format at registration — so every pooled cluster
// shares one read-only *core.Plan — and evicts least-recently-used idle
// matrices when a byte budget (core.Plan.Bytes) is exceeded; requests pin
// their matrix from admission to completion, so eviction never races a
// live request. The POOL keeps up to Config.Sessions resident
// core.Clusters per matrix, spun up lazily and each wrapped in a
// core.Supervisor: a world failure mid-request redials a fresh world and
// transparently retries the interrupted remainder of the batch (up to
// Config.MaxAttempts per request), so callers see attempts > 1, not an
// error. The DISPATCHER is a single goroutine over per-tenant FIFO rings:
// admission control rejects a request immediately when its tenant's
// bounded queue is full (HTTP 429) — queueing is the tenant's, not the
// server's — while dispatch round-robins across tenants (a saturating
// tenant cannot starve a light one; per-tenant in-flight caps bound its
// share) and coalesces compatible requests for the same matrix into
// batches that ride consecutive Mul/DistCG calls on one warm cluster.
//
// The steady state stays on the PR 5 zero-allocation path: tenant rings
// and batches are preallocated and recycled through freelists, the
// dispatcher's drain/flush loops and the session's batch loop are
// annotated //repro:noalloc (enforced by cmd/reprolint), and the actual
// multiplication is the cluster's resident Mul job. The clusterctx
// analyzer generalizes to this layer by type, not by name: any argument
// in a func(*core.Worker) error parameter slot is checked against the
// job-body locking rule, so pooled-cluster wrappers inherit the
// no-mutex-method guarantee.
//
// Bit-reproducibility is the serving contract, end to end: a response is
// a pure function of (spec, partition geometry, mode, format, request
// seed) — thread count does not affect bits — so cmd/spmv-load -verify
// rebuilds the server's matrix from the same spec and the geometry
// reported at registration, replays every request on a local reference
// cluster, and compares float-for-float. Batching, pooling, tenant
// interleaving and supervised world restarts must not change a single
// ulp; the bench snapshot (the serving columns of BENCH_8.json onward)
// and the serve-smoke CI job treat a verification failure as a hard
// error, not a data point.
package repro
