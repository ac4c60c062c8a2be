package solver

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
)

// This file implements fully distributed solvers in SPMD style on a
// resident core.Cluster: every rank owns a contiguous slice of each vector,
// every multiplication is one halo exchange + kernel in the cluster's mode,
// and scalar reductions ride the runtime's Allreduce — the structure of the
// paper's application codes, where spMVM dominates and a handful of dot
// products per iteration ride along. The cluster's rank goroutines, teams
// and halo buffers persist across the whole solve (and across consecutive
// solves on the same cluster); nothing is re-spawned per multiplication.
//
// The solvers run on whatever rank subset the cluster drives locally: on
// the default chan transport that is every rank (and the full solution is
// written back); on a multi-process transport each process computes the
// rows its local ranks own, while iteration counts and residuals — derived
// entirely from global reductions — are identical on every process.
//
// Both solvers are storage-format generic in every mode: bring the cluster
// up with core.WithFormat (or call Cluster.Convert between solves) and the
// no-overlap kernel, the overlap local pass and the task-mode local pass
// all run on the converted format, with the compacted remote pass staying
// on the CompactCSR. Each distributed multiplication is bit-identical to
// its CSR counterpart, and reductions combine in canonical rank order on
// every transport, so whole solves are bit-reproducible across runs and
// across transports (the tcpmpi acceptance tests rely on this).
//
// Both solvers preallocate every per-iteration vector and coefficient
// buffer up front (History to maxIter, the Lanczos basis to m vectors), so
// a steady-state iteration — multiplication, axpys, scalar reductions —
// performs zero allocations on the chan transport
// (TestAllocGateDistCGIteration pins this down).

// distDot computes the global dot product of two distributed vectors.
func distDot(c core.Comm, a, b []float64) (float64, error) {
	return c.AllreduceScalar(core.OpSum, Dot(a, b))
}

// runBody dispatches one SPMD body, under a deadline when the options
// carry a context. A cut-short run is re-labelled with the solver's own
// entry point, so callers see Op "DistCG"/"DistLanczos" rather than the
// cluster-level "Run".
func runBody(cl *core.Cluster, ctx context.Context, op string, body func(*core.Worker) error) error {
	if ctx == nil {
		return cl.Run(body)
	}
	err := cl.RunContext(ctx, body)
	var de *core.DeadlineError
	if errors.As(err, &de) {
		return &core.DeadlineError{Op: op, Err: de.Err}
	}
	return err
}

// CGOptions configures DistCGOpt beyond the required tolerance and
// iteration cap: checkpoint cadence and buffers, and a snapshot to
// resume from.
type CGOptions struct {
	Tol     float64
	MaxIter int
	// Context, when non-nil, arms an end-to-end deadline over the whole
	// solve via Cluster.RunContext: expiry or cancellation abandons the
	// solve and surfaces a *core.DeadlineError with Op "DistCG" (final
	// for this request — see the core package's deadline contract).
	Context context.Context
	// CheckpointEvery snapshots the solve state into Checkpoint every k
	// iterations (0 disables). Snapshots happen at the top-of-iteration
	// boundary, overwriting the previous snapshot in place.
	CheckpointEvery int
	// Checkpoint receives the snapshots; required when CheckpointEvery is
	// set, sized by NewCGCheckpoint on the same cluster.
	Checkpoint *CGCheckpoint
	// OnCheckpoint, when non-nil, runs once per completed snapshot —
	// after the last local rank has copied its rows — e.g. to persist it
	// to disk. It runs on a rank goroutine; an error fails the solve.
	OnCheckpoint func(*CGCheckpoint) error
	// Restore, when non-nil, resumes the solve from the snapshot instead
	// of starting from x: the iterated state (x, r, p, rᵀr) is loaded
	// verbatim and the loop continues at the snapshot's iteration,
	// reproducing the uninterrupted run bit for bit.
	Restore *CGCheckpoint
}

// DistCG solves A·x = b with conjugate gradients on the cluster's resident
// distributed kernel. b and x are global vectors; the solve runs SPMD across
// the cluster's ranks in its current mode and writes the solution rows of
// the locally driven ranks back into x. All ranks see identical reduced
// scalars, so the iteration count is deterministic (and identical across
// the processes of a multi-process world).
func DistCG(cl *core.Cluster, b, x []float64, tol float64, maxIter int) (CGResult, error) {
	return DistCGOpt(cl, b, x, CGOptions{Tol: tol, MaxIter: maxIter})
}

// DistCGOpt is DistCG with checkpointing and restore (see CGOptions).
func DistCGOpt(cl *core.Cluster, b, x []float64, opt CGOptions) (CGResult, error) {
	if cl == nil {
		return CGResult{}, fmt.Errorf("solver: DistCG needs a cluster")
	}
	n := cl.Rows()
	if len(b) != n || len(x) != n {
		return CGResult{}, fmt.Errorf("solver: DistCG dimension mismatch (n=%d, b=%d, x=%d)", n, len(b), len(x))
	}
	tol, maxIter := opt.Tol, opt.MaxIter
	if tol <= 0 || maxIter < 1 {
		return CGResult{}, fmt.Errorf("solver: DistCG needs tol > 0 and maxIter ≥ 1")
	}
	numLocal := len(cl.LocalRanks())
	if opt.CheckpointEvery > 0 {
		if opt.Checkpoint == nil {
			return CGResult{}, fmt.Errorf("solver: CheckpointEvery set without a Checkpoint buffer")
		}
		if err := checkSpan(cl, opt.Checkpoint, "CG checkpoint"); err != nil {
			return CGResult{}, err
		}
		opt.Checkpoint.pending.Store(int32(numLocal))
	}
	if opt.Restore != nil {
		if !opt.Restore.Valid() {
			return CGResult{}, fmt.Errorf("solver: Restore from an empty CG checkpoint")
		}
		if err := checkSpan(cl, opt.Restore, "CG restore"); err != nil {
			return CGResult{}, err
		}
	}
	mode := cl.Mode()
	results := make([]CGResult, cl.Ranks())
	breakdowns := make([]error, cl.Ranks())

	err := runBody(cl, opt.Context, "DistCG", func(w *core.Worker) error {
		c := w.Comm
		rank := c.Rank()
		lo, hi := w.Plan.Rows.Lo, w.Plan.Rows.Hi
		nl := w.Plan.NLocal

		bl := append([]float64(nil), b[lo:hi]...)
		xl := append([]float64(nil), x[lo:hi]...)
		res := &results[rank]
		// The convergence history grows to at most maxIter entries;
		// reserving them here keeps the iteration loop allocation-free.
		res.History = make([]float64, 0, maxIter)

		// b's norm is re-derived even on a restore: it comes from the
		// canonical-rank-order reduction, so the restored run sees the
		// very same bits the original did.
		bNorm2, err := distDot(c, bl, bl)
		if err != nil {
			return err
		}
		if bNorm2 == 0 {
			for i := range xl {
				xl[i] = 0
			}
			copy(x[lo:hi], xl)
			res.Converged = true
			return nil
		}
		bNorm := math.Sqrt(bNorm2)

		// The iteration runs where the kernel's data already is: the search
		// direction p IS the owned part of the worker's X, and A·p is read
		// out of the worker's Y, so a multiplication is w.Step and nothing
		// else — no vector is copied in or out of the worker per iteration.
		// (Cluster.Mul overwrites X before it steps, so what a solve leaves
		// there is nobody's input.)
		p, ap := w.X[:nl], w.Y
		r := make([]float64, nl)
		var rr float64
		startIter := 0
		if rst := opt.Restore; rst != nil {
			// Resume: load the iterated state verbatim. The residual is
			// NOT recomputed as b − A·x — the recomputation differs from
			// the iterated r in floating point, which would fork the
			// trajectory from the uninterrupted run.
			off := lo - rst.Lo
			copy(xl, rst.X[off:off+nl])
			copy(r, rst.R[off:off+nl])
			copy(p, rst.P[off:off+nl])
			rr = rst.RR
			startIter = rst.Iter
			res.MVMs = rst.MVMs
			res.Iterations = rst.Iter
			res.History = append(res.History, rst.History...)
			if len(res.History) > 0 {
				res.Residual = res.History[len(res.History)-1]
			}
		} else {
			copy(p, xl)
			if err := w.Step(mode); err != nil {
				return err
			}
			res.MVMs++
			for i := range r {
				r[i] = bl[i] - ap[i]
			}
			copy(p, r)
			if rr, err = distDot(c, r, r); err != nil {
				return err
			}
		}

		for k := startIter; k < maxIter; k++ {
			if err := w.Step(mode); err != nil {
				return err
			}
			res.MVMs++
			pap, err := distDot(c, p, ap)
			if err != nil {
				return err
			}
			if pap <= 0 {
				// pap is a global reduction, so every rank detects the
				// breakdown identically and returns in lockstep. Recorded
				// out-of-band rather than as a body error: a body error is
				// fatal to the world (fail-stop), while a lockstep
				// breakdown leaves the resident cluster perfectly usable
				// for the next solve.
				breakdowns[rank] = fmt.Errorf("solver: DistCG broke down (pᵀAp = %g ≤ 0)", pap)
				return nil
			}
			alpha := rr / pap
			rrNew, err := c.AllreduceScalar(core.OpSum, cgUpdate(alpha, p, ap, xl, r))
			if err != nil {
				return err
			}
			res.Iterations = k + 1
			rel := math.Sqrt(rrNew) / bNorm
			res.History = append(res.History, rel)
			res.Residual = rel
			if rel < tol {
				res.Converged = true
				break
			}
			beta := rrNew / rr
			for i := range p {
				p[i] = r[i] + beta*p[i]
			}
			rr = rrNew
			if every := opt.CheckpointEvery; every > 0 && (k+1)%every == 0 && k+1 < maxIter {
				// The state here — after the direction update, before the
				// next multiplication — is exactly "top of iteration k+1".
				// Every rank copies its own rows (disjoint), and the last
				// one to arrive seals the scalars and runs the hook; the
				// next snapshot is a full cadence of reductions away, so
				// the sealing rank cannot be raced.
				ck := opt.Checkpoint
				off := lo - ck.Lo
				copy(ck.X[off:off+nl], xl)
				copy(ck.R[off:off+nl], r)
				copy(ck.P[off:off+nl], p)
				if ck.pending.Add(-1) == 0 {
					ck.pending.Store(int32(numLocal))
					ck.Iter = k + 1
					ck.MVMs = res.MVMs
					ck.RR = rr
					ck.History = append(ck.History[:0], res.History...)
					ck.valid = true
					if opt.OnCheckpoint != nil {
						if err := opt.OnCheckpoint(ck); err != nil {
							return err
						}
					}
				}
			}
		}
		copy(x[lo:hi], xl)
		return nil
	})
	if err != nil {
		return CGResult{}, err
	}
	// Convergence history, counts and breakdowns derive from global
	// reductions, so any locally driven rank's record is the world's record.
	first := cl.LocalRanks()[0]
	if breakdowns[first] != nil {
		return CGResult{}, breakdowns[first]
	}
	return results[first], nil
}

// LanczosOptions configures DistLanczosOpt: checkpoint cadence and
// buffers, and a snapshot to resume from (see CGOptions for the shared
// semantics).
type LanczosOptions struct {
	CheckpointEvery int
	Checkpoint      *LanczosCheckpoint
	OnCheckpoint    func(*LanczosCheckpoint) error
	Restore         *LanczosCheckpoint
	// Context arms an end-to-end deadline over the sweep (see
	// CGOptions.Context); a cut-short sweep surfaces a
	// *core.DeadlineError with Op "DistLanczos".
	Context context.Context
}

// DistLanczos runs the symmetric Lanczos iteration SPMD across the
// cluster's ranks with full reorthogonalization against the distributed
// basis, and returns the Ritz values — the distributed version of the
// paper's exact-diagonalization workload.
func DistLanczos(cl *core.Cluster, m int, seed int64) (LanczosResult, error) {
	return DistLanczosOpt(cl, m, seed, LanczosOptions{})
}

// DistLanczosOpt is DistLanczos with checkpointing and restore.
func DistLanczosOpt(cl *core.Cluster, m int, seed int64, opt LanczosOptions) (LanczosResult, error) {
	if cl == nil {
		return LanczosResult{}, fmt.Errorf("solver: DistLanczos needs a cluster")
	}
	n := cl.Rows()
	if n == 0 {
		return LanczosResult{}, fmt.Errorf("solver: DistLanczos on empty operator")
	}
	if m < 1 {
		return LanczosResult{}, fmt.Errorf("solver: DistLanczos needs m ≥ 1")
	}
	if m > n {
		m = n
	}
	numLocal := len(cl.LocalRanks())
	if opt.CheckpointEvery > 0 {
		if opt.Checkpoint == nil {
			return LanczosResult{}, fmt.Errorf("solver: CheckpointEvery set without a Checkpoint buffer")
		}
		if err := checkSpan(cl, opt.Checkpoint, "Lanczos checkpoint"); err != nil {
			return LanczosResult{}, err
		}
		opt.Checkpoint.pending.Store(int32(numLocal))
	}
	if opt.Restore != nil {
		if !opt.Restore.Valid() {
			return LanczosResult{}, fmt.Errorf("solver: Restore from an empty Lanczos checkpoint")
		}
		if err := checkSpan(cl, opt.Restore, "Lanczos restore"); err != nil {
			return LanczosResult{}, err
		}
	}
	mode := cl.Mode()
	// The start vector is generated globally so results are independent of
	// the rank count.
	start := make([]float64, n)
	rngFill(start, seed)

	firstLocal := cl.LocalRanks()[0]
	results := make([]LanczosResult, cl.Ranks())
	var alphas, betas []float64 // written by the first local rank only

	err := runBody(cl, opt.Context, "DistLanczos", func(w *core.Worker) error {
		c := w.Comm
		rank := c.Rank()
		lo, hi := w.Plan.Rows.Lo, w.Plan.Rows.Hi
		nl := w.Plan.NLocal
		res := &results[rank]

		// All m basis vectors live in one backing array reserved up front,
		// and the tridiagonal coefficients get their full capacity — the
		// iteration loop then allocates nothing.
		la := make([]float64, 0, m)
		lb := make([]float64, 0, m)
		basisBuf := make([]float64, m*nl)
		basis := make([][]float64, 0, m)
		wv := make([]float64, nl)
		apply := func(dst, src []float64) error {
			copy(w.X[:nl], src)
			if err := w.Step(mode); err != nil {
				return err
			}
			copy(dst, w.Y)
			res.MVMs++
			return nil
		}

		startStep := 0
		if rst := opt.Restore; rst != nil {
			// Resume: the basis and the tridiagonal coefficients are loaded
			// verbatim (the start-vector normalization — a collective — is
			// skipped on every rank alike). wv is not part of the state:
			// the next step overwrites it before reading it.
			off := lo - rst.Lo
			span := rst.Hi - rst.Lo
			la = append(la, rst.Alphas...)
			lb = append(lb, rst.Betas...)
			for vi := 0; vi <= rst.Step; vi++ {
				dst := basisBuf[vi*nl : (vi+1)*nl]
				copy(dst, rst.Basis[vi*span+off:vi*span+off+nl])
				basis = append(basis, dst)
			}
			startStep = rst.Step
			res.MVMs = rst.MVMs
			res.Steps = rst.Step
		} else {
			v := append([]float64(nil), start[lo:hi]...)
			vv, err := distDot(c, v, v)
			if err != nil {
				return err
			}
			Scale(1/math.Sqrt(vv), v)
			copy(basisBuf[:nl], v)
			basis = append(basis, basisBuf[:nl])
		}

		for j := startStep; j < m; j++ {
			if err := apply(wv, basis[j]); err != nil {
				return err
			}
			alpha, err := distDot(c, basis[j], wv)
			if err != nil {
				return err
			}
			la = append(la, alpha)
			Axpy(-alpha, basis[j], wv)
			if j > 0 {
				Axpy(-lb[j-1], basis[j-1], wv)
			}
			for _, u := range basis {
				uw, err := distDot(c, u, wv)
				if err != nil {
					return err
				}
				Axpy(-uw, u, wv)
			}
			ww, err := distDot(c, wv, wv)
			if err != nil {
				return err
			}
			beta := math.Sqrt(ww)
			res.Steps = j + 1
			if beta < 1e-12 || j == m-1 {
				break
			}
			lb = append(lb, beta)
			next := basisBuf[len(basis)*nl : (len(basis)+1)*nl]
			copy(next, wv)
			Scale(1/beta, next)
			basis = append(basis, next)
			if every := opt.CheckpointEvery; every > 0 && (j+1)%every == 0 && j+1 < m {
				// Top-of-step-j+1 state: the full basis and coefficient
				// prefix. Same disjoint-rows + last-rank-seals discipline
				// as the CG snapshot.
				ck := opt.Checkpoint
				off := lo - ck.Lo
				span := ck.Hi - ck.Lo
				for vi, u := range basis {
					copy(ck.Basis[vi*span+off:vi*span+off+nl], u)
				}
				if ck.pending.Add(-1) == 0 {
					ck.pending.Store(int32(numLocal))
					ck.Step = j + 1
					ck.MVMs = res.MVMs
					ck.Alphas = append(ck.Alphas[:0], la...)
					ck.Betas = append(ck.Betas[:0], lb...)
					ck.valid = true
					if opt.OnCheckpoint != nil {
						if err := opt.OnCheckpoint(ck); err != nil {
							return err
						}
					}
				}
			}
		}
		if rank == firstLocal {
			// The tridiagonal coefficients come from global reductions, so
			// every rank holds identical copies; the first locally driven
			// rank publishes them.
			alphas, betas = la, lb
		}
		return nil
	})
	if err != nil {
		return LanczosResult{}, err
	}

	res := results[firstLocal]
	eigs, err := SymTridiagEigenvalues(alphas, betas)
	if err != nil {
		return res, err
	}
	res.Eigenvalues = eigs
	return res, nil
}

// rngFill deterministically fills a vector with standard normals.
func rngFill(x []float64, seed int64) {
	s := uint64(seed)*0x9e3779b97f4a7c15 + 0x2545F4914F6CDD1D
	next := func() float64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11)/float64(1<<53) - 0.5
	}
	for i := range x {
		x[i] = next()
	}
}
