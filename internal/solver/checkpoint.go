package solver

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
)

// Checkpointing: DistCG can snapshot its complete iteration state into a
// caller-owned checkpoint every k iterations, at a collective boundary, and later resume from such a snapshot on a FRESH
// cluster — the recovery path of core.Supervisor after a world failure.
//
// The crucial property is bit-identity: a restored solve must reproduce
// the uninterrupted run's iterates exactly. Two design points make that
// hold. First, the snapshot is taken at the top-of-iteration boundary and
// restores everything the loop carries across iterations — the iterated
// residual r is restored, never recomputed as b − A·x, because
// the recomputation differs from the iterated r in floating point even
// though both are "the residual". Second, every scalar the loop derives
// (dot products, norms) comes from the runtime's canonical-rank-order
// reductions, which are bit-identical across transports and across rank
// counts per process — so re-deriving b's norm after a restore lands on
// the very same bits the original run saw.
//
// A checkpoint covers the rows of the ranks one process drives, so on a
// multi-process world each process checkpoints its own row span and the
// set of per-process checkpoints at the same iteration forms a consistent
// global snapshot: ranks advance in lockstep (every iteration has global
// reductions), so snapshots of the same cadence are taken at the same
// iteration everywhere — after a crash, processes agree on the newest
// COMMON iteration (see ckpt.Agree) and restore it.

// localRowSpan returns the contiguous global row span of the cluster's
// locally driven ranks.
func localRowSpan(cl *core.Cluster) (lo, hi int) {
	plan := cl.Plan()
	local := cl.LocalRanks()
	lo = plan.Ranks[local[0]].Rows.Lo
	hi = plan.Ranks[local[len(local)-1]].Rows.Hi
	return lo, hi
}

// CGCheckpoint is the complete state of a DistCG solve at the top of
// iteration Iter, covering rows [Lo, Hi): the iterate X, the ITERATED
// residual R, the search direction P, the scalar rᵀr, and the result
// bookkeeping (MVM count, convergence history) needed to make a resumed
// run's CGResult equal the uninterrupted one's.
type CGCheckpoint struct {
	Lo, Hi  int
	Iter    int
	MVMs    int
	RR      float64
	History []float64 // relative residuals of iterations [0, Iter)
	X, R, P []float64 // rows [Lo, Hi)

	valid bool
	// pending counts the cluster ranks still to copy their rows into the
	// current snapshot; the rank that decrements it to zero seals the
	// scalars and runs the OnCheckpoint hook. Safe without further
	// synchronization: the next snapshot is a full cadence of global
	// reductions away, so no rank can race a new copy into these buffers
	// while the sealing rank is still writing.
	pending atomic.Int32
}

// NewCGCheckpoint sizes a checkpoint for DistCG solves on the cluster
// (its locally driven row span and a history up to maxIter entries).
func NewCGCheckpoint(cl *core.Cluster, maxIter int) *CGCheckpoint {
	lo, hi := localRowSpan(cl)
	n := hi - lo
	return &CGCheckpoint{
		Lo: lo, Hi: hi,
		History: make([]float64, 0, maxIter),
		X:       make([]float64, n),
		R:       make([]float64, n),
		P:       make([]float64, n),
	}
}

// Valid reports whether the checkpoint holds a complete snapshot.
func (c *CGCheckpoint) Valid() bool { return c != nil && c.valid }

// Seal marks a checkpoint assembled by an external loader (the ckpt file
// codec) as complete.
func (c *CGCheckpoint) Seal() { c.valid = true }

// checkSpan validates that a checkpoint's row span matches the cluster's.
func checkSpan(cl *core.Cluster, ck *CGCheckpoint, what string) error {
	lo, hi := localRowSpan(cl)
	if ck.Lo != lo || ck.Hi != hi {
		return fmt.Errorf("solver: %s covers rows [%d,%d), cluster drives [%d,%d)", what, ck.Lo, ck.Hi, lo, hi)
	}
	return nil
}
