package core

import (
	"fmt"
	"strings"

	"repro/internal/matrix"
	"repro/internal/spmv"
)

// Mode selects the kernel organization of the distributed SpMV (Fig. 4).
type Mode int

const (
	// VectorNoOverlap exchanges the full halo, then runs the entire local
	// SpMV (Fig. 4a). Communication and computation are serialized.
	VectorNoOverlap Mode = iota
	// VectorNaiveOverlap posts nonblocking communication, computes the
	// local-only part, waits, then finishes the halo part (Fig. 4b). The
	// result vector is written twice (Eq. 2). With standard MPI progress
	// semantics the "overlap" does not actually overlap — the paper's
	// central observation.
	VectorNaiveOverlap
	// TaskMode dedicates one thread to communication while the remaining
	// threads compute the local part, then all threads finish the halo part
	// (Fig. 4c). Communication genuinely overlaps computation because the
	// communication thread sits inside MPI the whole time.
	TaskMode
)

func (m Mode) String() string {
	switch m {
	case VectorNoOverlap:
		return "vector-no-overlap"
	case VectorNaiveOverlap:
		return "vector-naive-overlap"
	case TaskMode:
		return "task-mode"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Modes lists all kernel modes in presentation order.
var Modes = []Mode{VectorNoOverlap, VectorNaiveOverlap, TaskMode}

// valid reports whether m is one of the defined kernel modes.
func (m Mode) valid() bool {
	return m == VectorNoOverlap || m == VectorNaiveOverlap || m == TaskMode
}

// modeTokens is the single source of truth for every spelling ParseMode
// accepts: the canonical String() name of each mode first, its short
// aliases after it. ParseMode's error enumerates exactly this table, so a
// bad -mode flag or HTTP parameter names every valid token.
var modeTokens = []struct {
	tok  string
	mode Mode
}{
	{"vector-no-overlap", VectorNoOverlap},
	{"vector", VectorNoOverlap},
	{"no-overlap", VectorNoOverlap},
	{"vector-naive-overlap", VectorNaiveOverlap},
	{"naive", VectorNaiveOverlap},
	{"naive-overlap", VectorNaiveOverlap},
	{"task-mode", TaskMode},
	{"task", TaskMode},
}

// ModeTokens returns every spelling ParseMode accepts, canonical names
// first — the list command-line help and API error messages enumerate.
func ModeTokens() []string {
	out := make([]string, len(modeTokens))
	for i, e := range modeTokens {
		out[i] = e.tok
	}
	return out
}

// ParseMode maps a mode name to its Mode value. It accepts the canonical
// String() names ("vector-no-overlap", "vector-naive-overlap", "task-mode")
// and the short aliases listed by ModeTokens; an unknown name yields an
// error that enumerates every valid token.
func ParseMode(s string) (Mode, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	for _, e := range modeTokens {
		if e.tok == name {
			return e.mode, nil
		}
	}
	return 0, fmt.Errorf("core: unknown mode %q (valid: %s)", s, strings.Join(ModeTokens(), ", "))
}

// haloTag is the message tag of halo exchanges. Matching is FIFO per
// (source, tag), so a single tag is sufficient across iterations.
const haloTag = 0

// Worker is the per-rank execution state of the distributed SpMV.
// X holds the owned RHS elements in [0, NLocal) and the halo in
// [NLocal, VectorLen); Y holds the owned result rows.
type Worker struct {
	Plan *RankPlan
	Comm Comm
	Team *spmv.Team

	X []float64
	Y []float64

	local matrix.Format     // full local matrix (Plan.Format or Plan.A)
	split *spmv.FormatSplit // column split (Plan.SplitFormat or Plan.Split)

	// The three passes are chunked independently, each balanced on its own
	// work: fullChunks on the full matrix's blocks (no-overlap), localChunks
	// on the split-local blocks, remoteChunks on the compacted remote's
	// stored rows. Balancing the split passes on the full RowPtr would
	// load-imbalance the local pass whenever remote nnz is skewed across
	// rows.
	localChunks  []spmv.Range
	remoteChunks []spmv.Range
	fullChunks   []spmv.Range

	sendBufs [][]float64

	// The halo schedule compiled into persistent channels (MPI_Send_init /
	// MPI_Recv_init): one restartable receive per halo segment, delivering
	// straight into X's halo region, and one restartable send per peer,
	// bound to its gather buffer. postRecvs/gatherAndSend are then pure
	// restart loops — the steady-state exchange allocates nothing.
	recvReqs []PersistentRequest
	sendReqs []PersistentRequest

	// The kernel passes compiled into restartable team regions, one per
	// pass; their bodies read the chunking through w, so refresh only has
	// to rebalance the chunk slices.
	fullRegion   *spmv.Region
	localRegion  *spmv.Region
	remoteRegion *spmv.Region
}

// newWorker prepares the execution state of one rank. threads is the size
// of the compute team (the paper's "worker threads"); in task mode the
// communication role is played by the rank's own goroutine, mirroring the
// dedicated communication thread that may run on a virtual core.
func newWorker(rp *RankPlan, comm Comm, threads int) (*Worker, error) {
	if rp.A == nil {
		return nil, fmt.Errorf("core: rank %d has no local matrix (plan must be built with values)", rp.Rank)
	}
	if threads < 1 {
		return nil, fmt.Errorf("core: threads %d < 1", threads)
	}
	if (rp.Format == nil) != (rp.SplitFormat == nil) {
		// A half-set conversion would run some modes on the converted format
		// and others on CSR — numerically equal but silently different in
		// speed. Plan.ConvertFormat always sets both.
		return nil, fmt.Errorf("core: rank %d plan converted for only some modes (Format and SplitFormat must be set together; use Plan.ConvertFormat)", rp.Rank)
	}
	w := &Worker{
		Plan: rp,
		Comm: comm,
		Team: spmv.NewTeam(threads),
		X:    make([]float64, rp.VectorLen()),
		Y:    make([]float64, rp.NLocal),
	}
	w.refresh()
	w.sendBufs = make([][]float64, len(rp.SendTo))
	for i, tx := range rp.SendTo {
		w.sendBufs[i] = make([]float64, tx.Count)
	}

	// Compile the halo schedule into persistent channels: receives bound to
	// the contiguous halo segments of X, sends bound to the gather buffers.
	w.recvReqs = make([]PersistentRequest, len(rp.RecvFrom))
	for i, rx := range rp.RecvFrom {
		seg := w.X[rp.NLocal+rx.Offset : rp.NLocal+rx.Offset+rx.Count]
		req, err := comm.RecvInit(rx.Peer, haloTag, seg)
		if err != nil {
			w.Team.Close()
			return nil, err
		}
		w.recvReqs[i] = req
	}
	w.sendReqs = make([]PersistentRequest, len(rp.SendTo))
	for i, tx := range rp.SendTo {
		req, err := comm.SendInit(tx.Peer, haloTag, w.sendBufs[i])
		if err != nil {
			w.Team.Close()
			return nil, err
		}
		w.sendReqs[i] = req
	}

	// Compile the kernel passes into restartable team regions. Each pass is
	// chunked to exactly `threads` ranges, and the bodies read the current
	// chunking and storage format through w, so a refresh (live format
	// conversion) needs no recompilation.
	w.fullRegion = w.Team.Compile(threads, func(t int) {
		r := w.fullChunks[t]
		w.local.MulVecBlocks(w.Y, w.X, r.Lo, r.Hi)
	})
	w.localRegion = w.Team.Compile(threads, func(t int) {
		r := w.localChunks[t]
		w.split.Local.MulVecBlocks(w.Y, w.X, r.Lo, r.Hi)
	})
	w.remoteRegion = w.Team.Compile(threads, func(t int) {
		r := w.remoteChunks[t]
		w.split.Remote.MulStoredRowsAdd(w.Y, w.X, r.Lo, r.Hi)
	})
	return w, nil
}

// refresh re-reads the plan's storage formats and rebalances the kernel
// chunking — the hook Cluster.Convert uses to apply a live ConvertFormat to
// already-resident workers. Must not run concurrently with Step.
func (w *Worker) refresh() {
	rp := w.Plan
	threads := w.Team.Size()
	w.local = rp.A
	w.split = rp.Split.AsFormatSplit()
	if rp.Format != nil {
		w.local = rp.Format
		w.split = rp.SplitFormat
	}
	w.localChunks = w.split.LocalChunks(threads)
	w.remoteChunks = w.split.RemoteChunks(threads)
	w.fullChunks = spmv.BalanceNnz(w.local.BlockNnzPrefix(), threads)
}

// Close releases the worker's compute team.
func (w *Worker) Close() { w.Team.Close() }

// postRecvs restarts the persistent receive of every halo segment — the
// compiled equivalent of posting one Irecv per peer, with no per-step
// request allocation (segments deliver directly into X's halo region).
//
//repro:noalloc
func (w *Worker) postRecvs() error {
	for _, r := range w.recvReqs {
		if err := r.Start(); err != nil {
			return err
		}
	}
	return nil
}

// gatherAndSend copies the owned elements each peer needs into the bound
// send buffers and restarts the persistent sends. The local gather may be
// done after the receives are initiated, potentially hiding the copy cost
// (§3.1).
//
//repro:noalloc
func (w *Worker) gatherAndSend() error {
	for i, tx := range w.Plan.SendTo {
		buf := w.sendBufs[i]
		for j, idx := range tx.Indices {
			buf[j] = w.X[idx]
		}
		if err := w.sendReqs[i].Start(); err != nil {
			return err
		}
	}
	return nil
}

// waitHalo blocks until every halo segment has arrived, waiting out every
// persistent receive AND send (the MPI_Waitall discipline: all requests
// are waited even after a failure; the send waits also discharge the
// one-Wait-per-Start contract, so the next step may legally refill the
// bound send buffers) and returns the first error observed.
//
//repro:noalloc
func (w *Worker) waitHalo() error {
	var first error
	for _, r := range w.recvReqs {
		if err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	for _, r := range w.sendReqs {
		if err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Step performs one distributed multiplication Y = A·X in the given mode.
// The caller must have filled X[0:NLocal] with the owned RHS elements. A
// transport failure during the halo exchange is returned as an error (and
// the cluster submission carrying the Step reports it).
func (w *Worker) Step(mode Mode) error {
	switch mode {
	case VectorNoOverlap:
		return w.stepNoOverlap()
	case VectorNaiveOverlap:
		return w.stepNaiveOverlap()
	case TaskMode:
		return w.stepTaskMode()
	default:
		return fmt.Errorf("core: unknown mode %v", mode)
	}
}

// The three steps below are Fig. 4 line for line. In the two vector modes
// the rank goroutine is the master thread: it does the MPI calls and then
// enters each kernel pass as thread 0 of its team (Team.Exec), so with one
// thread per rank a step hands nothing to another goroutine. In task mode
// the rank goroutine is the communication thread and never computes: both
// passes are launched on the pool (Team.Start/Join). Running task mode's
// remote pass inline instead would save its hand-off, and measured 8 %
// slower on hmep-mul-tcp (85.4 → 78.2 ops/s, 3 of 3 pairs): the pass adds
// into the Y the compute thread has just written, and the rank goroutine's
// core does not hold it.

//repro:noalloc
func (w *Worker) stepNoOverlap() error {
	if err := w.postRecvs(); err != nil {
		return err
	}
	if err := w.gatherAndSend(); err != nil {
		return err
	}
	if err := w.waitHalo(); err != nil {
		return err
	}
	// Full kernel: one pass, result written once (code balance Eq. 1). Runs
	// on whatever storage format the plan carries (CSR by default).
	w.Team.Exec(w.fullRegion)
	return nil
}

//repro:noalloc
func (w *Worker) stepNaiveOverlap() error {
	if err := w.postRecvs(); err != nil {
		return err
	}
	if err := w.gatherAndSend(); err != nil {
		return err
	}
	// Local part first — intended to overlap the transfers, but with
	// standard MPI progress semantics nothing moves until waitHalo.
	w.Team.Exec(w.localRegion)
	if err := w.waitHalo(); err != nil {
		return err
	}
	// Y += A_remote·X on the compacted remote matrix: only halo-coupled
	// rows are touched, so the Eq. (2) write-twice penalty scales with the
	// halo.
	w.Team.Exec(w.remoteRegion)
	return nil
}

//repro:noalloc
func (w *Worker) stepTaskMode() error {
	if err := w.postRecvs(); err != nil {
		return err
	}
	if err := w.gatherAndSend(); err != nil {
		return err
	}
	// Functional decomposition on the resident executor: the compiled
	// local-pass region is launched asynchronously on the team while this
	// goroutine — the dedicated communication thread — sits inside the halo
	// wait, driving progress. No per-step goroutine or channel: the
	// rendezvous is the team's own sense-reversing barrier, restarted.
	w.Team.Start(w.localRegion)
	err := w.waitHalo()
	w.Team.Join() // the omp_barrier of Fig. 4c
	if err != nil {
		return err
	}
	// The remote pass stays on the compute threads, whose caches hold Y.
	w.Team.Start(w.remoteRegion)
	w.Team.Join()
	return nil
}
