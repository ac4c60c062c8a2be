package core

import (
	"context"
	"fmt"

	"repro/internal/chanmpi"
)

// Request and ReduceOp are the transport-neutral contract types of the
// distributed runtime. They alias the chanmpi definitions — pure interface
// and enum, with none of the in-process runtime attached — so that
// *chanmpi.Comm satisfies Comm directly. chanmpi is also the matching
// engine of the multi-process tcp transport, whose handles are chanmpi's;
// only the simulator hands out request handles of its own.
type Request = chanmpi.Request

// PersistentRequest is a restartable communication channel bound to a
// fixed (peer, tag, buffer) triple — the MPI_Send_init / MPI_Recv_init
// persistent-request idea. Compile a recurring exchange into persistent
// channels once, then each iteration is Start + Wait with zero per-message
// allocation; the resident Workers compile their whole halo schedule this
// way at construction time.
type PersistentRequest = chanmpi.PersistentRequest

// ReduceOp selects the combining operation of Allreduce.
type ReduceOp = chanmpi.ReduceOp

// Reduction operations understood by every transport.
const (
	OpSum = chanmpi.OpSum
	OpMax = chanmpi.OpMax
	OpMin = chanmpi.OpMin
)

// The shared error taxonomy of the transport contract, aliased from
// chanmpi — the matching engine of the real-time transports — so every
// backend reports the same typed failures: addressing a rank outside the
// world (RankError), a message longer than its receive buffer
// (TruncationError), ranks disagreeing on an Allreduce length
// (MismatchError), and any operation on a failed world (WorldError, which
// unwraps to the first cause).
type (
	RankError       = chanmpi.RankError
	TruncationError = chanmpi.TruncationError
	MismatchError   = chanmpi.MismatchError
	WorldError      = chanmpi.WorldError
)

// ErrWorldClosed is the cause a world records when it is closed, on every
// transport: errors.Is(err, ErrWorldClosed) holds for every operation
// refused or interrupted by a Close.
var ErrWorldClosed = chanmpi.ErrWorldClosed

// Comm is one rank's communicator: the complete message-passing surface the
// kernel modes and the SPMD solvers consume. It decouples internal/core from
// the concrete runtime — *chanmpi.Comm satisfies it as-is, and the other
// backends (internal/tcpmpi over sockets, internal/simnet in virtual time)
// plug in behind a Transport without touching the modes.
//
// The contract is error-first: misuse and transport failures return errors
// instead of panicking, so a network backend can report a lost peer the
// same way the in-process runtime reports a truncated exchange. Errors
// surface through the Cluster and solver entry points; no implementation
// may panic on the paths reachable through this interface.
type Comm interface {
	// Rank returns this rank's id in [0, Size).
	Rank() int
	// Size returns the world size.
	Size() int
	// Isend starts a nonblocking send of data to rank dst with the given
	// tag. Buffered semantics: the caller may reuse data on return.
	Isend(dst, tag int, data []float64) (Request, error)
	// Irecv posts a nonblocking receive into buf for a message from rank
	// src with the given tag.
	Irecv(src, tag int, buf []float64) (Request, error)
	// SendInit creates a persistent send channel to rank dst: each Start
	// transmits the CURRENT contents of buf (MPI_Send_init). The channel
	// is inert until its first Start.
	SendInit(dst, tag int, buf []float64) (PersistentRequest, error)
	// RecvInit creates a persistent receive channel for messages from rank
	// src, delivering into buf on each Start/Wait cycle (MPI_Recv_init).
	RecvInit(src, tag int, buf []float64) (PersistentRequest, error)
	// Waitall blocks until every request has completed (MPI_Waitall) and
	// returns the first error observed.
	Waitall(reqs ...Request) error
	// Barrier blocks until all ranks have entered it.
	Barrier() error
	// Allreduce combines in-vectors elementwise across all ranks; the
	// returned slice may be shared across ranks and must be treated
	// read-only.
	Allreduce(op ReduceOp, in []float64) ([]float64, error)
	// AllreduceScalar combines a single value across all ranks.
	AllreduceScalar(op ReduceOp, v float64) (float64, error)
	// AllgatherInt64 gathers one int64 from every rank, indexed by rank;
	// the result may be shared and must be treated read-only.
	AllgatherInt64(v int64) ([]int64, error)
}

// World is an established message-passing world of Size ranks, of which
// this process owns LocalRanks. The all-local chan world owns every rank;
// a multi-process backend like tcpmpi owns a subset, with the remaining
// ranks living in peer OS processes.
type World interface {
	// Size returns the total number of ranks in the world, across all
	// participating processes.
	Size() int
	// LocalRanks lists the ranks this process owns, ascending. The Cluster
	// spins one resident rank goroutine per local rank; remote ranks are
	// driven by their own processes.
	LocalRanks() []int
	// Comm returns the communicator of a local rank. Asking for a rank
	// this process does not own is an error.
	Comm(rank int) (Comm, error)
	// Fail poisons the world with the given cause: ranks blocked in its
	// communication wake with a *WorldError and subsequent operations
	// refuse. The Cluster calls it when a job body fails on one rank, so
	// peers blocked on that rank unwedge instead of deadlocking. The
	// first cause wins; later calls are no-ops.
	Fail(err error)
	// Close releases the world's resources (goroutines, sockets). Ranks
	// still blocked in it observe a failure rather than wedging. Close is
	// idempotent.
	Close() error
}

// Transport brings up the message-passing world a Cluster runs on.
type Transport interface {
	// Dial establishes (or joins) a world with the given total rank count.
	// It blocks until the world is fully connected — for a multi-process
	// backend, until every peer process has joined — or ctx expires. The
	// world stays valid until its Close.
	Dial(ctx context.Context, size int) (World, error)
}

// ChanTransport is the default Transport: the in-process chanmpi runtime,
// one goroutine-backed rank per communicator, all ranks local.
type ChanTransport struct{}

// Dial creates a chanmpi world owning every rank.
func (ChanTransport) Dial(_ context.Context, size int) (World, error) {
	w, err := chanmpi.NewWorld(size)
	if err != nil {
		return nil, err
	}
	return &chanWorld{w: w}, nil
}

// chanWorld adapts *chanmpi.World to the transport-neutral World contract.
type chanWorld struct {
	w *chanmpi.World
}

func (cw *chanWorld) Size() int { return cw.w.Size() }

func (cw *chanWorld) LocalRanks() []int {
	ranks := make([]int, cw.w.Size())
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}

func (cw *chanWorld) Comm(rank int) (Comm, error) {
	c, err := cw.w.Comm(rank)
	if err != nil {
		return nil, err
	}
	return c, nil
}

func (cw *chanWorld) Fail(err error) { cw.w.Fail(err) }

func (cw *chanWorld) Close() error { return cw.w.Close() }

// validLocalRanks checks a world's local rank list against its size:
// non-empty, strictly ascending, in range.
func validLocalRanks(local []int, size int) error {
	if len(local) == 0 {
		return fmt.Errorf("core: world owns no local ranks")
	}
	for i, r := range local {
		if r < 0 || r >= size {
			return fmt.Errorf("core: local rank %d outside [0,%d)", r, size)
		}
		if i > 0 && local[i-1] >= r {
			return fmt.Errorf("core: local ranks not strictly ascending at %d", r)
		}
	}
	return nil
}

// Interface satisfaction check: the in-process runtime is a valid backend.
var _ Comm = (*chanmpi.Comm)(nil)
