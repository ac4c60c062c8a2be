// Package chanmpi is the message-matching engine of every real-time
// transport, and the in-process runtime built on it: a fixed set of ranks
// with MPI-like semantics — nonblocking point-to-point sends and receives
// matched by (source, tag) in posting order, persistent communication
// channels (SendInit/RecvInit, the MPI_Send_init/Recv_init analogue — see
// persistent.go) whose steady-state Start/Wait cycle allocates nothing,
// and the collectives the distributed SpMV needs (Barrier, Allreduce,
// Allgather) on resident buffers.
//
// A World from NewWorld holds every rank in this process. One from
// NewRangeWorld holds a contiguous range of them and is the local half of
// a multi-process transport (internal/tcpmpi): sends to other ranks go to
// the transport's Link, and the transport files what arrives off its wire
// with Claim (see transport.go). Either way every delivery, local or from
// a wire, goes through the one mailbox per local rank in this file, so
// matching order, buffering, truncation and failure are the same on every
// real-time transport. So is every collective (collective.go): a world's
// ranks combine in shared memory, and only when the world spans several
// processes does one rank per process take the round to the wire, leader
// to leader, through the Link.
//
// It is the functional substitute for MPI in this reproduction: the
// distributed kernels in internal/core run unchanged on top of it and are
// verified numerically. Timing semantics (the paper's "no asynchronous
// progress" observation) are modeled separately by internal/simnet on the
// discrete-event simulator; chanmpi is always asynchronous, as a perfect
// progress engine would be.
//
// The contract is error-first: misuse (invalid rank, Allreduce length
// mismatch) and transport failures (truncation) return typed errors — see
// errors.go — instead of panicking. A failure that breaks an in-flight
// exchange fails the whole world: blocked peers wake with a *WorldError
// wrapping the first cause rather than wedging, the way an MPI error
// aborts the job.
package chanmpi

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// World owns the shared state of a set of communicating ranks: the
// mailboxes of the ranks it holds, [lo, hi), their collective, and the
// Link to the rest.
type World struct {
	size     int
	lo, hi   int
	link     Link          // carries sends to ranks outside [lo, hi); nil when every rank is local
	boxes    []*mailbox    // local rank r → boxes[r-lo]
	departed []atomic.Bool // by rank: its process has left the world (see Depart)
	coll     collective
	failure  *failure
}

// failure is the write-once failure state of a world. The first fail wins;
// its cause is what every subsequent or interrupted operation reports.
type failure struct {
	mu     sync.Mutex
	err    error
	failed atomic.Bool   // set once err is; lets a healthy Err skip the lock
	ch     chan struct{} // closed on first failure; selected on by blocked waits
}

func (f *failure) fail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
		f.failed.Store(true)
		close(f.ch)
	}
}

// load returns the first failure, or nil while the world is healthy.
func (f *failure) load() error {
	if !f.failed.Load() {
		return nil
	}
	return f.cause()
}

func (f *failure) cause() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// NewWorld creates a world with the given number of ranks, all of them
// local.
func NewWorld(size int) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("chanmpi: world size %d < 1", size)
	}
	return NewRangeWorld([]int{0, size}, 0, nil)
}

// NewRangeWorld creates process me's part of a world whose Q processes
// hold consecutive rank ranges: process p holds ranks [bounds[p],
// bounds[p+1]), so bounds starts at 0 and ends at the world size. link
// carries everything sent to the other processes' ranks (see
// transport.go); it may be nil only when there is one process. The
// collectives run over the whole world: the local ranks combine in shared
// memory, and with Q > 1 one of them carries each round to the other
// processes' leaders (see collective.go). Run needs every rank local.
func NewRangeWorld(bounds []int, me int, link Link) (*World, error) {
	q := len(bounds) - 1
	if q < 1 || bounds[0] != 0 {
		return nil, fmt.Errorf("chanmpi: process bounds %v do not start a world at rank 0", bounds)
	}
	for p := 0; p < q; p++ {
		if bounds[p+1] <= bounds[p] {
			return nil, fmt.Errorf("chanmpi: process %d holds no ranks: bounds %v", p, bounds)
		}
	}
	if me < 0 || me >= q {
		return nil, fmt.Errorf("chanmpi: process %d of %d", me, q)
	}
	if q > 1 && link == nil {
		return nil, fmt.Errorf("chanmpi: a world of %d processes needs a Link", q)
	}
	size, lo, hi := bounds[q], bounds[me], bounds[me+1]
	w := &World{
		size:     size,
		lo:       lo,
		hi:       hi,
		link:     link,
		boxes:    make([]*mailbox, hi-lo),
		departed: make([]atomic.Bool, size),
		failure:  &failure{ch: make(chan struct{})},
	}
	for i := range w.boxes {
		w.boxes[i] = &mailbox{}
	}
	w.coll.init(w, bounds, me)
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Err returns the world's first failure, or nil while it is healthy.
func (w *World) Err() error { return w.failure.load() }

// Fail poisons the world with the given cause: every blocked operation
// wakes with a *WorldError and every subsequent operation returns one.
// The first cause wins; later calls are no-ops, except that the Link, if
// any, is aborted on every call.
func (w *World) Fail(err error) {
	w.failure.fail(err)
	// Point-to-point waiters select on failure.ch; ranks blocked in a
	// collective take a token.
	w.coll.wake(nil)
	if w.link != nil {
		w.link.Abort()
	}
}

// Close fails the world with ErrWorldClosed, releasing anything still
// blocked in it. Closing an already-failed or closed world is a no-op.
func (w *World) Close() error {
	w.Fail(ErrWorldClosed)
	return nil
}

// Comm returns the communicator handle of the given local rank.
func (w *World) Comm(rank int) (*Comm, error) {
	if rank < w.lo || rank >= w.hi {
		return nil, &RankError{Op: "Comm", Rank: rank, Size: w.size}
	}
	return &Comm{world: w, rank: rank}, nil
}

// Comm is one rank's communicator handle.
type Comm struct {
	world *World
	rank  int
	// scalarBuf is the resident one-element vector AllreduceScalar and
	// AllgatherInt64 contribute through, so the scalar collectives on every
	// solver iteration's hot path allocate nothing. A Comm handle belongs
	// to one rank goroutine; collectives on it are never concurrent.
	scalarBuf [1]float64
}

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Request is the handle of a nonblocking operation. A send request completes
// when the message has been handed to the runtime (buffered semantics); a
// receive request completes when a matching message has been copied into its
// buffer. Request is an interface so that other transports (the simulator's
// virtual-time runtime) can hand out their own request handles behind the
// same core.Comm contract.
type Request interface {
	// Wait blocks until the operation completes and returns its error:
	// nil on success, a *TruncationError if the exchange was truncated, or
	// a *WorldError if the world failed before completion.
	Wait() error
	// Done reports whether the operation has completed without blocking
	// (MPI_Test).
	Done() bool
}

// request is a receive: one-shot (Irecv) or the resident request of a
// persistent channel (RecvInit, a collective's round edge). Its matching
// state is guarded by the owning mailbox's lock.
type request struct {
	done chan struct{}
	fail *failure
	// n is the number of elements delivered.
	n int
	// Identity for matching: source, tag and namespace (user or
	// collective).
	src, tag int
	coll     bool
	buf      []float64
	matched  bool
	// queued marks a receive filed into its mailbox by the last post; with
	// matched it distinguishes "in flight" (queued — posted, or claimed
	// by a transport reading into buf — and not matched) from
	// "restartable".
	queued bool
	// persistent marks a restartable request: completion sends a token on
	// the buffered done channel instead of closing it, so the same request
	// object restarts forever without reallocating.
	persistent bool
	// err records a delivery error (truncation, a departed source, a
	// failed read); Wait returns it.
	err error
}

// signalDone completes the request: one token for a persistent request
// (consumed by its single Wait, making the channel reusable), a close for
// a one-shot one.
func (r *request) signalDone() {
	if r.persistent {
		r.done <- struct{}{}
	} else {
		close(r.done)
	}
}

func (r *request) Wait() error {
	err, _ := r.waitTimer(nil)
	return err
}

// waitTimer completes like Wait but gives up when tc fires first,
// reporting timedOut without consuming the completion. A nil tc never
// fires.
func (r *request) waitTimer(tc <-chan time.Time) (err error, timedOut bool) {
	if r == nil {
		return nil, false
	}
	select {
	case <-r.done:
		return r.err, false
	case <-r.fail.ch:
	case <-tc:
		timedOut = true
	}
	// A completion that raced the failure or the timer still counts.
	select {
	case <-r.done:
		return r.err, false
	default:
	}
	if timedOut {
		return nil, true
	}
	return &WorldError{Cause: r.fail.load()}, false
}

func (r *request) Done() bool {
	if r == nil {
		return true
	}
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// failWith completes the request with an error. Callers hold the mailbox
// lock.
func (r *request) failWith(err error) {
	r.err = err
	r.matched = true
	r.signalDone()
}

// finish completes the request with the n elements now in its buffer.
// Callers hold the mailbox lock.
func (r *request) finish(n int) {
	r.n = n
	r.matched = true
	r.signalDone()
}

// truncation returns the *TruncationError of an n-element message that
// does not fit the request's buffer, or nil if it fits.
func (r *request) truncation(n int) error {
	if n > len(r.buf) {
		return &TruncationError{Len: n, Cap: len(r.buf), Src: r.src, Tag: r.tag}
	}
	return nil
}

// sentRequest is the handle of a buffered send, complete when it is
// returned. A zero-size value, so handing it out allocates nothing.
type sentRequest struct{}

func (sentRequest) Wait() error { return nil }
func (sentRequest) Done() bool  { return true }

// waitall waits for every request (MPI_Waitall) and returns the first
// error observed, after all requests have been waited on. Nil requests are
// trivially complete.
func waitall(reqs ...Request) error {
	var first error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// waitall waits for every request (MPI_Waitall), as a method so the
// communicator handle alone carries the full point-to-point contract.
func (c *Comm) Waitall(reqs ...Request) error { return waitall(reqs...) }

// mailbox holds the posted receives and unmatched arrivals of one local
// rank. The earliest posted receive with equal (src, tag, coll) wins an
// arrival; the earliest arrival with equal (src, tag, coll) fills a
// receive. Matched entries leave the queues at once. Consumed carriers
// are recycled on a small free ring (payload buffer included), so the
// buffered path stops allocating once the steady-state message sizes have
// been seen.
type mailbox struct {
	mu    sync.Mutex
	recvs []*request
	sends []*inflight
	free  []*inflight // recycled carriers, most recently freed last
}

// inflight is a buffered message: a carrier from the free ring, or a
// persistent send's resident staging copy.
type inflight struct {
	src, tag int
	coll     bool
	data     []float64
	// owned marks a persistent send's staging copy: it belongs to the
	// SendInit channel (pending tracks whether it is buffered here) and
	// never enters the free ring.
	owned   bool
	pending bool
}

// maxFreeCarriers bounds the free ring per mailbox; halo exchanges have a
// handful of peers, so a short ring captures the steady state without
// pinning memory after a burst.
const maxFreeCarriers = 16

// getCarrierLocked returns a recycled carrier whose payload buffer holds n
// elements, growing or allocating only when the ring has nothing suitable.
func (b *mailbox) getCarrierLocked(n int) *inflight {
	for i := len(b.free) - 1; i >= 0; i-- {
		if cap(b.free[i].data) >= n {
			m := b.free[i]
			b.free = slices.Delete(b.free, i, i+1)
			m.data = m.data[:n]
			return m
		}
	}
	if len(b.free) > 0 {
		// Reuse the struct, grow its buffer.
		m := b.free[len(b.free)-1]
		b.free = b.free[:len(b.free)-1]
		m.data = make([]float64, n)
		return m
	}
	return &inflight{data: make([]float64, n)}
}

// putCarrierLocked returns a consumed carrier to the ring.
func (b *mailbox) putCarrierLocked(m *inflight) {
	if m.owned || len(b.free) >= maxFreeCarriers {
		return
	}
	b.free = append(b.free, m)
}

// matchLocked returns the index in recvs of the earliest posted receive
// matching (src, tag, coll), or -1.
func (b *mailbox) matchLocked(src, tag int, coll bool) int {
	for i, r := range b.recvs {
		if r.src == src && r.tag == tag && r.coll == coll {
			return i
		}
	}
	return -1
}

// deliverLocked copies data into r and completes it — or, if data does not
// fit, fails the world and then r with a *TruncationError, leaving r's
// buffer untouched. Failing the world first means no Wait can report the
// truncation while the world still looks healthy. Callers hold r's mailbox
// lock and, on an error, call Fail once they have released it.
func (w *World) deliverLocked(r *request, data []float64) error {
	if err := r.truncation(len(data)); err != nil {
		w.failure.fail(err)
		r.failWith(err)
		return err
	}
	copy(r.buf, data)
	r.finish(len(data))
	return nil
}

// send hands data from local rank src to rank dst under (tag, coll):
// straight into the earliest matching posted receive when dst is local,
// else buffered through a recycled carrier — or through stage, a
// persistent send's resident staging copy, when it is non-nil and free —
// and to the Link when dst lives elsewhere. Buffered semantics: the caller
// may reuse data as soon as send returns. A truncation fails the world.
func (w *World) send(op string, src, dst, tag int, coll bool, data []float64, stage *inflight) error {
	if dst < 0 || dst >= w.size {
		return &RankError{Op: op, Rank: dst, Size: w.size}
	}
	if err := w.failure.load(); err != nil {
		return &WorldError{Cause: err}
	}
	if dst < w.lo || dst >= w.hi {
		return w.link.Send(src, dst, tag, coll, data)
	}
	box := w.boxes[dst-w.lo]
	box.mu.Lock()
	if i := box.matchLocked(src, tag, coll); i >= 0 {
		r := box.recvs[i]
		box.recvs = slices.Delete(box.recvs, i, i+1)
		err := w.deliverLocked(r, data)
		box.mu.Unlock()
		if err != nil {
			// Fail outside the mailbox lock: Fail wakes waiters and aborts
			// the Link, neither of which may run under it.
			w.Fail(err)
		}
		return err
	}
	m := stage
	if m == nil || m.pending {
		m = box.getCarrierLocked(len(data))
	} else {
		if cap(m.data) < len(data) {
			m.data = make([]float64, len(data))
		}
		m.data = m.data[:len(data)]
		m.pending = true
	}
	m.src, m.tag, m.coll = src, tag, coll
	copy(m.data, data)
	box.sends = append(box.sends, m)
	box.mu.Unlock()
	return nil
}

// postLocked files a new or restarted receive into box, the mailbox of
// local rank dst, whose lock the caller holds; postLocked releases it. The
// earliest buffered arrival with r's (src, tag, coll) fills r at once.
// That scan runs before the failure check, so a message that arrived
// before the world failed stays receivable (a lagging rank can consume the
// last messages of a completed exchange after a peer has left). Otherwise
// r is refused on a failed world or a departed source, and queued if
// neither. A caller tells "completed with an error" (truncation) from
// "refused" by r.matched.
func (w *World) postLocked(box *mailbox, r *request) error {
	for i, m := range box.sends {
		if m.src != r.src || m.tag != r.tag || m.coll != r.coll {
			continue
		}
		box.sends = slices.Delete(box.sends, i, i+1)
		m.pending = false
		err := w.deliverLocked(r, m.data)
		box.putCarrierLocked(m)
		box.mu.Unlock()
		if err != nil {
			w.Fail(err)
		}
		return err
	}
	if err := w.failure.load(); err != nil {
		box.mu.Unlock()
		return &WorldError{Cause: err}
	}
	if w.departed[r.src].Load() {
		box.mu.Unlock()
		return departedError(r.src)
	}
	r.queued = true
	box.recvs = append(box.recvs, r)
	box.mu.Unlock()
	return nil
}

// Isend starts a nonblocking send of data to rank dst with the given tag.
// The runtime copies the payload immediately (buffered send), so the caller
// may reuse data as soon as Isend returns; the returned request is already
// complete and exists for symmetry with MPI call sites. A truncation
// detected at match time is returned, and fails the world.
func (c *Comm) Isend(dst, tag int, data []float64) (Request, error) {
	if err := c.world.send("Isend", c.rank, dst, tag, false, data, nil); err != nil {
		return nil, err
	}
	return sentRequest{}, nil
}

// Irecv posts a nonblocking receive into buf for a message from rank src
// with the given tag. The message length must not exceed len(buf); a longer
// message is a truncation error, reported through the request (and, when
// matched immediately, from Irecv itself) and failing the world, matching
// MPI's error semantics.
func (c *Comm) Irecv(src, tag int, buf []float64) (Request, error) {
	w := c.world
	if src < 0 || src >= w.size {
		return nil, &RankError{Op: "Irecv", Rank: src, Size: w.size}
	}
	r := &request{done: make(chan struct{}), fail: w.failure, src: src, tag: tag, buf: buf}
	box := w.boxes[c.rank-w.lo]
	box.mu.Lock()
	if err := w.postLocked(box, r); err != nil {
		if r.matched {
			return r, err
		}
		return nil, err
	}
	return r, nil
}

// departedError is the error of a receive whose source has left the world.
func departedError(src int) error {
	return fmt.Errorf("chanmpi: the process owning rank %d closed its world before the message arrived", src)
}

// ReduceOp selects the combining operation of Allreduce.
type ReduceOp int

const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

// Combine applies the reduction pairwise. Exported so every fold — this
// engine's collectives and any reference fold checked against them — uses
// the identical operation table: a private copy could silently diverge on
// a newly added op and break bit-identity. Unknown ops sum.
//
//repro:api the one reduction table; reference folds use it and rankorder finds combine loops by its calls
func (op ReduceOp) Combine(a, b float64) float64 {
	switch op {
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	default:
		return a + b
	}
}
