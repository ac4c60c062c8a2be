// Package chanmpi is an in-process message-passing runtime with MPI-like
// semantics: a fixed set of ranks (goroutines), nonblocking point-to-point
// sends and receives matched by (source, tag) in posting order, persistent
// communication channels (SendInit/RecvInit, the MPI_Send_init/Recv_init
// analogue — see persistent.go) whose steady-state Start/Wait cycle
// allocates nothing, and the collectives the distributed SpMV needs
// (Barrier, Allreduce, Allgather) on resident buffers.
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
	"errors"
	"fmt"
	"sync"
)

// World owns the shared state of a set of communicating ranks.
type World struct {
	size     int
	boxes    []*mailbox
	barrier  *barrier
	reducer  *reducer
	gatherer *gatherer
	failure  *failure
}

// failure is the write-once failure state of a world. The first fail wins;
// its cause is what every subsequent or interrupted operation reports.
type failure struct {
	mu  sync.Mutex
	err error
	ch  chan struct{} // closed on first failure; selected on by blocked waits
}

func (f *failure) fail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
		close(f.ch)
	}
}

// Err returns the first failure, or nil while the world is healthy.
func (f *failure) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// NewWorld creates a world with the given number of ranks.
func NewWorld(size int) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("chanmpi: world size %d < 1", size)
	}
	w := &World{
		size:     size,
		boxes:    make([]*mailbox, size),
		barrier:  newBarrier(size),
		reducer:  newReducer(size),
		gatherer: newGatherer(size),
		failure:  &failure{ch: make(chan struct{})},
	}
	for i := range w.boxes {
		w.boxes[i] = &mailbox{}
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Err returns the world's first failure, or nil while it is healthy.
func (w *World) Err() error { return w.failure.Err() }

// Fail poisons the world with the given cause: every blocked operation
// wakes with a *WorldError and every subsequent operation returns one.
// The first cause wins; later calls are no-ops.
func (w *World) Fail(err error) {
	w.failure.fail(err)
	// Wake collective waiters. Broadcasting under each collective's lock
	// closes the race against a waiter that checked Err just before
	// entering cond.Wait (Wait releases the lock atomically, so holding it
	// here means the waiter is either before the check or already parked).
	w.barrier.mu.Lock()
	w.barrier.cond.Broadcast()
	w.barrier.mu.Unlock()
	w.reducer.mu.Lock()
	w.reducer.cond.Broadcast()
	w.reducer.mu.Unlock()
	w.gatherer.mu.Lock()
	w.gatherer.cond.Broadcast()
	w.gatherer.mu.Unlock()
	// Point-to-point waiters select on failure.ch directly.
}

// Close fails the world with ErrWorldClosed, releasing anything still
// blocked in it. Closing an already-failed or closed world is a no-op.
func (w *World) Close() error {
	w.Fail(ErrWorldClosed)
	return nil
}

// Comm returns the communicator handle of the given rank.
func (w *World) Comm(rank int) (*Comm, error) {
	if rank < 0 || rank >= w.size {
		return nil, &RankError{Op: "Comm", Rank: rank, Size: w.size}
	}
	return &Comm{world: w, rank: rank}, nil
}

// Run spawns one goroutine per rank executing body and blocks until all
// ranks return. A rank that returns an error (or panics; panics are
// recovered into errors) fails the world, so peers blocked on it unwedge
// with a *WorldError instead of deadlocking. Run returns the primary
// failure: the first rank error that is not itself a secondary
// world-failure report.
func (w *World) Run(body func(c *Comm) error) error {
	var wg sync.WaitGroup
	errs := make([]error, w.size)
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("chanmpi: rank %d panicked: %v", r, p)
				}
				if errs[r] != nil {
					w.Fail(errs[r])
				}
			}()
			errs[r] = body(&Comm{world: w, rank: r})
		}(r)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var we *WorldError
		if !errors.As(err, &we) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// Comm is one rank's communicator handle.
type Comm struct {
	world *World
	rank  int
	// scalarBuf is the resident one-element vector AllreduceScalar
	// contributes through, so the scalar reductions on every solver
	// iteration's hot path allocate nothing. A Comm handle belongs to one
	// rank goroutine; collectives on it are never concurrent.
	scalarBuf [1]float64
}

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Request is the handle of a nonblocking operation. A send request completes
// when the message has been handed to the runtime (buffered semantics); a
// receive request completes when a matching message has been copied into its
// buffer. Request is an interface so that alternative transports (the
// multi-process TCP backend in internal/tcpmpi, a simulator re-enactment)
// can hand out their own request handles behind the same core.Comm contract.
type Request interface {
	// Wait blocks until the operation completes and returns its error:
	// nil on success, a *TruncationError if the exchange was truncated, or
	// a *WorldError if the world failed before completion.
	Wait() error
	// Done reports whether the operation has completed without blocking
	// (MPI_Test).
	Done() bool
}

// request is the chanmpi-backed Request implementation.
type request struct {
	done chan struct{}
	fail *failure
	// For receives: number of elements delivered.
	n int
	// Identity for matching (receives queued at the destination).
	src, tag int
	buf      []float64
	matched  bool
	// queued marks a persistent receive as having been Started at least
	// once; with matched it distinguishes "still in flight" (queued, not
	// matched) from "restartable" (guarded by the mailbox lock).
	queued bool
	// persistent marks a restartable request (RecvInit): completion sends a
	// token on the buffered done channel instead of closing it, so the same
	// request object restarts forever without reallocating.
	persistent bool
	// err records a delivery error (truncation); Wait returns it so both
	// endpoints observe the failure, as an MPI error would abort both.
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
	if r == nil {
		return nil
	}
	select {
	case <-r.done:
		return r.err
	case <-r.fail.ch:
		// The world failed; the match may never arrive. A completion that
		// raced the failure still counts.
		select {
		case <-r.done:
			return r.err
		default:
			return &WorldError{Cause: r.fail.Err()}
		}
	}
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

// Waitall waits for every request (MPI_Waitall) and returns the first
// error observed, after all requests have been waited on. Nil requests are
// trivially complete.
func Waitall(reqs ...Request) error {
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

// Waitall waits for every request (MPI_Waitall), as a method so the
// communicator handle alone carries the full point-to-point contract.
func (c *Comm) Waitall(reqs ...Request) error { return Waitall(reqs...) }

// mailbox holds the unmatched messages and posted receives of one rank.
type mailbox struct {
	mu sync.Mutex
	// recvs are posted, unmatched receive requests in posting order.
	recvs []*request
	// sends are arrived, unmatched messages in arrival order.
	sends []*inflight
}

// deliverToPostedLocked delivers data to the earliest posted receive with
// the same (src, tag) — the single matching rule shared by one-shot Isend
// and persistent psend.Start. Returns whether a receive matched and the
// delivery error; callers hold the mailbox lock and must release it before
// failing the world on the error.
func (b *mailbox) deliverToPostedLocked(src, tag int, data []float64) (bool, error) {
	for _, rr := range b.recvs {
		if rr.matched || rr.src != src || rr.tag != tag {
			continue
		}
		err := deliver(rr, data)
		b.compactLocked()
		return true, err
	}
	return false, nil
}

// takeBufferedLocked consumes the earliest buffered message with req's
// (src, tag) and delivers it — the single matching rule shared by one-shot
// Irecv and persistent precv.Start. Returns whether a message matched and
// the delivery error; same locking contract as deliverToPostedLocked.
func (b *mailbox) takeBufferedLocked(req *request) (bool, error) {
	for i, m := range b.sends {
		if m == nil || m.src != req.src || m.tag != req.tag {
			continue
		}
		b.sends[i] = nil
		m.pending = false
		err := deliver(req, m.data)
		b.compactLocked()
		return true, err
	}
	return false, nil
}

type inflight struct {
	src, tag int
	data     []float64
	// pending marks a persistent send's resident staging copy as still
	// buffered in a mailbox; cleared (under the mailbox lock) when the
	// message is consumed, so the owning SendInit request can reuse it.
	pending bool
}

// Isend starts a nonblocking send of data to rank dst with the given tag.
// The runtime copies the payload immediately (buffered send), so the caller
// may reuse data as soon as Isend returns; the returned request is already
// complete and exists for symmetry with MPI call sites. A truncation
// detected at match time is returned immediately (and recorded on the
// request), and fails the world.
func (c *Comm) Isend(dst, tag int, data []float64) (Request, error) {
	if dst < 0 || dst >= c.world.size {
		return nil, &RankError{Op: "Isend", Rank: dst, Size: c.world.size}
	}
	if err := c.world.failure.Err(); err != nil {
		return nil, &WorldError{Cause: err}
	}
	req := &request{done: make(chan struct{}), fail: c.world.failure}
	box := c.world.boxes[dst]
	box.mu.Lock()
	if ok, err := box.deliverToPostedLocked(c.rank, tag, data); ok {
		box.mu.Unlock()
		req.err = err
		close(req.done)
		if err != nil {
			// Fail outside the mailbox lock: poisoning the mailbox while
			// holding it would deadlock every other rank touching it
			// instead of propagating the failure.
			c.world.Fail(err)
		}
		return req, err
	}
	// No receive posted yet: buffer a copy.
	box.sends = append(box.sends, &inflight{src: c.rank, tag: tag, data: append([]float64(nil), data...)})
	box.mu.Unlock()
	close(req.done)
	return req, nil
}

// Irecv posts a nonblocking receive into buf for a message from rank src
// with the given tag. The message length must not exceed len(buf); a longer
// message is a truncation error, reported through the request (and, when
// matched immediately, from Irecv itself) and failing the world, matching
// MPI's error semantics.
func (c *Comm) Irecv(src, tag int, buf []float64) (Request, error) {
	if src < 0 || src >= c.world.size {
		return nil, &RankError{Op: "Irecv", Rank: src, Size: c.world.size}
	}
	if err := c.world.failure.Err(); err != nil {
		return nil, &WorldError{Cause: err}
	}
	req := &request{done: make(chan struct{}), fail: c.world.failure, src: src, tag: tag, buf: buf}
	box := c.world.boxes[c.rank]
	box.mu.Lock()
	if ok, err := box.takeBufferedLocked(req); ok {
		box.mu.Unlock()
		if err != nil {
			c.world.Fail(err)
		}
		return req, err
	}
	box.recvs = append(box.recvs, req)
	box.mu.Unlock()
	return req, nil
}

// deliver copies data into the receive buffer and completes the request.
// Callers hold the destination mailbox lock; on a truncation error they
// must RELEASE it before failing the world.
func deliver(r *request, data []float64) error {
	if len(data) > len(r.buf) {
		err := &TruncationError{Len: len(data), Cap: len(r.buf), Src: r.src, Tag: r.tag}
		r.err = err
		r.matched = true
		r.signalDone()
		return err
	}
	copy(r.buf, data)
	r.n = len(data)
	r.matched = true
	r.signalDone()
	return nil
}

// compactLocked removes matched receives and consumed sends.
func (b *mailbox) compactLocked() {
	recvs := b.recvs[:0]
	for _, r := range b.recvs {
		if !r.matched {
			recvs = append(recvs, r)
		}
	}
	b.recvs = recvs
	sends := b.sends[:0]
	for _, s := range b.sends {
		if s != nil {
			sends = append(sends, s)
		}
	}
	b.sends = sends
}

// Send is a blocking send (trivially complete under buffered semantics).
func (c *Comm) Send(dst, tag int, data []float64) error {
	req, err := c.Isend(dst, tag, data)
	if err != nil {
		return err
	}
	return req.Wait()
}

// Recv is a blocking receive; it returns the element count.
func (c *Comm) Recv(src, tag int, buf []float64) (int, error) {
	req, err := c.Irecv(src, tag, buf)
	if err != nil {
		return 0, err
	}
	if err := req.Wait(); err != nil {
		return 0, err
	}
	return req.(*request).n, nil
}

// Barrier blocks until all ranks have entered it. On a failed world it
// returns a *WorldError instead of blocking forever.
func (c *Comm) Barrier() error {
	return c.world.barrier.await(c.world.failure)
}

// ReduceOp selects the combining operation of Allreduce.
type ReduceOp int

const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

// Combine applies the reduction pairwise. Exported so every transport
// (tcpmpi's tree reduction, future backends) folds with the identical
// operation table — a transport-private copy could silently diverge on a
// newly added op and break cross-transport bit-identity. Unknown ops sum.
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

// Allreduce combines in-vectors elementwise across all ranks and returns
// the combined vector (the same backing array is returned to every rank;
// callers must treat it as read-only, and it stays valid only until this
// rank's next collective operation — the rounds reuse one resident result
// buffer, so the steady-state reduction path allocates nothing). The
// combine runs in canonical rank order 0,1,…,Size-1 once every rank has
// contributed, so the result is bit-deterministic across runs — and
// bit-identical to any other transport using the same canonical order
// (tcpmpi's tree reduction does). Ranks must agree on the vector length: a
// mismatch returns a *MismatchError to the offending rank and fails the
// world, so peers blocked in the round observe a *WorldError.
func (c *Comm) Allreduce(op ReduceOp, in []float64) ([]float64, error) {
	res, err := c.world.reducer.allreduce(op, in, c.rank, c.world.failure)
	if err != nil {
		if _, ok := err.(*MismatchError); ok {
			// Fail outside the reducer lock (allreduce has released it).
			c.world.Fail(err)
		}
		return nil, err
	}
	return res, nil
}

// AllreduceScalar combines a single value across all ranks. It contributes
// through the communicator's resident one-element buffer, so the scalar
// reductions riding every solver iteration allocate nothing.
func (c *Comm) AllreduceScalar(op ReduceOp, v float64) (float64, error) {
	c.scalarBuf[0] = v
	res, err := c.Allreduce(op, c.scalarBuf[:])
	if err != nil {
		return 0, err
	}
	return res[0], nil
}

// AllgatherInt64 gathers one int64 from every rank; the result is indexed
// by rank, shared read-only across ranks, and valid until this rank's next
// collective (the rounds alternate between two resident buffers).
func (c *Comm) AllgatherInt64(v int64) ([]int64, error) {
	return c.world.gatherer.gather(c.rank, v, c.world.failure)
}

// barrier is a reusable generation-counting barrier.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	size  int
	count int
	gen   uint64
}

func newBarrier(size int) *barrier {
	b := &barrier{size: size}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await(f *failure) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := f.Err(); err != nil {
		return &WorldError{Cause: err}
	}
	gen := b.gen
	b.count++
	if b.count == b.size {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return nil
	}
	for gen == b.gen {
		b.cond.Wait()
		if err := f.Err(); err != nil {
			return &WorldError{Cause: err}
		}
	}
	return nil
}

// reducer implements Allreduce by collecting every rank's vector and
// combining them in canonical rank order when the round completes, so the
// floating-point result is bit-deterministic regardless of arrival order.
// A round cannot overlap the next because every rank participates exactly
// once per round. Both the per-rank collection buffers AND the result
// buffer persist across rounds (reductions sit on every solver iteration's
// hot path), so a steady-state round allocates nothing. Reusing the result
// is safe because every rank must contribute to round k+1 before its
// combine can overwrite the buffer, and a rank can only do so after it has
// consumed round k's result — hence the contract that the returned slice
// is valid only until the rank's next collective.
type reducer struct {
	mu    sync.Mutex
	cond  *sync.Cond
	size  int
	count int
	gen   uint64
	refLn int // vector length of the round's first arrival
	vecs  [][]float64
	res   []float64
}

func newReducer(size int) *reducer {
	r := &reducer{size: size}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// allreduce returns the combined vector, a *MismatchError for the rank
// whose vector length disagrees with the round (the caller fails the world
// afterwards, outside the reducer lock), or a *WorldError if the world
// failed while this rank was blocked in the round.
//
//repro:noalloc
func (r *reducer) allreduce(op ReduceOp, in []float64, rank int, f *failure) ([]float64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := f.Err(); err != nil {
		return nil, &WorldError{Cause: err}
	}
	if r.count == 0 {
		if r.vecs == nil {
			r.vecs = make([][]float64, r.size) //repro:alloc-ok once-per-world collection table
		}
		r.refLn = len(in)
	} else if len(in) != r.refLn {
		return nil, &MismatchError{Got: len(in), Want: r.refLn}
	}
	buf := r.vecs[rank]
	if cap(buf) < len(in) {
		buf = make([]float64, len(in)) //repro:alloc-ok grow-once resident buffer
	} else {
		buf = buf[:len(in)]
	}
	copy(buf, in)
	r.vecs[rank] = buf
	r.count++
	if r.count == r.size {
		// Canonical rank-order combine: 0 ⊕ 1 ⊕ … ⊕ size-1, into the
		// resident result buffer (distinct from the collection buffers).
		if cap(r.res) < len(in) {
			r.res = make([]float64, len(in)) //repro:alloc-ok grow-once resident buffer
		}
		acc := r.res[:len(in)]
		copy(acc, r.vecs[0])
		for q := 1; q < r.size; q++ {
			for i, v := range r.vecs[q] {
				acc[i] = op.Combine(acc[i], v)
			}
		}
		r.count = 0
		r.res = acc
		r.gen++
		r.cond.Broadcast()
		return r.res, nil
	}
	gen := r.gen
	for gen == r.gen {
		r.cond.Wait()
		if err := f.Err(); err != nil {
			return nil, &WorldError{Cause: err}
		}
	}
	return r.res, nil
}

// gatherer implements AllgatherInt64 analogously.
type gatherer struct {
	mu    sync.Mutex
	cond  *sync.Cond
	size  int
	count int
	gen   uint64
	acc   []int64
	res   []int64
}

func newGatherer(size int) *gatherer {
	g := &gatherer{size: size}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gatherer) gather(rank int, v int64, f *failure) ([]int64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := f.Err(); err != nil {
		return nil, &WorldError{Cause: err}
	}
	if g.count == 0 && g.acc == nil {
		g.acc = make([]int64, g.size)
	}
	g.acc[rank] = v
	g.count++
	if g.count == g.size {
		g.count = 0
		// Swap the accumulator and the previous result: callers may still
		// read the last round's slice until their next collective, while
		// the next round collects into the other buffer.
		g.res, g.acc = g.acc, g.res
		g.gen++
		g.cond.Broadcast()
		return g.res, nil
	}
	gen := g.gen
	for gen == g.gen {
		g.cond.Wait()
		if err := f.Err(); err != nil {
			return nil, &WorldError{Cause: err}
		}
	}
	return g.res, nil
}
