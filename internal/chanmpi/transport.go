package chanmpi

import (
	"slices"
	"time"
)

// The seam a multi-process transport (internal/tcpmpi) builds on. Its
// process holds a range of a world's ranks in a World from NewRangeWorld;
// the engine matches and buffers for them exactly as for an all-local
// world, and the transport supplies only the wire: a Link that carries
// sends to ranks elsewhere, Claim/Done to file what arrives, and Depart
// when a peer process leaves. Its collectives are its own, over
// CollRecvInit and CollSend in a matching namespace apart from user tags.

// Link carries a range world's traffic to the ranks it does not hold.
type Link interface {
	// Send transmits data from local rank src to rank dst, which lives in
	// another process, in the user (coll false) or collective matching
	// namespace. Buffered semantics: data may be reused once Send
	// returns. Its error goes to the sender as is; whether it fails the
	// world is the link's decision.
	Send(src, dst, tag int, coll bool, data []float64) error
	// Abort releases the link's resources once the world has failed. Every
	// Fail calls it, so it must be idempotent.
	Abort()
}

// Inbound is a message from another process on its way into local memory:
// a claimed posted receive or, with none posted, a carrier. The transport
// reads the payload into Buf outside the mailbox lock, then calls Done.
type Inbound struct {
	w   *World
	box *mailbox
	r   *request  // the claimed receive, or nil
	m   *inflight // the carrier, when r is nil
	// Buf is where the message's elements go.
	Buf []float64
}

// Claim prepares the delivery of an n-element message from rank src to
// local rank dst under (tag, coll). It claims the earliest matching posted
// receive — taken off the queue but not matched, so no other message can
// match it and Start refuses to restart it — or, with none posted, takes a
// recycled carrier. A message too long for the claimed receive is decided
// here, before any element is read: the world fails, then the receive,
// with the returned *TruncationError. Messages from one source must be
// claimed and done one at a time, in arrival order; that keeps the
// per-(src, tag, coll) order.
//
//repro:noalloc
func (w *World) Claim(src, dst, tag int, coll bool, n int) (Inbound, error) {
	box := w.boxes[dst-w.lo]
	box.mu.Lock()
	defer box.mu.Unlock()
	if i := box.matchLocked(src, tag, coll); i >= 0 {
		r := box.recvs[i]
		box.recvs = slices.Delete(box.recvs, i, i+1)
		if err := r.truncation(n); err != nil {
			w.failure.fail(err)
			r.failWith(err)
			return Inbound{}, err
		}
		return Inbound{w: w, box: box, r: r, Buf: r.buf[:n]}, nil
	}
	m := box.getCarrierLocked(n)
	m.src, m.tag, m.coll = src, tag, coll
	return Inbound{w: w, box: box, m: m, Buf: m.data}, nil
}

// Done finishes the delivery. readErr is the failure of the read into Buf,
// if any: a claimed receive then fails, after the world, with readErr, and
// a carrier is dropped. Otherwise the claimed receive completes, or the
// carrier goes to the earliest matching receive posted while it was being
// filled — the only one that can be, since a receive posted earlier would
// have been claimed — and is buffered if there is none. Done returns
// readErr or that receive's truncation; the caller fails the world on
// either.
//
//repro:noalloc
func (in Inbound) Done(readErr error) error {
	box := in.box
	box.mu.Lock()
	defer box.mu.Unlock()
	if r := in.r; r != nil {
		if readErr != nil {
			in.w.failure.fail(readErr)
			r.failWith(readErr)
		} else {
			r.finish(len(in.Buf))
		}
		return readErr
	}
	if readErr != nil {
		return readErr
	}
	m := in.m
	if i := box.matchLocked(m.src, m.tag, m.coll); i >= 0 {
		r := box.recvs[i]
		box.recvs = slices.Delete(box.recvs, i, i+1)
		err := in.w.deliverLocked(r, m.data)
		box.putCarrierLocked(m)
		return err
	}
	box.sends = append(box.sends, m) //repro:alloc-ok grows to the high-water count of buffered arrivals
	return nil
}

// Depart records that ranks [lo, hi) have left the world — their process
// closed it. Every receive posted from one of them fails, and later posts
// from them are refused, with an error naming the rank; a message they
// sent before leaving that is still buffered stays receivable.
func (w *World) Depart(lo, hi int) {
	for r := lo; r < hi; r++ {
		w.departed[r].Store(true)
	}
	for _, box := range w.boxes {
		box.mu.Lock()
		box.recvs = slices.DeleteFunc(box.recvs, func(r *request) bool {
			if r.src < lo || r.src >= hi {
				return false
			}
			r.failWith(departedError(r.src))
			return true
		})
		box.mu.Unlock()
	}
}

// CollRecv is a persistent receive in the collective namespace, where a
// transport's collectives match apart from user tags. Unlike RecvInit's
// channel it binds its buffer per Start, so one channel serves rounds of
// every length.
type CollRecv struct{ p precv }

// CollRecvInit creates a collective-namespace persistent receive from rank
// src under tag. It is inert until its first Start.
func (c *Comm) CollRecvInit(src, tag int) *CollRecv {
	return &CollRecv{p: c.newPrecv(src, tag, true, nil)}
}

// Start posts the receive into buf; the rules are PersistentRequest's.
func (r *CollRecv) Start(buf []float64) error { return r.p.startInto(buf) }

// Wait blocks like PersistentRequest.Wait, but gives up when timeout fires
// first and reports timedOut without consuming the completion. A nil
// timeout never fires.
func (r *CollRecv) Wait(timeout <-chan time.Time) (err error, timedOut bool) {
	return r.p.req.waitTimer(timeout)
}

// Len returns the number of elements the last completed transfer
// delivered.
func (r *CollRecv) Len() int { return r.p.req.n }

// CollSend sends data to rank dst in the collective namespace under tag,
// with Isend's buffered semantics.
func (c *Comm) CollSend(dst, tag int, data []float64) error {
	return c.world.send("CollSend", c.rank, dst, tag, true, data, nil)
}
