package chanmpi

import (
	"slices"
	"time"
)

// The seam a multi-process transport (internal/tcpmpi) builds on. Its
// process holds a range of a world's ranks in a World from NewRangeWorld;
// the engine matches and buffers for them exactly as for an all-local
// world, and runs their collectives (collective.go), whose wire rounds go
// leader to leader in a matching namespace apart from user tags. The
// transport supplies only the wire and its policy: a Link that carries
// sends to ranks elsewhere and bounds collective waits, Claim/Done to
// file what arrives, and Depart when a peer process leaves.

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
	// Await blocks local rank `rank` on s, one wait inside a collective,
	// under the transport's wait policy, and returns s's error. A policy
	// that gives up on s names s.Suspect in an error of its own, fails the
	// world with it and returns it.
	Await(rank int, s Step) error
}

// Step is one wait inside a collective: a local rank waiting for its round
// to complete, or the wire rank waiting on a round edge from another
// process's leader.
type Step interface {
	// Wait blocks until the step completes and returns its error, or a
	// *WorldError if the world fails first. It gives up when timeout fires
	// first and reports timedOut, without consuming the completion. A nil
	// timeout never fires.
	Wait(timeout <-chan time.Time) (err error, timedOut bool)
	// Suspect names the ranks [lo, hi) the step is waiting on: for a round
	// edge (remote true) the source process's ranks, for a local rank the
	// first local rank that has not entered the round. It is empty when
	// no one is to blame: every local rank has entered, and the round is
	// on the wire, where its own edges are bounded.
	Suspect() (lo, hi int, remote bool)
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
