package simnet

import (
	"repro/internal/core"
	"repro/internal/fluid"

	"repro/internal/des"
)

// ckey identifies one ordered message channel (src, dst, tag). Matching is
// FIFO per channel, like every MPI implementation, which is what makes
// payload results deterministic regardless of event interleaving.
type ckey struct{ src, dst, tag int }

func (k ckey) less(o ckey) bool {
	if k.src != o.src {
		return k.src < o.src
	}
	if k.dst != o.dst {
		return k.dst < o.dst
	}
	return k.tag < o.tag
}

// queue is a FIFO with head compaction so steady-state push/pop reuses the
// same backing array.
type queue[T any] struct {
	items []T
	head  int
}

//repro:noalloc
func (q *queue[T]) push(v T) {
	q.items = append(q.items, v) //repro:alloc-ok backing array grows once to high-water mark
}

//repro:noalloc
func (q *queue[T]) pop() (T, bool) {
	var zero T
	if q.head == len(q.items) {
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v, true
}

//repro:noalloc
func (q *queue[T]) len() int { return len(q.items) - q.head }

// sq returns (creating on first use) the send queue of a channel.
//
//repro:noalloc
func (w *world) sq(k ckey) *queue[*msg] {
	if q, ok := w.sendQ[k]; ok {
		return q
	}
	q := &queue[*msg]{} //repro:alloc-ok one queue per channel, cached forever
	w.sendQ[k] = q      //repro:alloc-ok grow-once channel map
	return q
}

//repro:noalloc
func (w *world) rq(k ckey) *queue[*rpost] {
	if q, ok := w.recvQ[k]; ok {
		return q
	}
	q := &queue[*rpost]{} //repro:alloc-ok one queue per channel, cached forever
	w.recvQ[k] = q        //repro:alloc-ok grow-once channel map
	return q
}

// msg is one in-flight message. Transient Isends allocate one per call
// (alloc-ok: the runtime's hot paths use persistent channels); persistent
// sends keep resident or pooled msgs with resident event closures.
type msg struct {
	w        *world
	src, dst int
	tag      int

	eager bool    // wire size below the eager threshold
	wireB float64 // modeled bytes on the wire (payload + header)
	data  []float64
	n     int

	owner *psend // pooled eager persistent-send msgs return here

	matched   bool
	placed    bool // payload already sits in post.buf (eager send that met a posted receive)
	started   bool // transfer scheduled (guards double-start from stall lists)
	arrived   bool // payload has reached the receiver in virtual time
	delivered bool

	post *rpost
	path *pathEnt
	flow *fluid.Flow

	// sendSig, when non-nil (rendezvous persistent sends), fires at
	// delivery so the sender's Wait models a blocking MPI_Wait.
	sendSig *des.Signal

	flowStartFn func() // resident: begin the fluid flow
	arriveFn    func() // resident: flow done → payload arrived
}

// newMsg wires the resident event closures.
func (w *world) newMsg() *msg {
	m := &msg{w: w}
	m.flowStartFn = func() { w.flowStart(m) }
	m.arriveFn = func() { w.arrive(m) }
	return m
}

// rpost is one posted receive: transient (Irecv) or resident (RecvInit).
type rpost struct {
	c        *comm
	src, tag int
	buf      []float64
	sig      *des.Signal
	err      error
	n        int // elements delivered
	matched  bool
	queued   bool // posted and not yet matched (precv in-flight guard)
	gen      int  // posting generation; retires stale deadline watch entries
	m        *msg // the matched message, for deadline attribution
}

// wireBytes is the modeled on-wire size of an n-element message: payload
// plus a fixed per-message header.
const msgHeaderB = 64.0

//repro:noalloc
func wireBytes(n int) float64 { return 8*float64(n) + msgHeaderB }

// send enters a message into the world: eager transfers launch
// immediately (buffered semantics — the §3 eager protocol needs no
// receiver participation), then the message matches a posted receive or
// queues. Caller holds w.mu.
//
//repro:noalloc
func (w *world) send(m *msg) {
	w.stuck = 0 // a fresh post is real progress for the deadline backstop
	m.path = w.pathFor(m.src, m.dst)
	if m.eager {
		m.started = true
		w.sim.After(m.path.lat+w.extraLat(m.src), m.flowStartFn)
	}
	k := ckey{m.src, m.dst, m.tag}
	if p, ok := w.rq(k).pop(); ok {
		w.match(m, p)
		return
	}
	w.sq(k).push(m)
}

// recv posts a receive: matches the oldest queued message on its channel
// or queues. Caller holds w.mu.
//
//repro:noalloc
func (w *world) recv(p *rpost) {
	k := ckey{p.src, p.c.rank, p.tag}
	if m, ok := w.sq(k).pop(); ok {
		w.match(m, p)
		return
	}
	w.rq(k).push(p)
}

// match pairs a message with a receive. Truncation is detected here —
// like chanmpi, the receive completes with a *TruncationError and the
// world fails. A rendezvous message whose receiver just appeared may now
// start (if both endpoints are making MPI progress).
//
//repro:noalloc
func (w *world) match(m *msg, p *rpost) {
	m.matched, p.matched, p.queued = true, true, false
	if m.n > len(p.buf) {
		p.err = &core.TruncationError{Len: m.n, Cap: len(p.buf), Src: m.src, Tag: m.tag}
		p.sig.Fire()
		w.fail(p.err)
		return
	}
	m.post = p
	p.m = m
	if m.arrived {
		w.deliver(m)
		return
	}
	if !m.eager && !m.started {
		w.tryStart(m)
	}
}

// tryStart attempts to begin a matched rendezvous transfer. The §3 model:
// without an asynchronous progress thread, the transfer advances only
// while BOTH endpoints are inside MPI calls; otherwise the message parks
// on both endpoints' stall lists and is retried when either re-enters MPI.
//
//repro:noalloc
func (w *world) tryStart(m *msg) {
	if m.started {
		return
	}
	src, dst := w.comms[m.src], w.comms[m.dst]
	if !src.driving() || !dst.driving() {
		// Parked on both ends (duplicates are fine: started guards).
		src.stalled = append(src.stalled, m) //repro:alloc-ok stall list grows once to high-water mark
		dst.stalled = append(dst.stalled, m) //repro:alloc-ok stall list grows once to high-water mark
		return
	}
	m.started = true
	w.sim.After(w.rdvLat+m.path.lat+w.extraLat(m.src), m.flowStartFn)
}

// extraLat is the injected gray-failure latency of a message's source at
// the current virtual time: 0 for healthy ranks and before a slowdown's
// onset. Caller holds w.mu.
//
//repro:noalloc
func (w *world) extraLat(src int) float64 {
	if w.slowOf == nil {
		return 0
	}
	if s := &w.slowOf[src]; s.Extra > 0 && w.sim.Now() >= s.After {
		return s.Extra
	}
	return 0
}

// flowStart begins the wire transfer as a fluid flow over the message's
// route. Runs as an event callback (driver holds w.mu).
//
//repro:noalloc
func (w *world) flowStart(m *msg) {
	m.flow = w.sys.Start(m.wireB, m.path.res...)
	m.flow.Done.OnFire(m.arriveFn)
}

// arrive marks the payload as having reached the receiver in virtual time
// and delivers it if a receive is already matched. Runs inside the flow's
// Done callback (driver holds w.mu).
//
//repro:noalloc
func (w *world) arrive(m *msg) {
	m.arrived = true
	if m.flow != nil {
		w.sys.Recycle(m.flow)
		m.flow = nil
	}
	if m.post != nil {
		w.deliver(m)
	}
}

// deliver copies the payload into the receive buffer — the bit-identity
// half of the transport — unless Start already placed it there, and
// completes both sides. Caller holds w.mu.
//
//repro:noalloc
func (w *world) deliver(m *msg) {
	if m.delivered || w.err != nil {
		return
	}
	m.delivered = true
	p := m.post
	if !m.placed {
		copy(p.buf[:m.n], m.data[:m.n])
	}
	p.n = m.n
	if m.sendSig != nil {
		m.sendSig.Fire()
	}
	p.sig.Fire()
	if m.owner != nil {
		m.owner.recycleMsg(m)
	}
}
