package simnet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
)

// comm is one simulated rank's communicator. The same object serves both
// driving disciplines: foreign cluster goroutines block through its gate,
// session procs through the des kernel (proc is set by session.spawn).
type comm struct {
	w    *world
	rank int
	node int

	g    *gate
	proc *des.Proc

	inMPI   int
	stalled []*msg // matched rendezvous messages waiting for this endpoint

	scalar [1]float64 // resident AllreduceScalar staging
}

var _ core.Comm = (*comm)(nil)

func (c *comm) Rank() int { return c.rank }
func (c *comm) Size() int { return c.w.size }

// sreq is a locally-complete send request: simnet gives transient sends
// buffered semantics (like chanmpi), so Wait is immediate. Timing costs
// still apply to the message itself on the virtual wire.
type sreq struct{ err error }

func (r sreq) Wait() error { return r.err }
func (r sreq) Done() bool  { return true }

// rreq is a transient receive request.
type rreq struct {
	c *comm
	p *rpost
}

//repro:noalloc
func (r *rreq) errLocked() error {
	if r.p.err != nil {
		return r.p.err
	}
	if !r.p.sig.Fired() {
		return r.c.w.worldErr()
	}
	return nil
}

func (r *rreq) Wait() error {
	w := r.c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	r.c.enterMPI()
	r.c.await(r.p.sig)
	r.c.exitMPI()
	return r.errLocked()
}

func (r *rreq) Done() bool {
	w := r.c.w
	w.mu.Lock()
	done := r.p.sig.Fired() || w.err != nil
	w.mu.Unlock()
	return done
}

// Isend starts a nonblocking buffered send: the payload is copied, the
// returned request is immediately complete, and the message pays the
// eager or rendezvous wire cost in virtual time.
func (c *comm) Isend(dst, tag int, data []float64) (core.Request, error) {
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	defer w.handoff() // drive any events this op schedules if all peers are parked
	if dst < 0 || dst >= w.size {
		return nil, &core.RankError{Op: "Isend", Rank: dst, Size: w.size}
	}
	if w.err != nil {
		return nil, w.worldErr()
	}
	m := w.newMsg(c.rank, dst, tag, w.channelOf(c.rank, dst, tag)) //repro:alloc-ok transient sends are off the steady-state hot path
	m.n = len(data)
	m.data = append(m.data[:0], data...)
	m.wireB = wireBytes(m.n)
	m.eager = 8*m.n < w.eager
	w.send(m)
	return sreq{}, nil
}

// Irecv posts a nonblocking receive; completion (and any truncation
// error) surfaces through the returned request's Wait.
func (c *comm) Irecv(src, tag int, buf []float64) (core.Request, error) {
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	defer w.handoff() // drive any events this op schedules if all peers are parked
	if src < 0 || src >= w.size {
		return nil, &core.RankError{Op: "Irecv", Rank: src, Size: w.size}
	}
	if w.err != nil {
		return nil, w.worldErr()
	}
	p := &rpost{c: c, ch: w.channelOf(src, c.rank, tag), src: src, tag: tag, buf: buf, sig: w.sim.NewSignal()} //repro:alloc-ok transient receive
	p.queued = true
	w.recv(p)
	w.armRecvDeadline(p)
	return &rreq{c: c, p: p}, nil //repro:alloc-ok transient receive
}

// psend is a persistent send channel. Two regimes, fixed at SendInit by
// the buffer's wire size:
//
//   - eager: buffered like chanmpi — each Start snapshots the buffer and
//     completes locally; Wait returns immediately. The snapshot is the
//     payload's only copy when a receive is already posted (the resident
//     runtime always posts receives first): it lands in that receive's
//     buffer, which is the transport's until its Wait. Only an unmatched
//     message stages the payload in itself. Messages are pooled because
//     virtual time lets a sender run several iterations ahead of its
//     receiver.
//   - rendezvous: one resident message referencing the caller's buffer
//     (zero copy); Wait blocks until delivery, keeping the rank inside
//     MPI — which is exactly what the §3 progress rule requires of a
//     large synchronous send.
type psend struct {
	c        *comm
	ch       *channel
	dst, tag int
	buf      []float64
	eager    bool

	// rendezvous regime
	m        *msg
	sig      *des.Signal
	inflight bool

	// eager regime
	pool    []*msg
	lastErr error
}

// SendInit creates a persistent send channel to dst (MPI_Send_init).
func (c *comm) SendInit(dst, tag int, buf []float64) (core.PersistentRequest, error) {
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if dst < 0 || dst >= w.size {
		return nil, &core.RankError{Op: "SendInit", Rank: dst, Size: w.size}
	}
	p := &psend{c: c, ch: w.channelOf(c.rank, dst, tag), dst: dst, tag: tag, buf: buf}
	p.eager = 8*len(buf) < w.eager
	if !p.eager {
		p.sig = w.sim.NewSignal()
		m := w.newMsg(c.rank, dst, tag, p.ch)
		m.sendSig = p.sig
		p.m = m
	}
	return p, nil
}

func (p *psend) Start() error {
	c, w := p.c, p.c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	defer w.handoff() // drive any events this op schedules if all peers are parked
	if w.err != nil {
		return w.worldErr()
	}
	if p.eager {
		var m *msg
		if n := len(p.pool); n > 0 {
			m = p.pool[n-1]
			p.pool[n-1] = nil
			p.pool = p.pool[:n-1]
			m.matched, m.started, m.arrived, m.delivered = false, false, false, false
		} else {
			m = w.newMsg(c.rank, p.dst, p.tag, p.ch) //repro:alloc-ok pool warm-up; delivery refills it
			m.owner = p
			m.eager = true
		}
		m.n = len(p.buf)
		m.wireB = wireBytes(m.n)
		w.send(m)
		if w.err != nil {
			return w.worldErr()
		}
		// The snapshot, taken once: into the receive that send just matched
		// (nothing to move when that is the send buffer itself), else into
		// the message until a receive turns up.
		m.placed = m.post != nil
		if m.placed {
			if !aliased(m.post.buf, p.buf) {
				copy(m.post.buf[:m.n], p.buf)
			}
		} else {
			m.data = append(m.data[:0], p.buf...)
		}
		p.lastErr = nil
		return nil
	}
	if p.inflight {
		return fmt.Errorf("simnet: Start on a persistent send still in flight (Wait it first)")
	}
	p.inflight = true
	p.sig.Reset()
	m := p.m
	m.matched, m.started, m.arrived, m.delivered = false, false, false, false
	m.post = nil
	m.n = len(p.buf)
	m.data = p.buf
	m.wireB = wireBytes(m.n)
	w.send(m)
	return nil
}

//repro:noalloc
func (p *psend) Wait() error {
	if p.eager {
		return p.lastErr
	}
	c, w := p.c, p.c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	c.enterMPI()
	c.await(p.sig)
	c.exitMPI()
	p.inflight = false
	if !p.sig.Fired() {
		return w.worldErr()
	}
	return nil
}

// recycleMsg returns a delivered pooled message to its owning channel.
// Caller holds w.mu.
//
//repro:noalloc
func (p *psend) recycleMsg(m *msg) {
	m.post = nil
	p.pool = append(p.pool, m) //repro:alloc-ok pool grows once to high-water mark
}

// precv is a persistent receive channel: one resident post, re-queued by
// each Start. Mirrors chanmpi's contract, including the still-in-flight
// guard and immediate-match truncation reporting from Start.
type precv struct {
	c *comm
	p *rpost
}

// RecvInit creates a persistent receive channel for src (MPI_Recv_init).
func (c *comm) RecvInit(src, tag int, buf []float64) (core.PersistentRequest, error) {
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if src < 0 || src >= w.size {
		return nil, &core.RankError{Op: "RecvInit", Rank: src, Size: w.size}
	}
	return &precv{c: c, p: &rpost{c: c, ch: w.channelOf(src, c.rank, tag), src: src, tag: tag, buf: buf, sig: w.sim.NewSignal()}}, nil
}

func (r *precv) Start() error {
	w := r.c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	defer w.handoff() // drive any events this op schedules if all peers are parked
	if w.err != nil {
		return w.worldErr()
	}
	p := r.p
	if p.queued && !p.matched {
		return fmt.Errorf("simnet: Start on a persistent receive still in flight (Wait it first)")
	}
	p.sig.Reset()
	p.err = nil
	p.matched = false
	p.m = nil
	p.queued = true
	p.n = 0
	p.gen++
	w.recv(p)
	w.armRecvDeadline(p)
	if p.err != nil {
		// Immediate-match truncation: report from Start, like chanmpi.
		return p.err
	}
	return nil
}

//repro:noalloc
func (r *precv) Wait() error {
	c, w := r.c, r.c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	c.enterMPI()
	c.await(r.p.sig)
	c.exitMPI()
	if r.p.err != nil {
		return r.p.err
	}
	if !r.p.sig.Fired() {
		return w.worldErr()
	}
	return nil
}

// Waitall blocks until every request completes, counting as ONE MPI entry
// for progress purposes (a rank sitting in Waitall drives all its
// rendezvous transfers, the heart of the §3 model).
func (c *comm) Waitall(reqs ...core.Request) error {
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	c.enterMPI()
	var first error
	for _, req := range reqs {
		switch t := req.(type) {
		case *rreq:
			c.await(t.p.sig)
			if err := t.errLocked(); err != nil && first == nil {
				first = err
			}
		case sreq:
			if t.err != nil && first == nil {
				first = t.err
			}
		default:
			// A foreign request (not from this transport): wait unlocked.
			w.mu.Unlock()
			err := req.Wait()
			w.mu.Lock()
			if err != nil && first == nil {
				first = err
			}
		}
	}
	c.exitMPI()
	return first
}
