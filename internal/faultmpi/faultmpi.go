// Package faultmpi is the fault-injection backend of the recovery stack: a
// core.Transport decorator that wraps ANY inner transport (the in-process
// chanmpi runtime, the wire-level tcpmpi backend) and injects
// deterministic faults from an explicit schedule — kill rank r at its k-th
// outbound operation, drop / delay / duplicate the n-th frame matching a
// (src, dst, tag) selector, fail Dial n times before succeeding, slow a
// link down persistently (every matching frame delivered late), or stall
// a persistent channel's Start synchronously. The one-shot faults model
// crashes and mis-scheduled packets; Slowdowns and Stalls model gray
// failures — peers that are alive but degraded — the shape the slow-peer
// suspicion machinery (tcpmpi, simnet) must detect.
//
// Determinism is the whole point: because the SPMD programs running on a
// cluster issue their communication operations in a fixed order, a
// schedule keyed to operation counts reproduces the same failure at the
// same point in the algorithm on every run, so the recovery machinery
// (core.Supervisor, the solver checkpoints, tcpmpi's failure detection)
// is testable without flaky sleeps or real process kills. The schedule's
// state lives on the Transport and is consumed exactly once across its
// lifetime, so a supervisor re-dialing after an injected failure gets a
// healthy world in the next epoch — the fault "happened", history moves
// on.
package faultmpi

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Action is what happens to a frame matched by a FrameFault.
type Action int

const (
	// Drop discards the matched frame: the send reports success, nothing
	// is delivered. Pairs with the detection machinery (heartbeats,
	// collective deadlines) that must surface the resulting hang.
	Drop Action = iota
	// Delay holds the matched frame for the fault's Delay duration before
	// delivering it, reordering it behind later traffic on other tags.
	Delay
	// Duplicate delivers the matched frame twice.
	Duplicate
)

func (a Action) String() string {
	switch a {
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Duplicate:
		return "duplicate"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Any is the wildcard value for a FrameFault selector field.
const Any = -1

// FrameFault selects one frame — the Nth outbound frame matching
// (Src, Dst, Tag), each field Any-wildcardable — and applies Action to it.
// Each FrameFault fires exactly once over the transport's lifetime.
type FrameFault struct {
	Action        Action
	Src, Dst, Tag int           // selector; Any matches every value
	Nth           int           // 1-based index among matching frames (0 means 1st)
	Delay         time.Duration // Delay action only
}

// Slowdown is the persistent counterpart of a Delay FrameFault: every
// frame matching (Src, Dst, Tag) — from the FromNth matching frame on,
// for Count frames (0 = all of them) — is delivered Delay late. One
// FrameFault models a single mis-scheduled packet; a Slowdown models a
// gray failure, a link or peer that is alive but degraded (throttled
// core, sick NIC, oversubscribed switch port). Its counters live on the
// Transport, so a bounded slowdown (Count > 0) spans supervised epochs
// and then exhausts exactly like the one-shot faults — a restart can
// deterministically leave the degradation behind. Frames delayed by the
// same Slowdown keep their order only through their monotonically later
// deadlines; the lockstep structure of the solvers prevents two matching
// frames from ever racing in practice.
type Slowdown struct {
	Src, Dst, Tag int           // selector; Any matches every value
	FromNth       int           // 1-based first delayed matching frame (0 means 1st)
	Count         int           // matching frames delayed; 0 = every one from FromNth on
	Delay         time.Duration // extra delivery latency per frame
}

// Stall blocks a sender synchronously: the NthStart-th Start of a
// persistent channel matching (Src, Dst, Tag) sleeps for Delay before
// proceeding — the rank is alive and its link healthy, but nothing makes
// progress inside the communication call, the no-progress regime of the
// paper's §3 turned into a deterministic fault. Each Stall fires exactly
// once over the transport's lifetime.
type Stall struct {
	Src, Dst, Tag int           // selector; Any matches every value
	NthStart      int           // 1-based index among matching Starts (0 means 1st)
	Delay         time.Duration // how long the Start blocks
}

// Kill schedules the death of a rank: at its AtOp-th outbound operation
// (1-based; Isend, a persistent send's Start, and each collective entry
// all count), the rank's operation returns a *core.PeerError and the
// world is failed — the in-process analogue of SIGKILLing the owning
// process at a deterministic point in the algorithm. Each Kill fires
// exactly once over the transport's lifetime, so a supervised restart
// runs the next epoch unharmed.
type Kill struct {
	Rank, AtOp int
}

// Schedule is the full deterministic fault plan of a Transport.
type Schedule struct {
	// DialFailures fails the first n Dial calls with a retriable error
	// before letting one succeed — exercising supervisor backoff.
	DialFailures int
	Kills        []Kill
	Frames       []FrameFault
	// Slowdowns add persistent per-link delivery latency; Stalls block
	// persistent-channel Starts. Both are the gray-failure half of the
	// schedule. A frame claimed by a one-shot FrameFault never reaches
	// the slowdown matcher (and does not advance its counters).
	Slowdowns []Slowdown
	Stalls    []Stall
}

// DeriveKill deterministically derives a Kill from a seed: a rank in
// [0, size) and an operation count in [1, maxOp]. Chaos suites use it to
// sweep kill points reproducibly — same seed, same failure.
func DeriveKill(seed int64, size, maxOp int) Kill {
	z := uint64(seed)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return Kill{
		Rank: int(z % uint64(size)),
		AtOp: 1 + int((z>>32)%uint64(maxOp)),
	}
}

// Transport decorates Inner with the fault schedule. The zero Inner is
// the default core.ChanTransport. A Transport is safe for concurrent use
// and keeps its consumed-fault state across Dials (epochs).
type Transport struct {
	Inner core.Transport
	Sched Schedule

	mu         sync.Mutex
	dials      int
	killDone   []bool
	frameSeen  []int
	frameDone  []bool
	slowSeen   []int
	stallSeen  []int
	stallDone  []bool
	stateReady bool
}

var _ core.Transport = (*Transport)(nil)

func (t *Transport) ensureLocked() {
	if !t.stateReady {
		t.killDone = make([]bool, len(t.Sched.Kills))
		t.frameSeen = make([]int, len(t.Sched.Frames))
		t.frameDone = make([]bool, len(t.Sched.Frames))
		t.slowSeen = make([]int, len(t.Sched.Slowdowns))
		t.stallSeen = make([]int, len(t.Sched.Stalls))
		t.stallDone = make([]bool, len(t.Sched.Stalls))
		t.stateReady = true
	}
}

// Dial consumes any scheduled dial failures, then dials the inner
// transport and wraps its world.
func (t *Transport) Dial(ctx context.Context, size int) (core.World, error) {
	t.mu.Lock()
	t.ensureLocked()
	if t.dials < t.Sched.DialFailures {
		t.dials++
		n, total := t.dials, t.Sched.DialFailures
		t.mu.Unlock()
		return nil, fmt.Errorf("faultmpi: injected dial failure %d of %d", n, total)
	}
	t.mu.Unlock()
	inner := t.Inner
	if inner == nil {
		inner = core.ChanTransport{}
	}
	w, err := inner.Dial(ctx, size)
	if err != nil {
		return nil, err
	}
	fw := &world{World: w, t: t, ops: make([]atomic.Int64, size)}
	return fw, nil
}

// checkKill fires a scheduled kill when rank's operation count crosses
// its AtOp. The consumed flag lives on the transport, so the kill fires
// in exactly one epoch.
func (t *Transport) checkKill(w *world, rank, n int) error {
	t.mu.Lock()
	for i, k := range t.Sched.Kills {
		if k.Rank != rank || t.killDone[i] || n < k.AtOp {
			continue
		}
		t.killDone[i] = true
		t.mu.Unlock()
		err := &core.PeerError{
			RankLo: rank, RankHi: rank + 1, Phase: core.PhaseSend,
			Err: fmt.Errorf("faultmpi: injected kill at operation %d", k.AtOp),
		}
		w.World.Fail(err)
		return err
	}
	t.mu.Unlock()
	return nil
}

// matchFrame consumes the first unfired FrameFault whose selector matches
// this frame and whose Nth matching frame this is.
func (t *Transport) matchFrame(src, dst, tag int) (FrameFault, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, f := range t.Sched.Frames {
		if f.Src != Any && f.Src != src || f.Dst != Any && f.Dst != dst || f.Tag != Any && f.Tag != tag {
			continue
		}
		if t.frameDone[i] {
			continue
		}
		t.frameSeen[i]++
		nth := f.Nth
		if nth < 1 {
			nth = 1
		}
		if t.frameSeen[i] == nth {
			t.frameDone[i] = true
			return f, true
		}
	}
	return FrameFault{}, false
}

// matchSlowdown counts this frame against every Slowdown selector and
// returns the delay of the first one whose active window
// [FromNth, FromNth+Count) covers it. Every matching counter advances on
// every frame — a slowdown's window position never depends on which
// other slowdowns are active.
func (t *Transport) matchSlowdown(src, dst, tag int) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	var ok bool
	for i, s := range t.Sched.Slowdowns {
		if s.Src != Any && s.Src != src || s.Dst != Any && s.Dst != dst || s.Tag != Any && s.Tag != tag {
			continue
		}
		t.slowSeen[i]++
		from := s.FromNth
		if from < 1 {
			from = 1
		}
		if n := t.slowSeen[i]; !ok && n >= from && (s.Count <= 0 || n < from+s.Count) {
			d, ok = s.Delay, true
		}
	}
	return d, ok
}

// matchStall consumes the first unfired Stall whose selector matches this
// persistent-channel Start and whose NthStart this is.
func (t *Transport) matchStall(src, dst, tag int) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.Sched.Stalls {
		if s.Src != Any && s.Src != src || s.Dst != Any && s.Dst != dst || s.Tag != Any && s.Tag != tag {
			continue
		}
		if t.stallDone[i] {
			continue
		}
		t.stallSeen[i]++
		nth := s.NthStart
		if nth < 1 {
			nth = 1
		}
		if t.stallSeen[i] == nth {
			t.stallDone[i] = true
			return s.Delay, true
		}
	}
	return 0, false
}

// world wraps the inner world, counting each local rank's outbound
// operations so scheduled kills fire at deterministic points.
type world struct {
	core.World
	t   *Transport
	ops []atomic.Int64
}

// Comm wraps the inner communicator of a local rank.
func (w *world) Comm(rank int) (core.Comm, error) {
	c, err := w.World.Comm(rank)
	if err != nil {
		return nil, err
	}
	return &comm{Comm: c, w: w, rank: rank}, nil
}

// beforeOp counts one outbound operation of rank and fires any kill due.
func (w *world) beforeOp(rank int) error {
	n := int(w.ops[rank].Add(1))
	return w.t.checkKill(w, rank, n)
}

// comm decorates a rank's communicator: outbound operations are counted
// (kills), and point-to-point sends pass the frame-fault matcher.
type comm struct {
	core.Comm
	w    *world
	rank int
}

// droppedRequest is the trivially complete handle of a send whose frame
// the schedule discarded (or deferred): the sender observes success.
type droppedRequest struct{}

func (droppedRequest) Wait() error { return nil }
func (droppedRequest) Done() bool  { return true }

// deliverLater re-sends a copy of the payload after d — the shared
// delivery mechanism of the Delay action and of Slowdowns. Best effort:
// by delivery time the world may have failed or closed, in which case
// the frame is lost — exactly what a late packet on a torn-down
// connection would be.
func (c *comm) deliverLater(dst, tag int, data []float64, d time.Duration) {
	cp := append([]float64(nil), data...)
	inner := c.Comm
	time.AfterFunc(d, func() {
		if r, err := inner.Isend(dst, tag, cp); err == nil {
			// A delayed frame is best-effort by construction: a Wait
			// error here means the world died first and the frame is
			// lost, which is exactly the fault being simulated.
			//reprolint:ignore commerr delayed frames are lost with the world by design
			r.Wait()
		}
	})
}

// sendFrame applies the frame schedule to one outbound payload and
// returns (handled, err). When handled is false the caller performs the
// normal send itself; Duplicate is implemented as "deliver one extra copy
// now, then let the caller send normally". One-shot faults take
// precedence; a frame none of them claims passes the persistent slowdown
// matcher.
func (c *comm) sendFrame(dst, tag int, data []float64) (bool, error) {
	f, ok := c.w.t.matchFrame(c.rank, dst, tag)
	if !ok {
		if d, slow := c.w.t.matchSlowdown(c.rank, dst, tag); slow {
			c.deliverLater(dst, tag, data, d)
			return true, nil
		}
		return false, nil
	}
	switch f.Action {
	case Drop:
		return true, nil
	case Delay:
		c.deliverLater(dst, tag, data, f.Delay)
		return true, nil
	case Duplicate:
		if r, err := c.Comm.Isend(dst, tag, data); err != nil {
			return true, err
		} else if err := r.Wait(); err != nil {
			return true, err
		}
		return false, nil
	}
	return false, fmt.Errorf("faultmpi: unknown action %v", f.Action)
}

func (c *comm) Isend(dst, tag int, data []float64) (core.Request, error) {
	if err := c.w.beforeOp(c.rank); err != nil {
		return nil, err
	}
	if handled, err := c.sendFrame(dst, tag, data); err != nil {
		return nil, err
	} else if handled {
		return droppedRequest{}, nil
	}
	return c.Comm.Isend(dst, tag, data)
}

// SendInit wraps the inner persistent send so each Start passes the kill
// counter and the frame matcher, preserving the one-Wait-per-Start
// contract even when a Start's frame was dropped or deferred.
func (c *comm) SendInit(dst, tag int, buf []float64) (core.PersistentRequest, error) {
	inner, err := c.Comm.SendInit(dst, tag, buf)
	if err != nil {
		return nil, err
	}
	return &psend{inner: inner, c: c, dst: dst, tag: tag, buf: buf}, nil
}

type psend struct {
	inner    core.PersistentRequest
	c        *comm
	dst, tag int
	buf      []float64
	skipped  bool // last Start never reached the inner channel
	lastErr  error
}

func (p *psend) Start() error {
	p.skipped, p.lastErr = true, nil
	if err := p.c.w.beforeOp(p.c.rank); err != nil {
		p.lastErr = err
		return err
	}
	if d, ok := p.c.w.t.matchStall(p.c.rank, p.dst, p.tag); ok {
		// The stall is the point: the calling rank sits inside Start making
		// no progress while its peers' detectors watch the silence.
		time.Sleep(d)
	}
	if handled, err := p.c.sendFrame(p.dst, p.tag, p.buf); err != nil {
		p.lastErr = err
		return err
	} else if handled {
		return nil
	}
	p.skipped = false
	return p.inner.Start()
}

func (p *psend) Wait() error {
	if p.skipped {
		return p.lastErr
	}
	return p.inner.Wait()
}

// Collective entries count as outbound operations (each one contributes a
// vector to its round), then pass through to the inner runtime.

func (c *comm) Barrier() error {
	if err := c.w.beforeOp(c.rank); err != nil {
		return err
	}
	return c.Comm.Barrier()
}

func (c *comm) Allreduce(op core.ReduceOp, in []float64) ([]float64, error) {
	if err := c.w.beforeOp(c.rank); err != nil {
		return nil, err
	}
	return c.Comm.Allreduce(op, in)
}

func (c *comm) AllreduceScalar(op core.ReduceOp, v float64) (float64, error) {
	if err := c.w.beforeOp(c.rank); err != nil {
		return 0, err
	}
	return c.Comm.AllreduceScalar(op, v)
}

func (c *comm) AllgatherInt64(v int64) ([]int64, error) {
	if err := c.w.beforeOp(c.rank); err != nil {
		return nil, err
	}
	return c.Comm.AllgatherInt64(v)
}

// Interface satisfaction checks.
var (
	_ core.Comm    = (*comm)(nil)
	_ core.World   = (*world)(nil)
	_ core.Request = droppedRequest{}
)
