// Package des is a process-oriented discrete-event simulation kernel.
// Simulated threads (Procs) are coroutines (iter.Pull) the scheduler resumes
// strictly one at a time, so simulation state needs no locking and runs are
// fully deterministic: events at equal times fire in scheduling order. A
// coroutine switch hands the thread over directly; two goroutines trading a
// token cross the Go scheduler twice per wake and futex-wake an idle P.
//
// A panic in a proc body propagates to the caller of Run (or Step). When Run
// ends with procs still blocked — a deadlock, or such a panic — it unwinds
// them: their deferred functions run and no goroutine outlives Run.
//
// The cluster simulator builds on this kernel: MPI processes are Procs,
// compute and communication are fluid flows whose completions are events.
//
// Two consumption styles are supported. Run drains the event heap to
// completion and is the closed-world driver (simnet's Session).
// Step pops and executes exactly one event and exists for open-world
// drivers — simnet's transport, where foreign goroutines (cluster ranks)
// block on simulated operations and take turns advancing the clock.
//
// The event queue is an indexed binary heap that holds only live events:
// every Event knows its heap slot, so Cancel takes it out at once (a swap
// with the last entry and one sift) instead of leaving a dead entry for a
// later pop to skip. Fire order is strictly (time, scheduling order)
// either way, and Events counts every At, so removing dead entries changes
// no run.
//
// Event objects are pooled: an event goes back to the pool the moment it
// fires or is cancelled, and the next At may reuse it. Holders must
// therefore drop an *Event after firing or after calling Cancel —
// cancelling twice, or cancelling a stale pointer kept past its firing, is
// undefined.
//
// This package is virtual-time pure: the reprolint wallclock analyzer
// forbids package time here (see the directive below).
//
//repro:virtualtime
package des

import (
	"fmt"
	"iter"
)

// Sim is a discrete-event simulator instance.
type Sim struct {
	now     float64
	events  []*Event // live events, a binary heap ordered by (t, seq)
	seq     int64
	free    []*Event // recycled event objects
	procs   []*Proc  // spawned and not yet finished
	running bool
}

// New creates an empty simulator at time 0.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Events returns the total number of events scheduled so far — a cheap
// fingerprint for event-for-event reproducibility assertions.
func (s *Sim) Events() int64 { return s.seq }

// Event is a scheduled callback. Cancel prevents a pending event from
// firing; canceling a fired event is a no-op, but see the package comment:
// pointers must be dropped once the event has fired or been cancelled.
type Event struct {
	t   float64
	seq int64
	fn  func()
	sim *Sim
	idx int // slot in sim.events; -1 once fired or cancelled
}

// Cancel removes a pending event from the queue and returns it to the
// pool at once, so the queue holds only live events. On an event that has
// already fired or been cancelled (and not been reused since) it does
// nothing.
//
//repro:noalloc
func (e *Event) Cancel() {
	if e == nil || e.idx < 0 {
		return
	}
	s := e.sim
	s.remove(e.idx)
	s.recycle(e)
}

// At schedules fn to run at absolute time t (≥ now).
//
//repro:noalloc
func (s *Sim) At(t float64, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling at %g before now %g", t, s.now))
	}
	s.seq++
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.t, e.seq, e.fn = t, s.seq, fn
	} else {
		e = &Event{t: t, seq: s.seq, fn: fn, sim: s} //repro:alloc-ok pool warm-up; steady state recycles
	}
	s.events = append(s.events, e) //repro:alloc-ok heap storage grows once to high-water mark
	s.up(e, len(s.events)-1)
	return e
}

// After schedules fn to run d seconds from now.
//
//repro:noalloc
func (s *Sim) After(d float64, fn func()) *Event {
	return s.At(s.now+d, fn)
}

// Pending reports whether any event remains scheduled.
//
//repro:noalloc
func (s *Sim) Pending() bool { return len(s.events) > 0 }

// NextAt returns the time of the next event without firing it; ok is
// false when none remains. Open-world drivers use it to decide whether
// advancing the clock is safe (simnet's receive-deadline cap).
//
//repro:noalloc
func (s *Sim) NextAt() (t float64, ok bool) {
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].t, true
}

// Step pops and executes the next event, advancing the clock to its time.
// It returns false if no event remains.
//
//repro:noalloc
func (s *Sim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := s.events[0]
	s.remove(0)
	s.now = e.t
	fn := e.fn
	s.recycle(e)
	fn()
	return true
}

// recycle returns an event that has left the heap to the freelist.
//
//repro:noalloc
func (s *Sim) recycle(e *Event) {
	e.fn = nil
	e.idx = -1
	s.free = append(s.free, e) //repro:alloc-ok freelist grows once to high-water mark
}

// Proc is a simulated thread of control.
type Proc struct {
	sim    *Sim
	name   string
	idx    int                     // position in sim.procs; -1 once finished
	next   func() (struct{}, bool) // run the body until it blocks; !ok once it has returned
	stop   func()                  // make a blocked body's yield return false
	yield  func(struct{}) bool     // body side: hand control back to the scheduler
	wakeFn func()                  // resident event callback: handoff(p)
}

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.sim.now }

// Spawn creates a proc that will start executing fn at the current virtual
// time (or at simulation start). fn runs as a coroutine of the scheduler; if
// it panics, the panic surfaces where Run was called.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, idx: len(s.procs)}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil && r != any(p) { // p itself: block's unwind
				panic(r)
			}
		}()
		fn(p)
	})
	p.wakeFn = func() { s.handoff(p) }
	s.procs = append(s.procs, p)
	s.At(s.now, p.wakeFn)
	return p
}

// handoff, in the scheduler context, runs p until it blocks or finishes.
func (s *Sim) handoff(p *Proc) {
	if _, ok := p.next(); ok || p.idx < 0 {
		return
	}
	n := len(s.procs) - 1
	last := s.procs[n]
	s.procs[p.idx], last.idx = last, p.idx
	s.procs[n] = nil
	s.procs = s.procs[:n]
	p.idx = -1 // a stale wake event finds nothing left to do
}

// block suspends the calling proc until the scheduler wakes it.
func (p *Proc) block() {
	if !p.yield(struct{}{}) {
		panic(p) // Run is over: unwind the body (its defers run); Spawn recovers
	}
}

// Sleep suspends the proc for d seconds of virtual time.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("des: negative sleep %g", d))
	}
	p.sim.At(p.sim.now+d, p.wakeFn)
	p.block()
}

// Signal is a one-shot broadcast condition: procs wait on it, someone fires
// it, all current and future waiters proceed. Non-proc consumers (simnet's
// foreign rank goroutines) register OnFire callbacks instead of waiting.
type Signal struct {
	sim       *Sim
	fired     bool
	waiters   []*Proc
	callbacks []func()
}

// NewSignal creates an unfired signal.
func (s *Sim) NewSignal() *Signal { return &Signal{sim: s} }

// Fired reports whether the signal has fired.
func (g *Signal) Fired() bool { return g.fired }

// Fire releases all waiters at the current virtual time and runs any
// OnFire callbacks synchronously. Firing twice is a no-op. Fire may be
// called from event callbacks or procs.
//
//repro:noalloc
func (g *Signal) Fire() {
	if g.fired {
		return
	}
	g.fired = true
	for i, p := range g.waiters {
		g.sim.At(g.sim.now, p.wakeFn)
		g.waiters[i] = nil
	}
	g.waiters = g.waiters[:0]
	// Index loop with a live length check: a callback may legally Reset
	// this signal (pooled flows recycle inside their Done callbacks), which
	// truncates the list mid-fire.
	for i := 0; i < len(g.callbacks); i++ {
		fn := g.callbacks[i]
		g.callbacks[i] = nil
		if fn != nil {
			fn()
		}
	}
	if g.fired {
		g.callbacks = g.callbacks[:0]
	}
}

// OnFire registers fn to run when the signal fires; if it already has, fn
// runs immediately. Callbacks run synchronously inside Fire, in
// registration order, and are cleared once run (and by Reset).
//
//repro:noalloc
func (g *Signal) OnFire(fn func()) {
	if g.fired {
		fn()
		return
	}
	g.callbacks = append(g.callbacks, fn) //repro:alloc-ok callback slice grows once per signal
}

// Reset rearms a fired (or unfired, waiter-free) signal for reuse, so
// resident operations can pool their completion signals. Resetting with
// procs still waiting would wedge them and panics instead.
//
//repro:noalloc
func (g *Signal) Reset() {
	if len(g.waiters) > 0 {
		panic("des: Reset of a signal with blocked waiters")
	}
	g.fired = false
	for i := range g.callbacks {
		g.callbacks[i] = nil
	}
	g.callbacks = g.callbacks[:0]
}

// Wait suspends the proc until the signal fires (returns immediately if it
// already has).
func (p *Proc) Wait(g *Signal) {
	if g.fired {
		return
	}
	g.waiters = append(g.waiters, p)
	p.block()
}

// Run processes events until none remain. Procs still blocked when the queue
// drains are a simulation deadlock: Run unwinds them and returns an error.
func (s *Sim) Run() error {
	if s.running {
		panic("des: Run reentered")
	}
	s.running = true
	defer func() {
		s.running = false
		for len(s.procs) > 0 {
			p := s.procs[len(s.procs)-1]
			p.stop()
			s.handoff(p) // next now reports the body finished
		}
	}()
	for s.Step() {
	}
	if n := len(s.procs); n > 0 {
		return fmt.Errorf("des: deadlock: %d proc(s) still blocked at t=%g", n, s.now)
	}
	return nil
}

// The heap is written out rather than built on container/heap so pooled
// events never round-trip through an interface box. Its helpers move a
// hole instead of swapping: each displaced entry is written once, with its
// new slot.

// remove takes the event in slot i out of the heap: the last entry fills
// the slot and sifts whichever way restores the order.
//
//repro:noalloc
func (s *Sim) remove(i int) {
	n := len(s.events) - 1
	last := s.events[n]
	s.events[n] = nil
	s.events = s.events[:n]
	if i == n {
		return
	}
	if i > 0 && eventLess(last, s.events[(i-1)/2]) {
		s.up(last, i)
	} else {
		s.down(last, i)
	}
}

// up places e, bound for slot i, at or above i.
//
//repro:noalloc
func (s *Sim) up(e *Event, i int) {
	h := s.events
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].idx = i
		i = parent
	}
	h[i] = e
	e.idx = i
}

// down places e, bound for slot i, at or below i.
//
//repro:noalloc
func (s *Sim) down(e *Event, i int) {
	h := s.events
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && eventLess(h[r], h[c]) {
			c = r
		}
		if !eventLess(h[c], e) {
			break
		}
		h[i] = h[c]
		h[i].idx = i
		i = c
	}
	h[i] = e
	e.idx = i
}

func eventLess(a, b *Event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}
