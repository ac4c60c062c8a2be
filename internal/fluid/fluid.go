// Package fluid models bandwidth-like shared resources under a fluid-flow
// approximation on top of the des kernel. A Flow transfers a fixed number of
// bytes across one or more Resources; each resource divides its (occupancy-
// dependent) capacity equally among the flows crossing it, and a flow runs
// at the minimum of its per-resource shares.
//
// The occupancy-dependent capacity C(n) is how the paper's central
// node-level fact — a NUMA locality domain's memory bus saturates at about
// four cores (Fig. 3) — enters the simulator: each compute thread is one
// flow on its LD's memory resource, so adding threads beyond saturation
// adds no bandwidth.
//
// The equal-share-per-resource rule is a local approximation of max-min
// fairness: it never overcommits a resource and requires only neighbour
// updates when a flow starts or ends, keeping large strong-scaling
// simulations cheap. Bottlenecked-elsewhere flows may leave some capacity
// unused, which is conservative (never optimistic) for contended links.
//
// Flow objects carry resident completion closures and can be pooled via
// Recycle, so steady-state traffic (simnet's halo exchanges) allocates
// nothing once warm.
package fluid

import (
	"fmt"
	"math"

	"repro/internal/des"
)

// Capacity returns a resource's total capacity (bytes/s) when n ≥ 1 flows
// are active. Implementations must be positive and non-increasing per flow
// (C(n)/n non-increasing keeps the model stable).
type Capacity func(n int) float64

// ConstCapacity is a capacity independent of occupancy (network links).
func ConstCapacity(c float64) Capacity {
	return func(int) float64 { return c }
}

// TableCapacity interpolates total capacity from a per-occupancy table:
// table[i] is the capacity with i+1 active flows; occupancies beyond the
// table use the last entry. This encodes measured saturation curves like
// the STREAM and spMVM bandwidths of Fig. 3.
func TableCapacity(table []float64) Capacity {
	if len(table) == 0 {
		panic("fluid: empty capacity table")
	}
	t := append([]float64(nil), table...)
	return func(n int) float64 {
		if n <= 0 {
			n = 1
		}
		if n > len(t) {
			n = len(t)
		}
		return t[n-1]
	}
}

// Resource is one shared capacity (an LD memory bus, a NIC, a torus link).
type Resource struct {
	name  string
	capFn Capacity
	flows []*Flow
}

// Flow is an in-progress transfer.
type Flow struct {
	sys        *System
	id         int64
	resources  []*Resource
	remaining  float64
	rate       float64
	lastUpdate float64
	completion *des.Event
	schedT     float64 // virtual time completion is scheduled for
	stamp      int64   // last rebalance collection that saw this flow
	completeFn func()  // resident completion-event callback
	// Done fires when the transfer finishes.
	Done *des.Signal
}

// System owns the resources and flows of one simulation.
type System struct {
	sim    *des.Sim
	nextID int64
	stamp  int64     // collection epoch for touched-set dedup
	scr    [][]*Flow // pooled collection slices, one per rebalance nesting level
	depth  int
	pool   []*Flow // recycled flow objects
}

// NewSystem creates a flow system bound to a simulator.
func NewSystem(sim *des.Sim) *System { return &System{sim: sim} }

// NewResource creates a resource with the given capacity model.
func (s *System) NewResource(name string, c Capacity) *Resource {
	return &Resource{name: name, capFn: c}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Active returns the number of flows currently crossing the resource.
func (r *Resource) Active() int { return len(r.flows) }

// Start begins transferring `bytes` across the given resources and returns
// the flow. A zero-byte flow completes immediately. Must be called from
// simulation context (a proc or event callback). The resources slice is
// referenced, not copied, and released again when the flow is recycled.
//
//repro:noalloc
func (s *System) Start(bytes float64, resources ...*Resource) *Flow {
	if bytes < 0 || math.IsNaN(bytes) {
		panic(fmt.Sprintf("fluid: invalid flow size %g", bytes))
	}
	s.nextID++
	var f *Flow
	if n := len(s.pool); n > 0 {
		f = s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
	} else {
		f = &Flow{sys: s, Done: s.sim.NewSignal()} //repro:alloc-ok pool warm-up; Recycle refills it
		f.completeFn = func() {                    //repro:alloc-ok resident closure, built once per pooled flow
			f.completion = nil // the firing event: drop before anything can reuse it
			now := s.sim.Now()
			f.advance(now)
			if f.remaining > 0 && f.rate > 0 {
				// A stale early event: the flow slowed down after this was
				// scheduled (rebalance leaves too-early events in place
				// rather than churning the heap). Re-arm at the true time —
				// unless the residue is below virtual-clock resolution
				// (now+dt == now), which would re-fire forever.
				dt := f.remaining / f.rate
				if now+dt > now {
					f.schedT = now + dt
					f.completion = s.sim.After(dt, f.completeFn)
					return
				}
			}
			s.complete(f)
		}
	}
	f.id = s.nextID
	f.resources = resources
	f.remaining = bytes
	f.rate = 0
	f.lastUpdate = s.sim.Now()
	f.completion = nil
	if bytes == 0 || len(resources) == 0 {
		// Infinitely fast: no shared medium, or nothing to move.
		f.Done.Fire()
		return f
	}
	touched := s.collectAttach(f)
	s.rebalance(touched)
	s.releaseScratch(touched)
	return f
}

// Recycle returns a finished flow to the pool for reuse by a later Start.
// Opt-in: callers that retain Done (or the flow) must not recycle. The
// flow must have completed; its Done signal is reset for the next use.
//
//repro:noalloc
func (s *System) Recycle(f *Flow) {
	if !f.Done.Fired() {
		panic("fluid: Recycle of an unfinished flow")
	}
	f.resources = nil
	f.Done.Reset()
	s.pool = append(s.pool, f) //repro:alloc-ok pool grows once to high-water mark
}

// grabScratch checks out a collection slice for the current nesting level.
//
//repro:noalloc
func (s *System) grabScratch() []*Flow {
	if s.depth == len(s.scr) {
		s.scr = append(s.scr, nil) //repro:alloc-ok one slot per observed nesting depth
	}
	sl := s.scr[s.depth][:0]
	s.depth++
	return sl
}

// releaseScratch returns a (possibly grown) collection slice to its level.
//
//repro:noalloc
func (s *System) releaseScratch(sl []*Flow) {
	s.depth--
	s.scr[s.depth] = sl
}

// collectAttach registers the flow on its resources and returns the
// deduplicated set of flows whose rate may have changed (the flow itself
// plus its neighbours on shared resources).
//
//repro:noalloc
func (s *System) collectAttach(f *Flow) []*Flow {
	s.stamp++
	st := s.stamp
	sl := s.grabScratch()
	f.stamp = st
	sl = append(sl, f) //repro:alloc-ok scratch grows once to high-water mark
	for _, r := range f.resources {
		for _, g := range r.flows {
			if g.stamp != st {
				g.stamp = st
				sl = append(sl, g) //repro:alloc-ok scratch grows once to high-water mark
			}
		}
		r.flows = append(r.flows, f) //repro:alloc-ok per-resource flow list grows once
	}
	return sl
}

// collectDetach removes a finished flow and returns the affected
// neighbours.
//
//repro:noalloc
func (s *System) collectDetach(f *Flow) []*Flow {
	s.stamp++
	st := s.stamp
	sl := s.grabScratch()
	for _, r := range f.resources {
		fl := r.flows
		for i, g := range fl {
			if g == f {
				n := len(fl) - 1
				fl[i] = fl[n]
				fl[n] = nil
				r.flows = fl[:n]
				break
			}
		}
		for _, g := range r.flows {
			if g.stamp != st {
				g.stamp = st
				sl = append(sl, g) //repro:alloc-ok scratch grows once to high-water mark
			}
		}
	}
	return sl
}

// advance charges a flow's progress up to the current time.
//
//repro:noalloc
func (f *Flow) advance(now float64) {
	if f.rate > 0 {
		f.remaining -= f.rate * (now - f.lastUpdate)
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	f.lastUpdate = now
}

// currentRate computes the flow's fair share: min over resources of
// C_r(n_r)/n_r.
//
//repro:noalloc
func (f *Flow) currentRate() float64 {
	rate := math.Inf(1)
	for _, r := range f.resources {
		n := len(r.flows)
		share := r.capFn(n) / float64(n)
		if share < rate {
			rate = share
		}
	}
	if math.IsInf(rate, 1) {
		return 0
	}
	return rate
}

// rebalance recomputes rates and completion events for the touched flows,
// in flow-id order so event scheduling (and hence same-time tie-breaking)
// is deterministic.
//
// Completion events are rescheduled lazily: a flow that SLOWED down keeps
// its existing (now too-early) event — firing early is harmless, the
// callback re-arms at the true time — because cancelling and re-pushing
// every neighbour on every attach turns the event heap into a garbage
// dump and dominated large-rank-count runs. Only a flow whose completion
// moved EARLIER (a neighbour left) must replace its event.
//
//repro:noalloc
func (s *System) rebalance(touched []*Flow) {
	now := s.sim.Now()
	sortFlowsByID(touched)
	for _, f := range touched {
		if f.Done.Fired() || f.resources == nil {
			// Finished in a nested completion — and, with nil resources,
			// already recycled by its Done callback, which re-armed Done.
			continue
		}
		f.advance(now)
		f.rate = f.currentRate()
		if f.remaining <= 0 {
			if f.completion != nil {
				f.completion.Cancel()
				f.completion = nil
			}
			s.complete(f)
			continue
		}
		if f.rate <= 0 {
			continue
		}
		newT := now + f.remaining/f.rate
		if f.completion != nil && newT >= f.schedT {
			continue // existing event fires at or before newT; it re-arms itself
		}
		if f.completion != nil {
			f.completion.Cancel()
		}
		f.schedT = newT
		f.completion = s.sim.After(f.remaining/f.rate, f.completeFn)
	}
}

// sortFlowsByID is an insertion sort (the touched sets are small and
// sort.Slice's comparator forces an allocation on the hot path).
//
//repro:noalloc
func sortFlowsByID(sl []*Flow) {
	for i := 1; i < len(sl); i++ {
		f := sl[i]
		j := i - 1
		for j >= 0 && sl[j].id > f.id {
			sl[j+1] = sl[j]
			j--
		}
		sl[j+1] = f
	}
}

// complete finishes a flow: detaches it, fires Done, rebalances neighbours.
//
//repro:noalloc
func (s *System) complete(f *Flow) {
	if f.Done.Fired() {
		return
	}
	if f.completion != nil {
		f.completion.Cancel()
		f.completion = nil
	}
	neighbours := s.collectDetach(f)
	f.Done.Fire()
	s.rebalance(neighbours)
	s.releaseScratch(neighbours)
}
