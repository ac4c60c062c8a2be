package simnet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/fluid"
)

// Session is the closed-world driving discipline: every rank is a des.Proc,
// resumed by the kernel one at a time, and one Run drains the event
// heap. Runs are strictly deterministic event-for-event (Sim().Events() is
// a reproducibility fingerprint), which is what the capacity planner and
// cmd/spmv-sim build on. For plugging simulated ranks under an unmodified
// core.Cluster, use Transport instead.
type Session struct {
	w   *world
	err error // first body error
}

// NewSession creates a simulated world in session mode.
func NewSession(cfg Config, size int) (*Session, error) {
	w, err := newWorld(cfg, size, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	w.session = true
	return &Session{w: w}, nil
}

// Sim exposes the underlying simulator (clock, events, spawning).
func (s *Session) Sim() *des.Sim { return s.w.sim }

// Sys exposes the fluid-flow system, for modeling compute phases as
// memory-bus flows alongside the communication.
func (s *Session) Sys() *fluid.System { return s.w.sys }

// World returns the session's world (for Fail/Close and inspection).
func (s *Session) World() core.World { return s.w }

// Network path resources are shared with compute flows through Sys; the
// node of a rank is fixed by Config.RanksPerNode.

// NodeOf returns the node hosting a rank.
func (s *Session) NodeOf(rank int) int { return s.w.nodeOf[rank] }

// Spawn starts rank's body as a simulated proc. The body's Comm performs
// all operations in virtual time; a body error fails the world.
func (s *Session) Spawn(rank int, body func(p *des.Proc, c core.Comm) error) {
	c := s.w.comms[rank]
	s.w.sim.Spawn(fmt.Sprintf("rank%d", rank), func(p *des.Proc) {
		c.proc = p
		if err := body(p, c); err != nil {
			if s.err == nil {
				s.err = err
			}
			s.w.Fail(err)
		}
	})
}

// Run drains the simulation. It returns the first body error, then any
// world failure, then the kernel's own deadlock diagnosis. A body that
// panics does so at Run's caller; ranks still blocked when Run ends, for
// either reason, are unwound rather than left parked.
func (s *Session) Run() error {
	simErr := s.w.sim.Run()
	if s.err != nil {
		return s.err
	}
	if s.w.err != nil {
		return s.w.worldErr()
	}
	return simErr
}
