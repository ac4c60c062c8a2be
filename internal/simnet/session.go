package simnet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/fluid"
)

// session is the closed-world driving discipline: every rank is a des.Proc,
// resumed by the kernel one at a time, and one Run drains the event
// heap. Runs are strictly deterministic event-for-event (sim().Events() is
// a reproducibility fingerprint), which is what the capacity planner and
// cmd/spmv-sim build on. For plugging simulated ranks under an unmodified
// core.Cluster, use Transport instead.
type session struct {
	w   *world
	err error // first body error
}

// newSession creates a simulated world in session mode.
func newSession(cfg Config, size int) (*session, error) {
	w, err := newWorld(cfg, size, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	w.session = true
	return &session{w: w}, nil
}

// sim exposes the underlying simulator (clock, events, spawning).
func (s *session) sim() *des.Sim { return s.w.sim }

// sys exposes the fluid-flow system, for modeling compute phases as
// memory-bus flows alongside the communication.
func (s *session) sys() *fluid.System { return s.w.sys }

// spawn starts rank's body as a simulated proc. The body's Comm performs
// all operations in virtual time; a body error fails the world.
func (s *session) spawn(rank int, body func(p *des.Proc, c core.Comm) error) {
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

// run drains the simulation. It returns the first body error, then any
// world failure, then the kernel's own deadlock diagnosis. A body that
// panics does so at run's caller; ranks still blocked when run ends, for
// either reason, are unwound rather than left parked.
func (s *session) run() error {
	simErr := s.w.sim.Run()
	if s.err != nil {
		return s.err
	}
	if s.w.err != nil {
		return s.w.worldErr()
	}
	return simErr
}
