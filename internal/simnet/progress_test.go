package simnet

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/machine"
)

// Hand-checkable protocol timings on a deliberately slow machine: a fat
// tree of 100 B/s links with 1 ms latency, where payloads under 80 bytes
// go eager. A 117-element message is 1000 bytes on the wire (payload plus
// the 64-byte header), 10 s of link time; a rendezvous transfer starts one
// handshake latency plus the path latency (2 ms) after both endpoints are
// inside MPI.

const (
	slowLat  = 1e-3
	rdvElems = 117 // 8·117 + 64 = 1000 wire bytes
	rdvWire  = 10.0
)

// slowSession builds a session of the slow machine, one rank per node.
func slowSession(t *testing.T, ranks, eagerB int, async bool) *Session {
	t.Helper()
	spec := machine.WestmereCluster()
	spec.Net = machine.NetSpec{
		Kind: machine.FatTree, LinkBW: 100, Latency: slowLat,
		IntraBW: 1000, IntraLatency: 1e-4, EagerThreshold: eagerB,
	}
	s, err := NewSession(Config{Machine: spec, RanksPerNode: 1, AsyncProgress: async}, ranks)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// pause computes outside MPI for d seconds (no event when d is 0).
func pause(p *des.Proc, d float64) {
	if d > 0 {
		p.Sleep(d)
	}
}

// pingOnce runs one persistent send of n elements from rank 0 to an Irecv
// on rank 1. Each side posts at its *At time and computes for its *Gap
// before entering Wait. It returns when each side's Wait returned.
func pingOnce(t *testing.T, s *Session, n int, sendAt, sendGap, recvAt, recvGap float64) (sent, recvd float64) {
	t.Helper()
	s.Spawn(0, func(p *des.Proc, c core.Comm) error {
		ps, err := c.SendInit(1, 0, make([]float64, n))
		if err != nil {
			return err
		}
		pause(p, sendAt)
		if err := ps.Start(); err != nil {
			return err
		}
		pause(p, sendGap)
		if err := ps.Wait(); err != nil {
			return err
		}
		sent = p.Now()
		return nil
	})
	s.Spawn(1, func(p *des.Proc, c core.Comm) error {
		pause(p, recvAt)
		req, err := c.Irecv(0, 0, make([]float64, n))
		if err != nil {
			return err
		}
		pause(p, recvGap)
		if err := req.Wait(); err != nil {
			return err
		}
		recvd = p.Now()
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return sent, recvd
}

// TestSessionProgressRule is §3's progress rule, case by case: a
// rendezvous transfer moves only while both endpoints are inside MPI
// (unless a progress thread drives it), and an eager one needs neither.
func TestSessionProgressRule(t *testing.T) {
	const start = 2 * slowLat // handshake + path latency
	cases := []struct {
		name             string
		async            bool
		n                int
		sendAt, sendGap  float64
		recvAt, recvGap  float64
		wantRecv         float64
		rendezvousSynced bool // the sender's Wait returns at delivery too
	}{
		// Both sides wait at once, as task mode's communication thread does.
		{name: "TaskModeCommThreadOverlaps", n: rdvElems, wantRecv: start + rdvWire, rendezvousSynced: true},
		// The sender computes for 5 s: nothing moves until it waits.
		{name: "NoProgressOutsideMPI", n: rdvElems, sendGap: 5, wantRecv: 5 + start + rdvWire, rendezvousSynced: true},
		// The receiver computes for 7 s after posting: likewise.
		{name: "RendezvousNeedsBothSides", n: rdvElems, recvGap: 7, wantRecv: 7 + start + rdvWire, rendezvousSynced: true},
		// A progress thread moves the transfer during the sender's compute.
		{name: "AsyncProgressOverlaps", async: true, n: rdvElems, sendGap: 5, wantRecv: start + rdvWire, rendezvousSynced: true},
		// The receive is posted 2 s before the send.
		{name: "RecvPostedFirstThenRendezvous", n: rdvElems, sendAt: 2, wantRecv: 2 + start + rdvWire, rendezvousSynced: true},
		// 16 bytes leave at once although the sender never enters MPI
		// (arrival at 1 ms + 0.8 s); the receive posted at 1 s finds them.
		{name: "EagerBypassesProgress", n: 2, sendGap: 100, recvAt: 1, wantRecv: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := slowSession(t, 2, 80, c.async)
			sent, recvd := pingOnce(t, s, c.n, c.sendAt, c.sendGap, c.recvAt, c.recvGap)
			if math.Abs(recvd-c.wantRecv) > 1e-6 {
				t.Errorf("receive done at %g, want %g", recvd, c.wantRecv)
			}
			if c.rendezvousSynced && sent != recvd {
				t.Errorf("rendezvous send done at %g, receive at %g", sent, recvd)
			}
		})
	}
}

// TestSessionRendezvousLatencyApplied: the same 1000-byte message costs
// exactly one handshake latency more under the rendezvous protocol than
// under the eager one.
func TestSessionRendezvousLatencyApplied(t *testing.T) {
	_, rdv := pingOnce(t, slowSession(t, 2, 80, false), rdvElems, 0, 0, 0, 0)
	_, eager := pingOnce(t, slowSession(t, 2, 1<<20, false), rdvElems, 0, 0, 0, 0)
	if math.Abs(eager-(slowLat+rdvWire)) > 1e-6 {
		t.Errorf("eager delivery at %g, want %g", eager, slowLat+rdvWire)
	}
	if math.Abs(rdv-eager-slowLat) > 1e-6 {
		t.Errorf("rendezvous %g vs eager %g: want one handshake latency (%g) apart", rdv, eager, slowLat)
	}
}

// TestSessionContentionOnSharedNIC: two senders to one destination share
// its ejection link, so 2000 bytes take 20 s for both.
func TestSessionContentionOnSharedNIC(t *testing.T) {
	s := slowSession(t, 3, 80, false)
	var done [2]float64
	for r := 0; r < 2; r++ {
		r := r
		s.Spawn(r, func(p *des.Proc, c core.Comm) error {
			ps, err := c.SendInit(2, 0, make([]float64, rdvElems))
			if err != nil {
				return err
			}
			if err := ps.Start(); err != nil {
				return err
			}
			if err := ps.Wait(); err != nil {
				return err
			}
			done[r] = p.Now()
			return nil
		})
	}
	s.Spawn(2, func(p *des.Proc, c core.Comm) error {
		var reqs [2]core.Request
		for src := range reqs {
			req, err := c.Irecv(src, 0, make([]float64, rdvElems))
			if err != nil {
				return err
			}
			reqs[src] = req
		}
		for _, req := range reqs {
			if err := req.Wait(); err != nil {
				return err
			}
		}
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := 2*slowLat + 2*rdvWire
	for r, d := range done {
		if math.Abs(d-want) > 1e-6 {
			t.Errorf("sender %d done at %g, want %g (shared link)", r, d, want)
		}
	}
}

// TestSessionMessageOrderingFIFO: two same-tag messages match receives in
// posting order, even though the second, shorter one arrives first.
func TestSessionMessageOrderingFIFO(t *testing.T) {
	s := slowSession(t, 2, 80, false)
	first, second := make([]float64, 8), make([]float64, 8)
	s.Spawn(0, func(p *des.Proc, c core.Comm) error {
		for _, msg := range [][]float64{{1, 1, 1, 1, 1, 1, 1, 1}, {2}} {
			if _, err := c.Isend(1, 5, msg); err != nil {
				return err
			}
		}
		return nil
	})
	s.Spawn(1, func(p *des.Proc, c core.Comm) error {
		r1, err := c.Irecv(0, 5, first)
		if err != nil {
			return err
		}
		r2, err := c.Irecv(0, 5, second)
		if err != nil {
			return err
		}
		if err := r2.Wait(); err != nil {
			return err
		}
		return r1.Wait()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range first {
		if v != 1 {
			t.Fatalf("first receive[%d] = %g, want the first message", i, v)
		}
	}
	if second[0] != 2 || second[1] != 0 {
		t.Errorf("second receive = %v, want the second message", second)
	}
}

// TestSessionBarrierCost: a barrier releases every rank ⌈log₂ P⌉ latencies
// after the last arrival.
func TestSessionBarrierCost(t *testing.T) {
	s := slowSession(t, 4, 80, false)
	var release [4]float64
	for r := 0; r < 4; r++ {
		r := r
		s.Spawn(r, func(p *des.Proc, c core.Comm) error {
			pause(p, float64(r)) // staggered arrivals: the last at t=3
			if err := c.Barrier(); err != nil {
				return err
			}
			release[r] = p.Now()
			return nil
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := 3 + 2*slowLat
	for r, d := range release {
		if math.Abs(d-want) > 1e-9 {
			t.Errorf("rank %d released at %g, want %g", r, d, want)
		}
	}
}

// TestBarrierReusable: the same barrier completes round after round.
func TestBarrierReusable(t *testing.T) {
	s := slowSession(t, 3, 80, false)
	counts := make([]int, 3)
	for r := 0; r < 3; r++ {
		r := r
		s.Spawn(r, func(p *des.Proc, c core.Comm) error {
			for round := 0; round < 5; round++ {
				if err := c.Barrier(); err != nil {
					return err
				}
				counts[r]++
			}
			return nil
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for r, c := range counts {
		if c != 5 {
			t.Errorf("rank %d completed %d rounds", r, c)
		}
	}
}

// TestDeterministicExchange: repeated rendezvous ring exchanges of unequal
// sizes end at the same virtual time in two fresh sessions.
func TestDeterministicExchange(t *testing.T) {
	const ranks = 4
	elems := func(r int) int { return 25 + 6*r } // 264–372 wire bytes: rendezvous
	run := func() float64 {
		s := slowSession(t, ranks, 80, false)
		var last float64
		for r := 0; r < ranks; r++ {
			r := r
			s.Spawn(r, func(p *des.Proc, c core.Comm) error {
				next := (r + 1) % ranks
				prev := (r + ranks - 1) % ranks
				for it := 0; it < 3; it++ {
					rx, err := c.Irecv(prev, it, make([]float64, elems(prev)))
					if err != nil {
						return err
					}
					tx, err := c.Isend(next, it, make([]float64, elems(r)))
					if err != nil {
						return err
					}
					p.Sleep(0.1)
					if err := c.Waitall(rx, tx); err != nil {
						return err
					}
				}
				if p.Now() > last {
					last = p.Now()
				}
				return nil
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("nondeterministic: %g vs %g", a, b)
	}
	if a <= 3*0.1 {
		t.Errorf("exchange ended at %g, want after the 0.3 s of compute plus wire time", a)
	}
}
