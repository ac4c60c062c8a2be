package tcpmpi

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chanmpi"
	"repro/internal/core"
	"repro/internal/f64le"
)

// world is one process's endpoint of a multi-process TCP world: the local
// rank range [lo, hi), held in a chanmpi range world that does all the
// matching, buffering and collectives, and one connection per peer
// process, each drained by a dedicated reader goroutine. world is the
// engine's Link: sends to ranks in other processes leave as frames through
// it, and collective waits are bounded by its policy (Await). The reader
// goroutines give the transport genuinely asynchronous progress: frames
// move off the wire whether or not any rank is inside a communication
// call (see README.md for how this relates to §3 of the paper).
type world struct {
	eng    *chanmpi.World
	size   int
	lo, hi int
	procs  []procInfo
	me     int

	rankProc []int // rank → owning process index
	conns    []*peerConn
	departed []atomic.Bool // by process index: announced a graceful Close (BYE)

	// hbInterval/hbTimeout configure the heartbeat monitor (zero interval:
	// disabled); collTimeout bounds each wait inside a collective (zero:
	// unbounded). All are fixed at bring-up by the Transport.
	hbInterval  time.Duration
	hbTimeout   time.Duration
	collTimeout time.Duration
	// deadlines[r-lo] is local rank r's resident collective deadline timer,
	// Reset per wait — Go's post-1.23 timer semantics guarantee a Reset
	// discards any stale fire, so the steady-state wait allocates nothing.
	// Nil without a collTimeout.
	deadlines []*time.Timer

	// slow is the slow-peer suspicion policy (see slow.go); by process
	// index, edgeLat is the EWMA of the collective round edge from that
	// process's leader, and slowSuspect debounces the advisory hook per
	// degradation episode.
	slow        slowConfig
	edgeLat     []latEwma
	slowSuspect []atomic.Bool

	closing   atomic.Bool
	closeOnce sync.Once
	listener  net.Listener // joiner mesh / coordinator join listener, may be nil
}

func newWorld(size, lo, hi int, procs []procInfo, me int) (*world, error) {
	w := &world{
		size:        size,
		lo:          lo,
		hi:          hi,
		procs:       procs,
		me:          me,
		rankProc:    make([]int, size),
		conns:       make([]*peerConn, len(procs)),
		departed:    make([]atomic.Bool, len(procs)),
		edgeLat:     make([]latEwma, len(procs)),
		slowSuspect: make([]atomic.Bool, len(procs)),
	}
	covered := 0
	bounds := make([]int, len(procs)+1)
	for p, pi := range procs {
		if pi.RankLo != covered || pi.RankHi <= pi.RankLo || pi.RankHi > size {
			return nil, fmt.Errorf("tcpmpi: roster does not tile [0,%d): process %d owns [%d,%d)", size, p, pi.RankLo, pi.RankHi)
		}
		for r := pi.RankLo; r < pi.RankHi; r++ {
			w.rankProc[r] = p
		}
		bounds[p] = pi.RankLo
		covered = pi.RankHi
	}
	bounds[len(procs)] = size
	if covered != size {
		return nil, fmt.Errorf("tcpmpi: roster covers %d of %d ranks", covered, size)
	}
	if me < 0 || me >= len(procs) || procs[me].RankLo != lo || procs[me].RankHi != hi {
		return nil, fmt.Errorf("tcpmpi: roster disagrees with local rank range [%d,%d)", lo, hi)
	}
	eng, err := chanmpi.NewRangeWorld(bounds, me, w)
	if err != nil {
		return nil, err
	}
	w.eng = eng
	return w, nil
}

// Abort tears the connections down once the engine's world has failed
// (chanmpi.Link contract), so peer processes observe the loss on their
// next read — the closest TCP analogue of an MPI job abort.
func (w *world) Abort() {
	w.closeOnce.Do(func() {
		if w.listener != nil {
			w.listener.Close()
		}
		for _, p := range w.conns {
			if p != nil {
				p.c.Close()
			}
		}
	})
}

// Size returns the total number of ranks across all processes.
func (w *world) Size() int { return w.size }

// Fail poisons the world with the given cause (core.World contract):
// blocked local waiters wake with a *core.WorldError, and the connection
// teardown (Abort) propagates the failure to peer processes, so a job that
// fails in one process fails the whole world.
func (w *world) Fail(err error) { w.eng.Fail(err) }

// LocalRanks lists the ranks this process owns, ascending.
func (w *world) LocalRanks() []int {
	ranks := make([]int, 0, w.hi-w.lo)
	for r := w.lo; r < w.hi; r++ {
		ranks = append(ranks, r)
	}
	return ranks
}

// Comm returns the communicator of a local rank.
func (w *world) Comm(rank int) (core.Comm, error) {
	if rank < w.lo || rank >= w.hi {
		return nil, fmt.Errorf("tcpmpi: rank %d is not local to this process (owns [%d,%d))", rank, w.lo, w.hi)
	}
	return w.eng.Comm(rank)
}

// Close shuts the endpoint down gracefully: a BYE frame is written to
// every peer — the last bytes this process writes, so the peers' readers
// see the departure announcement before the EOF and treat it as a clean
// exit rather than a world failure — then the local world is failed with
// core.ErrWorldClosed (releasing anything still blocked in it) and every
// connection is closed. Already-delivered frames on the peers remain
// receivable after the departure (see chanmpi.World.Depart), so a lagging
// peer can finish consuming a completed exchange; only receives that can
// never be matched fail. Close is idempotent.
func (w *world) Close() error {
	if w.closing.Swap(true) {
		return nil
	}
	if w.eng.Err() == nil {
		for _, p := range w.conns {
			if p != nil {
				p.writeFrame(kindBye, 0, 0, 0, nil) // best effort
			}
		}
	}
	return w.eng.Close()
}

// startHeartbeat launches the world's heartbeat monitor: every hbInterval
// it pings each peer connection that has been send-idle for an interval
// (so a quiet but healthy world exchanges pings in both directions and
// never trips the detector) and declares a peer suspect — failing the
// world with a *core.PeerError naming the peer's rank range — when
// nothing, ping or payload, has arrived on its connection within
// hbTimeout. The monitor exits at its first tick after the world fails
// (which includes Close). A departed peer (BYE received) is exempt: its
// silence is announced, not suspect. Steady-state cost is two time loads
// per tick per peer and one empty frame per idle interval; nothing on the
// tick path allocates, so the alloc gates hold with heartbeats enabled.
func (w *world) startHeartbeat() {
	go func() {
		ticker := time.NewTicker(w.hbInterval)
		defer ticker.Stop()
		for range ticker.C {
			if w.eng.Err() != nil {
				return
			}
			now := time.Now().UnixNano()
			for proc, p := range w.conns {
				if p == nil || w.departed[proc].Load() {
					continue
				}
				if now-p.lastHeard.Load() > int64(w.hbTimeout) {
					pi := w.procs[proc]
					w.Fail(&core.PeerError{
						RankLo: pi.RankLo, RankHi: pi.RankHi, Phase: core.PhaseHeartbeat,
						Err: fmt.Errorf("tcpmpi: no traffic from process %d within %v", proc, w.hbTimeout),
					})
					return
				}
				if now-p.lastSent.Load() >= int64(w.hbInterval) {
					// Stamp before writing so the echo's round-trip includes
					// the write; only one ping is measured at a time (the CAS
					// fails while one is outstanding — an unanswered ping is
					// the heartbeat timeout's business, not a fresh sample).
					p.pingSentNs.CompareAndSwap(0, now)
					// Best effort: a write error here means the connection is
					// dying, which the reader loop reports with the real cause.
					p.writeFrame(kindPing, 0, 0, 0, nil)
				}
			}
		}
	}()
}

// readLoop drains one peer connection, filing each frame into the
// destination rank's mailbox, until a read fails or the peer misbehaves.
// A BYE frame marks the peer gracefully departed (the connection's EOF is
// then expected), so its error is not reported; any other error fails the
// world — unless this endpoint is itself closing.
func (w *world) readLoop(proc int, p *peerConn) {
	for {
		if err := w.receiveFrame(proc, p); err != nil {
			if !w.closing.Load() && !w.departed[proc].Load() {
				w.Fail(err)
			}
			return
		}
	}
}

// receiveFrame reads one frame from process proc's connection and acts on
// it: a payload goes through the engine's Claim — read straight into the
// earliest matching posted receive, or into a carrier — and Done. A
// failed read, a malformed header, and a frame whose source rank
// proc does not own or whose destination is not local are all a
// *core.PeerError naming proc's rank range in the frame-read phase, so a
// crashed process (EOF without BYE) or a corrupt one is pinpointed rather
// than reported as an anonymous connection loss. A payload too long for
// the receive it matched is a *core.TruncationError.
//
//repro:noalloc
func (w *world) receiveFrame(proc int, p *peerConn) error {
	kind, src, dst, tag, count, err := p.readFrame()
	if err != nil {
		return w.lostPeer(proc, err)
	}
	now := time.Now().UnixNano()
	p.lastHeard.Store(now)
	pi := w.procs[proc]
	switch kind {
	case kindPing:
		// Echo so the originator gets a round-trip sample; best effort — a
		// write error here means the connection is dying, which the next
		// read reports with the real cause.
		p.writeFrame(kindPong, 0, 0, 0, nil)
		return nil
	case kindPong:
		if sent := p.pingSentNs.Swap(0); sent != 0 {
			w.observeLinkLatency(proc, pi.RankLo, pi.RankHi, "ping round-trip", &p.rtt, time.Duration(now-sent))
		}
		return nil
	case kindBye:
		// Every frame the peer sent before its BYE has been filed: this
		// goroutine alone reads its connection.
		w.departed[proc].Store(true)
		w.eng.Depart(pi.RankLo, pi.RankHi)
		return nil // EOF follows
	}
	if src < pi.RankLo || src >= pi.RankHi || dst < w.lo || dst >= w.hi {
		return &core.PeerError{
			RankLo: pi.RankLo, RankHi: pi.RankHi, Phase: core.PhaseFrameRead,
			Err: fmt.Errorf("tcpmpi: process %d sent a frame addressed %d→%d; it owns ranks [%d,%d), this process [%d,%d)",
				proc, src, dst, pi.RankLo, pi.RankHi, w.lo, w.hi),
		}
	}
	in, err := w.eng.Claim(src, dst, tag, kind == kindColl, count)
	if err != nil {
		return err
	}
	if err := f64le.ReadFull(p.br, in.Buf); err != nil {
		return in.Done(w.lostPeer(proc, err))
	}
	return in.Done(nil)
}

// lostPeer names process proc as the suspect of a failed or malformed read
// on its connection.
func (w *world) lostPeer(proc int, err error) error {
	pi := w.procs[proc]
	return &core.PeerError{
		RankLo: pi.RankLo, RankHi: pi.RankHi, Phase: core.PhaseFrameRead,
		Err: fmt.Errorf("tcpmpi: peer connection lost: %w", err),
	}
}

// Send writes data from local rank src to rank dst, which lives in another
// process, as one frame on that process's connection (chanmpi.Link
// contract). Buffered semantics: once it returns, the payload is in the
// kernel's socket buffer and the caller may reuse data.
func (w *world) Send(src, dst, tag int, coll bool, data []float64) error {
	proc := w.rankProc[dst]
	pi := w.procs[proc]
	if w.departed[proc].Load() {
		// The peer closed gracefully; the send can never arrive, but the
		// rest of the world is intact — report without failing it. Still a
		// *core.PeerError: a supervisor may recover by re-dialing a world
		// where a restarted replacement owns these ranks.
		return &core.PeerError{
			RankLo: pi.RankLo, RankHi: pi.RankHi, Phase: core.PhaseSend,
			Err: fmt.Errorf("tcpmpi: send %d→%d: the owning process closed its world", src, dst),
		}
	}
	kind := kindUser
	if coll {
		kind = kindColl
	}
	if err := w.conns[proc].writeFrame(kind, src, dst, tag, data); err != nil {
		// A write on a peer connection failing (reset, broken pipe) is the
		// send-side face of a peer death: name the suspect so the failure
		// is recognizably world-level (core.Supervisor restarts on it).
		perr := &core.PeerError{
			RankLo: pi.RankLo, RankHi: pi.RankHi, Phase: core.PhaseSend,
			Err: fmt.Errorf("tcpmpi: send %d→%d: %w", src, dst, err),
		}
		w.Fail(perr)
		return perr
	}
	return nil
}

// Await waits for one step of a collective that local rank `rank` is
// blocked in (chanmpi.Link contract). With Transport.CollectiveTimeout set
// the wait is bounded: a step still incomplete at the deadline fails the
// world with a *core.PeerError in the collective phase naming the ranks it
// waits on — the source process of a round edge, alive (its connection
// pings) but with a rank stuck outside the collective, or the first local
// rank that never entered it. A local step with no one left to name waits
// on: the round is on the wire, whose edges are bounded themselves. With
// Transport.SlowFactor set, each round edge's wait feeds the EWMA of its
// source process's edge (see slow.go).
//
//repro:noalloc
func (w *world) Await(rank int, s chanmpi.Step) error {
	var start time.Time
	if w.slow.enabled() {
		start = time.Now()
	}
	var err error
	if d := w.collTimeout; d > 0 {
		t := w.deadlines[rank-w.lo]
		t.Reset(d)
		var timedOut bool
		if err, timedOut = s.Wait(t.C); !timedOut {
			t.Stop()
		} else if lo, hi, edge := s.Suspect(); lo < hi {
			var why error
			if edge {
				why = fmt.Errorf("tcpmpi: no contribution on round edge %d→%d within %v", lo, w.lo, d)
			} else {
				why = fmt.Errorf("tcpmpi: rank %d did not enter the collective within %v", lo, d)
			}
			perr := &core.PeerError{RankLo: lo, RankHi: hi, Phase: core.PhaseCollective, Err: why}
			w.Fail(perr)
			return perr
		} else {
			err, _ = s.Wait(nil)
		}
	} else {
		err, _ = s.Wait(nil)
	}
	if err == nil && w.slow.enabled() {
		if lo, hi, edge := s.Suspect(); edge {
			proc := w.rankProc[lo]
			w.observeLinkLatency(proc, lo, hi, "collective edge", &w.edgeLat[proc], time.Since(start))
		}
	}
	return err
}

// Interface satisfaction checks.
var (
	_ core.World   = (*world)(nil)
	_ chanmpi.Link = (*world)(nil)
)
