package tcpmpi

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chanmpi"
	"repro/internal/core"
)

// ErrWorldClosed is the failure cause recorded when a world is shut down
// via Close; operations attempted afterwards return a *core.WorldError
// wrapping it.
var ErrWorldClosed = errors.New("tcpmpi: world closed")

// failure is the write-once failure state of a world (same contract as the
// in-process runtime's): the first fail wins, blocked waiters select on ch.
type failure struct {
	mu  sync.Mutex
	err error
	ch  chan struct{}
}

func (f *failure) fail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
		close(f.ch)
	}
}

func (f *failure) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// world is one process's endpoint of a multi-process TCP world: the local
// rank range [lo, hi), one mailbox per local rank, and one connection per
// peer process, each drained by a dedicated reader goroutine. The reader
// goroutines give the transport genuinely asynchronous progress: frames
// move off the wire whether or not any rank is inside a communication
// call (see README.md for how this relates to §3 of the paper).
type world struct {
	size   int
	lo, hi int
	procs  []procInfo
	me     int

	rankProc []int      // rank → owning process index
	boxes    []*mailbox // local rank r → boxes[r-lo]
	conns    []*peerConn
	departed []atomic.Bool // by process index: announced a graceful Close (BYE)

	// hbInterval/hbTimeout configure the heartbeat monitor (zero interval:
	// disabled); collTimeout bounds each collective round's receive (zero:
	// unbounded). All are fixed at bring-up by the Transport.
	hbInterval  time.Duration
	hbTimeout   time.Duration
	collTimeout time.Duration

	// slow is the slow-peer suspicion policy (see slow.go); slowSuspect,
	// by process index, debounces the advisory hook per degradation
	// episode.
	slow        slowConfig
	slowSuspect []atomic.Bool

	failure   *failure
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
		boxes:       make([]*mailbox, hi-lo),
		conns:       make([]*peerConn, len(procs)),
		departed:    make([]atomic.Bool, len(procs)),
		slowSuspect: make([]atomic.Bool, len(procs)),
		failure:     &failure{ch: make(chan struct{})},
	}
	covered := 0
	for p, pi := range procs {
		if pi.RankLo != covered || pi.RankHi <= pi.RankLo || pi.RankHi > size {
			return nil, fmt.Errorf("tcpmpi: roster does not tile [0,%d): process %d owns [%d,%d)", size, p, pi.RankLo, pi.RankHi)
		}
		for r := pi.RankLo; r < pi.RankHi; r++ {
			w.rankProc[r] = p
		}
		covered = pi.RankHi
	}
	if covered != size {
		return nil, fmt.Errorf("tcpmpi: roster covers %d of %d ranks", covered, size)
	}
	if me < 0 || me >= len(procs) || procs[me].RankLo != lo || procs[me].RankHi != hi {
		return nil, fmt.Errorf("tcpmpi: roster disagrees with local rank range [%d,%d)", lo, hi)
	}
	for i := range w.boxes {
		w.boxes[i] = &mailbox{}
	}
	return w, nil
}

// failWorld records the first failure and tears the connections down, so
// blocked local waiters wake with a *core.WorldError and peer processes
// observe the loss on their next read — the closest TCP analogue of an
// MPI job abort.
func (w *world) failWorld(err error) {
	w.failure.fail(err)
	w.teardown()
}

func (w *world) teardown() {
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

// Fail poisons the world with the given cause (core.World contract); see
// failWorld. The connection teardown propagates the failure to peer
// processes, so a job that fails in one process fails the whole world.
func (w *world) Fail(err error) { w.failWorld(err) }

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
	return &comm{w: w, rank: rank}, nil
}

// Close shuts the endpoint down gracefully: a BYE frame is flushed to
// every peer — the last bytes this process writes, so the peers' readers
// see the departure announcement before the EOF and treat it as a clean
// exit rather than a world failure — then the local world is failed with
// ErrWorldClosed (releasing anything still blocked in it) and every
// connection is closed. Already-delivered frames on the peers remain
// receivable after the departure (see post), so a lagging peer can finish
// consuming a completed exchange; only receives that can never be matched
// fail. Close is idempotent.
func (w *world) Close() error {
	if w.closing.Swap(true) {
		return nil
	}
	if w.failure.Err() == nil {
		for _, p := range w.conns {
			if p != nil {
				p.writeFrame(kindBye, 0, 0, 0, nil) // best effort
			}
		}
	}
	w.failure.fail(ErrWorldClosed)
	w.teardown()
	return nil
}

// startHeartbeat launches the world's heartbeat monitor: every hbInterval
// it pings each peer connection that has been send-idle for an interval
// (so a quiet but healthy world exchanges pings in both directions and
// never trips the detector) and declares a peer suspect — failing the
// world with a *core.PeerError naming the peer's rank range — when
// nothing, ping or payload, has arrived on its connection within
// hbTimeout. The monitor exits when the world fails (which includes
// Close). A departed peer (BYE received) is exempt: its silence is
// announced, not suspect. Steady-state cost is two time loads per tick
// per peer and one empty frame per idle interval; nothing on the tick
// path allocates, so the PR 5 alloc gates hold with heartbeats enabled.
func (w *world) startHeartbeat() {
	go func() {
		ticker := time.NewTicker(w.hbInterval)
		defer ticker.Stop()
		for {
			select {
			case <-w.failure.ch:
				return
			case <-ticker.C:
			}
			now := time.Now().UnixNano()
			for proc, p := range w.conns {
				if p == nil || w.departed[proc].Load() {
					continue
				}
				if now-p.lastHeard.Load() > int64(w.hbTimeout) {
					pi := w.procs[proc]
					w.failWorld(&core.PeerError{
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

// markDeparted records a peer process's graceful exit and fails every
// posted receive that is still waiting on one of its ranks — those can
// never be matched now. Buffered arrivals from the departed process stay
// consumable.
func (w *world) markDeparted(proc int) {
	w.departed[proc].Store(true)
	for _, box := range w.boxes {
		box.mu.Lock()
		for _, r := range box.recvs {
			if !r.matched && w.rankProc[r.src] == proc {
				r.failWith(w.departedErr(r.src))
			}
		}
		box.compactLocked()
		box.mu.Unlock()
	}
}

func (w *world) departedErr(src int) error {
	return fmt.Errorf("tcpmpi: the process owning rank %d closed its world before the message arrived", src)
}

// readLoop drains one peer connection, delivering each frame into the
// destination rank's mailbox. A BYE frame marks the peer gracefully
// departed (the connection's EOF is then expected); any other read error
// fails the world — unless this endpoint is itself closing — with a
// *core.PeerError naming the peer's rank range as the suspect, so a
// crashed process (EOF without BYE) is pinpointed rather than reported as
// an anonymous connection loss. Payloads are decoded straight out of the
// connection's raw buffer: into a posted receive's user buffer when one
// is waiting (zero allocations per frame), into a recycled carrier
// otherwise.
func (w *world) readLoop(proc int, p *peerConn) {
	for {
		kind, src, dst, tag, raw, err := p.readFrame()
		if err != nil {
			if !w.closing.Load() && !w.departed[proc].Load() {
				pi := w.procs[proc]
				w.failWorld(&core.PeerError{
					RankLo: pi.RankLo, RankHi: pi.RankHi, Phase: core.PhaseFrameRead,
					Err: fmt.Errorf("tcpmpi: peer connection lost: %w", err),
				})
			}
			return
		}
		now := time.Now().UnixNano()
		p.lastHeard.Store(now)
		if kind == kindPing {
			// Echo so the originator gets a round-trip sample; best effort —
			// a write error here means the connection is dying, which the
			// next read reports with the real cause.
			p.writeFrame(kindPong, 0, 0, 0, nil)
			continue
		}
		if kind == kindPong {
			if sent := p.pingSentNs.Swap(0); sent != 0 {
				pi := w.procs[proc]
				w.observeLinkLatency(proc, pi.RankLo, pi.RankHi, "ping round-trip", &p.rtt, time.Duration(now-sent))
			}
			continue
		}
		if kind == kindBye {
			w.markDeparted(proc)
			continue // EOF follows
		}
		if src < 0 || src >= w.size || dst < w.lo || dst >= w.hi {
			w.failWorld(fmt.Errorf("tcpmpi: frame addressed %d→%d outside this process's ranks [%d,%d)", src, dst, w.lo, w.hi))
			return
		}
		if err := w.deliverRaw(kind == kindColl, src, dst, tag, raw); err != nil {
			w.failWorld(err)
			return
		}
	}
}

// mailbox holds the unmatched arrivals and posted receives of one local
// rank, in the same posting-order matching discipline as the in-process
// runtime: earliest posted receive with equal (src, tag, coll) wins.
// Consumed buffered-arrival carriers are recycled on a small free ring
// (payload buffer included), so the buffered path stops allocating once
// the steady-state exchange sizes have been seen.
type mailbox struct {
	mu    sync.Mutex
	recvs []*request
	sends []*inflight
	free  []*inflight // recycled carriers, most recently freed last
}

// maxFreeCarriers bounds the recycle ring per mailbox; halo exchanges have
// a handful of peers, so a short ring captures the steady state without
// pinning memory after a burst.
const maxFreeCarriers = 16

// getCarrierLocked returns a recycled carrier whose payload buffer holds n
// elements, growing or allocating only when the ring has nothing suitable.
func (b *mailbox) getCarrierLocked(n int) *inflight {
	for i := len(b.free) - 1; i >= 0; i-- {
		if cap(b.free[i].data) >= n {
			m := b.free[i]
			b.free = append(b.free[:i], b.free[i+1:]...)
			m.data = m.data[:n]
			return m
		}
	}
	if len(b.free) > 0 {
		// Reuse the struct, grow its buffer.
		m := b.free[len(b.free)-1]
		b.free = b.free[:len(b.free)-1]
		m.data = make([]float64, n)
		return m
	}
	return &inflight{data: make([]float64, n)}
}

// putCarrierLocked returns a consumed carrier to the ring.
func (b *mailbox) putCarrierLocked(m *inflight) {
	if m == nil || m.owned || len(b.free) >= maxFreeCarriers {
		return
	}
	b.free = append(b.free, m)
}

type inflight struct {
	src, tag int
	coll     bool
	data     []float64
	// owned marks a persistent send's resident staging copy: it belongs to
	// the SendInit request (pending tracks whether it is buffered here) and
	// must never enter the recycle ring.
	owned   bool
	pending bool
}

// request is the tcpmpi-backed core.Request implementation for receives.
type request struct {
	done chan struct{}
	fail *failure

	n        int
	src, tag int
	coll     bool
	buf      []float64
	matched  bool
	// queued/persistent: restartable RecvInit request state — completion
	// sends a token on the buffered done channel instead of closing it,
	// so the resident request restarts without reallocating.
	queued     bool
	persistent bool
	err        error
}

func (r *request) signalDone() {
	if r.persistent {
		r.done <- struct{}{}
	} else {
		close(r.done)
	}
}

func (r *request) Wait() error {
	if r == nil {
		return nil
	}
	select {
	case <-r.done:
		return r.err
	case <-r.fail.ch:
		select {
		case <-r.done:
			return r.err
		default:
			return &core.WorldError{Cause: r.fail.Err()}
		}
	}
}

// waitTimer completes like Wait but gives up when the timer channel
// fires first, reporting timedOut without consuming the request's
// completion (the world is about to be failed anyway). The collectives
// use it with the communicator's resident deadline timer.
func (r *request) waitTimer(tc <-chan time.Time) (err error, timedOut bool) {
	select {
	case <-r.done:
		return r.err, false
	case <-r.fail.ch:
		select {
		case <-r.done:
			return r.err, false
		default:
			return &core.WorldError{Cause: r.fail.Err()}, false
		}
	case <-tc:
		select {
		case <-r.done:
			return r.err, false
		default:
			return nil, true
		}
	}
}

func (r *request) Done() bool {
	if r == nil {
		return true
	}
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// doneRequest is the trivially complete handle of a buffered send.
type doneRequest struct{}

func (doneRequest) Wait() error { return nil }
func (doneRequest) Done() bool  { return true }

// failWith completes the request with an error. Callers hold the mailbox
// lock.
func (r *request) failWith(err error) {
	r.err = err
	r.matched = true
	r.signalDone()
}

// complete copies data into the request buffer and completes it, recording
// a truncation error if the message does not fit. Callers hold the mailbox
// lock and must release it before failing the world on the returned error.
func (r *request) complete(data []float64) error {
	if len(data) > len(r.buf) {
		err := &core.TruncationError{Len: len(data), Cap: len(r.buf), Src: r.src, Tag: r.tag}
		r.failWith(err)
		return err
	}
	copy(r.buf, data)
	r.n = len(data)
	r.matched = true
	r.signalDone()
	return nil
}

// completeRaw decodes a raw wire payload directly into the request buffer
// — the posted-receive fast path: no intermediate []float64 exists at any
// point. Callers hold the mailbox lock.
func (r *request) completeRaw(raw []byte) error {
	n := len(raw) / 8
	if n > len(r.buf) {
		err := &core.TruncationError{Len: n, Cap: len(r.buf), Src: r.src, Tag: r.tag}
		r.failWith(err)
		return err
	}
	decodeInto(r.buf[:n], raw)
	r.n = n
	r.matched = true
	r.signalDone()
	return nil
}

func (b *mailbox) compactLocked() {
	recvs := b.recvs[:0]
	for _, r := range b.recvs {
		if !r.matched {
			recvs = append(recvs, r)
		}
	}
	b.recvs = recvs
	sends := b.sends[:0]
	for _, s := range b.sends {
		if s != nil {
			sends = append(sends, s)
		}
	}
	b.sends = sends
}

// deliverRaw files a frame payload straight off the wire: decoded into the
// earliest matching posted receive's user buffer when one is waiting (the
// fast path — the frame never materializes as a separate slice), decoded
// into a recycled carrier and buffered otherwise. raw is only borrowed;
// ownership stays with the reader goroutine.
func (w *world) deliverRaw(coll bool, src, dst, tag int, raw []byte) error {
	box := w.boxes[dst-w.lo]
	box.mu.Lock()
	for _, rr := range box.recvs {
		if rr.matched || rr.src != src || rr.tag != tag || rr.coll != coll {
			continue
		}
		err := rr.completeRaw(raw)
		box.compactLocked()
		box.mu.Unlock()
		return err
	}
	m := box.getCarrierLocked(len(raw) / 8)
	m.src, m.tag, m.coll = src, tag, coll
	decodeInto(m.data, raw)
	box.sends = append(box.sends, m)
	box.mu.Unlock()
	return nil
}

// deliverLocal files a local rank-to-rank send: copied into the earliest
// matching posted receive directly, or buffered through a recycled carrier
// (or the persistent send's resident staging copy when stage is non-nil
// and free). Buffered semantics — data may be reused on return.
func (w *world) deliverLocal(coll bool, src, dst, tag int, data []float64, stage *inflight) error {
	box := w.boxes[dst-w.lo]
	box.mu.Lock()
	for _, rr := range box.recvs {
		if rr.matched || rr.src != src || rr.tag != tag || rr.coll != coll {
			continue
		}
		err := rr.complete(data)
		box.compactLocked()
		box.mu.Unlock()
		return err
	}
	m := stage
	if m == nil || m.pending {
		m = box.getCarrierLocked(len(data))
	} else {
		if cap(m.data) < len(data) {
			m.data = make([]float64, len(data))
		}
		m.data = m.data[:len(data)]
		m.pending = true
	}
	m.src, m.tag, m.coll = src, tag, coll
	copy(m.data, data)
	box.sends = append(box.sends, m)
	box.mu.Unlock()
	return nil
}

// send transmits data from local rank src to rank dst: a direct mailbox
// delivery when dst is local, one frame on the owning process's connection
// otherwise. Buffered semantics either way — the caller may reuse data as
// soon as send returns. stage, when non-nil, is a persistent send's
// resident staging carrier for the local unmatched case.
func (w *world) send(src, dst, tag int, coll bool, data []float64, stage *inflight) error {
	if dst < 0 || dst >= w.size {
		return &core.RankError{Op: "Isend", Rank: dst, Size: w.size}
	}
	if err := w.failure.Err(); err != nil {
		return &core.WorldError{Cause: err}
	}
	if dst >= w.lo && dst < w.hi {
		if err := w.deliverLocal(coll, src, dst, tag, data, stage); err != nil {
			w.failWorld(err)
			return err
		}
		return nil
	}
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
		w.failWorld(perr)
		return perr
	}
	return nil
}

// post registers a nonblocking receive for local rank dst, matching any
// already-buffered arrival first.
func (w *world) post(dst, src, tag int, coll bool, buf []float64) (*request, error) {
	if src < 0 || src >= w.size {
		return nil, &core.RankError{Op: "Irecv", Rank: src, Size: w.size}
	}
	req := &request{done: make(chan struct{}), fail: w.failure, src: src, tag: tag, coll: coll, buf: buf}
	if err := w.postReq(dst, req); err != nil {
		if req.matched {
			// Completed with a delivery error (truncation): the request
			// carries the error for both endpoints.
			return req, err
		}
		return nil, err // refused: failed world or departed peer
	}
	return req, nil
}

// postReq files a (new or restarted) receive request into dst's mailbox,
// matching any already-buffered arrival first. The buffered-arrival scan
// runs BEFORE the failure check: a message that reached this process
// before the world failed is still deliverable (a lagging rank must be
// able to consume the final frames of a completed exchange after a peer
// has departed). The caller distinguishes "completed with error" from
// "never posted" by req.matched.
func (w *world) postReq(dst int, req *request) error {
	src, tag, coll := req.src, req.tag, req.coll
	box := w.boxes[dst-w.lo]
	box.mu.Lock()
	for i, m := range box.sends {
		if m == nil || m.src != src || m.tag != tag || m.coll != coll {
			continue
		}
		box.sends[i] = nil
		m.pending = false
		err := req.complete(m.data)
		box.putCarrierLocked(m)
		box.compactLocked()
		box.mu.Unlock()
		if err != nil {
			w.failWorld(err)
		}
		return err
	}
	if err := w.failure.Err(); err != nil {
		box.mu.Unlock()
		return &core.WorldError{Cause: err}
	}
	if w.departed[w.rankProc[src]].Load() {
		// Checked under the box lock, after the buffered scan: anything
		// the departed peer sent before its BYE was already consumable
		// above; what remains can never be matched.
		box.mu.Unlock()
		return w.departedErr(src)
	}
	req.queued = true
	box.recvs = append(box.recvs, req)
	box.mu.Unlock()
	return nil
}

// comm is one local rank's communicator handle, satisfying core.Comm. It
// carries the rank's resident collective scratch (see collective.go), so
// a handle belongs to one rank goroutine; the Cluster obtains one per
// local rank and keeps it.
type comm struct {
	w    *world
	rank int
	// scalarBuf is the resident one-element contribution vector of the
	// scalar collectives.
	scalarBuf [1]float64
	cs        collScratch
}

func (c *comm) Rank() int { return c.rank }
func (c *comm) Size() int { return c.w.size }

func (c *comm) Isend(dst, tag int, data []float64) (core.Request, error) {
	if err := c.w.send(c.rank, dst, tag, false, data, nil); err != nil {
		return nil, err
	}
	return doneRequest{}, nil
}

func (c *comm) Irecv(src, tag int, buf []float64) (core.Request, error) {
	req, err := c.w.post(c.rank, src, tag, false, buf)
	if req == nil {
		return nil, err
	}
	return req, err
}

// precv is a persistent receive channel (MPI_Recv_init): one resident
// request — token-completed, so restartable — re-posted into the rank's
// mailbox by each Start. Combined with the reader goroutine's
// posted-receive fast path, a started persistent receive means an arriving
// frame decodes straight into the bound user buffer: zero allocations per
// message on either side.
type precv struct {
	w    *world
	rank int
	req  *request
	// lat is the edge's receive-wait EWMA when the channel backs a
	// collective round under slow-peer suspicion (see slow.go).
	lat latEwma
}

// newPrecv builds the resident request of a persistent receive; the
// collectives use one coll=true channel per round.
func (c *comm) newPrecv(src, tag int, coll bool) *precv {
	return &precv{
		w:    c.w,
		rank: c.rank,
		req: &request{
			done:       make(chan struct{}, 1),
			fail:       c.w.failure,
			src:        src,
			tag:        tag,
			coll:       coll,
			persistent: true,
		},
	}
}

// RecvInit creates a persistent receive channel for messages from rank src
// with the given tag, delivering into buf. The channel is inert until its
// first Start; each Start must be Waited before the next.
func (c *comm) RecvInit(src, tag int, buf []float64) (core.PersistentRequest, error) {
	if src < 0 || src >= c.w.size {
		return nil, &core.RankError{Op: "RecvInit", Rank: src, Size: c.w.size}
	}
	p := c.newPrecv(src, tag, false)
	p.req.buf = buf
	return p, nil
}

func (p *precv) Start() error { return p.startInto(p.req.buf) }

// startInto restarts the resident request delivering into buf — the
// rebind happens under the mailbox lock, inside the not-in-flight guard,
// so it can never race a delivery. The collectives use it to reuse one
// persistent channel per round across collectives of varying payload
// length.
func (p *precv) startInto(buf []float64) error {
	r := p.req
	box := p.w.boxes[p.rank-p.w.lo]
	box.mu.Lock()
	if r.queued && !r.matched {
		// A request left queued by a world failure is restartable once the
		// failure is the reported cause; only a healthy in-flight restart
		// is a usage error.
		if err := p.w.failure.Err(); err != nil {
			box.mu.Unlock()
			return &core.WorldError{Cause: err}
		}
		box.mu.Unlock()
		return fmt.Errorf("tcpmpi: Start on a persistent receive still in flight (Wait it first)")
	}
	// Drain a completion token the caller never waited for: restarting
	// abandons the previous round's completion.
	select {
	case <-r.done:
	default:
	}
	r.buf = buf
	r.matched, r.err, r.n, r.queued = false, nil, 0, false
	box.mu.Unlock()
	return p.w.postReq(p.rank, r)
}

func (p *precv) Wait() error { return p.req.Wait() }

// psend is a persistent send channel (MPI_Send_init): each Start transmits
// the current contents of the bound buffer. Remote destinations go through
// the connection's resident frame scratch; a local destination delivers
// directly into a posted receive or buffers through the request's resident
// staging carrier — no per-message allocation on any path.
type psend struct {
	w        *world
	src      int
	dst, tag int
	buf      []float64
	stage    *inflight
	lastErr  error
}

// SendInit creates a persistent send channel to rank dst with the given
// tag, transmitting the CURRENT contents of buf on each Start (the caller
// refills buf between Starts).
func (c *comm) SendInit(dst, tag int, buf []float64) (core.PersistentRequest, error) {
	if dst < 0 || dst >= c.w.size {
		return nil, &core.RankError{Op: "SendInit", Rank: dst, Size: c.w.size}
	}
	return &psend{
		w:     c.w,
		src:   c.rank,
		dst:   dst,
		tag:   tag,
		buf:   buf,
		stage: &inflight{owned: true},
	}, nil
}

func (p *psend) Start() error {
	p.lastErr = p.w.send(p.src, p.dst, p.tag, false, p.buf, p.stage)
	return p.lastErr
}

// Wait reports the outcome of the last Start; sends are buffered, so a
// successfully started transfer is already complete.
func (p *psend) Wait() error { return p.lastErr }

// Waitall delegates to the shared implementation — core.Request aliases
// the chanmpi interface, so the wait-all-then-first-error discipline is
// written once for every transport.
func (c *comm) Waitall(reqs ...core.Request) error {
	return chanmpi.Waitall(reqs...)
}

// Interface satisfaction checks.
var (
	_ core.Comm    = (*comm)(nil)
	_ core.World   = (*world)(nil)
	_ core.Request = (*request)(nil)
	_ core.Request = doneRequest{}
)
