package chanmpi

import "fmt"

// Persistent communication channels, the in-process analogue of
// MPI_Send_init / MPI_Recv_init: the (peer, tag, buffer) triple of a
// recurring exchange is bound ONCE, and each iteration merely restarts the
// resident request with Start and completes it with Wait. All per-message
// bookkeeping — the request object, its completion channel, the send-side
// staging copy — is allocated at init time and reused forever, so a
// steady-state halo exchange performs zero allocations per iteration
// (TestAllocGateHaloExchangePersistent pins this down).
//
// Matching is the ordinary posting-order (source, tag) discipline;
// persistent and one-shot operations interleave freely on the same tag.

// PersistentRequest is a restartable communication channel bound to a
// fixed peer, tag and buffer (MPI persistent request semantics). Start
// initiates one transfer; Wait blocks until it completes and returns its
// error. Each Start must be matched by a Wait before the next Start; for
// sends, Wait is trivially immediate under the runtime's buffered
// semantics. Start after a world failure returns a *WorldError, except
// that a receive still gets a message that arrived before the failure.
type PersistentRequest interface {
	// Start initiates one transfer over the channel. For a receive it
	// (re)posts the resident request; for a send it delivers or stages the
	// current buffer contents. An error detectable at initiation time
	// (world failure, truncation on an immediate match) is returned here.
	Start() error
	// Wait blocks until the transfer initiated by the last Start completes
	// and returns its error. One Wait per Start.
	Wait() error
}

// precv is a persistent receive channel: one resident request, restarted
// into the owner's mailbox by each Start. When the transport behind a
// range world reads an arriving message, a started precv means the
// payload goes straight into the bound buffer (see Claim).
type precv struct {
	c   *Comm
	req *request
}

func (c *Comm) newPrecv(src, tag int, coll bool, buf []float64) precv {
	return precv{c: c, req: &request{
		done:       make(chan struct{}, 1),
		fail:       c.world.failure,
		src:        src,
		tag:        tag,
		coll:       coll,
		buf:        buf,
		persistent: true,
	}}
}

// RecvInit creates a persistent receive channel for messages from rank src
// with the given tag, delivering into buf (MPI_Recv_init). The channel is
// inert until its first Start.
func (c *Comm) RecvInit(src, tag int, buf []float64) (PersistentRequest, error) {
	if src < 0 || src >= c.world.size {
		return nil, &RankError{Op: "RecvInit", Rank: src, Size: c.world.size}
	}
	p := c.newPrecv(src, tag, false, buf)
	return &p, nil
}

func (p *precv) Start() error { return p.startInto(p.req.buf) }

// startInto restarts the resident request delivering into buf. The rebind
// happens under the mailbox lock, inside the not-in-flight guard, so it
// can never race a delivery.
func (p *precv) startInto(buf []float64) error {
	w, r := p.c.world, p.req
	box := w.boxes[p.c.rank-w.lo]
	box.mu.Lock()
	if r.queued && !r.matched {
		// Posted, or claimed by a transport reading into buf. A request
		// left in flight by a world failure reports the failure; only a
		// healthy in-flight restart is a usage error.
		box.mu.Unlock()
		if err := w.failure.load(); err != nil {
			return &WorldError{Cause: err}
		}
		return fmt.Errorf("chanmpi: Start on a persistent receive still in flight (Wait it first)")
	}
	// Drain a completion token the caller never waited for: restarting
	// abandons the previous round's completion.
	select {
	case <-r.done:
	default:
	}
	r.buf = buf
	r.matched, r.err, r.n, r.queued = false, nil, 0, false
	return w.postLocked(box, r)
}

//repro:noalloc
func (p *precv) Wait() error { return p.req.Wait() }

// psend is a persistent send channel. It owns a resident staging copy
// (stage) used when no matching receive is posted yet, so the unmatched
// path buffers without allocating; when the receive is already posted —
// the steady-state order of the halo exchange, which posts all receives
// before gathering — delivery goes straight from the bound buffer into the
// receiver's, and to a rank in another process the Link sends the bound
// buffer itself.
type psend struct {
	c        *Comm
	dst, tag int
	buf      []float64
	stage    *inflight // pending flag guarded by the destination mailbox lock
	lastErr  error
}

// SendInit creates a persistent send channel to rank dst with the given
// tag, transmitting the CURRENT contents of buf on each Start
// (MPI_Send_init — the caller refills buf between Starts).
func (c *Comm) SendInit(dst, tag int, buf []float64) (PersistentRequest, error) {
	if dst < 0 || dst >= c.world.size {
		return nil, &RankError{Op: "SendInit", Rank: dst, Size: c.world.size}
	}
	return &psend{c: c, dst: dst, tag: tag, buf: buf, stage: &inflight{owned: true}}, nil
}

func (p *psend) Start() error {
	p.lastErr = p.c.world.send("SendInit", p.c.rank, p.dst, p.tag, false, p.buf, p.stage)
	return p.lastErr
}

// Wait reports the outcome of the last Start. Sends are buffered, so a
// successfully started transfer is already complete.
//
//repro:noalloc
func (p *psend) Wait() error { return p.lastErr }
