package chanmpi

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Every collective — Barrier, Allreduce, AllreduceScalar, AllgatherInt64 —
// is one algorithm on every real-time world, hierarchical by process: the
// paper's case for hybrid over pure MPI (fewer processes, so fewer
// messages) applied to the reductions. A world's Q processes hold
// consecutive rank ranges; this one holds [lo, hi).
//
//  1. Local phase. Each local rank writes its vector into one resident
//     table of P vectors, laid out so that block j is rank (lo+j) mod P's:
//     the local ranks fill a prefix, in rank order.
//  2. Wire phase, only when Q > 1. The last local rank to arrive runs a
//     dissemination (Bruck) allgather over the Q processes on behalf of
//     its process, addressed from and to each process's leader, rank lo.
//     Because ranks are contiguous, process (me+j) mod Q's vectors follow
//     process me+j−1's in the table, so round k (while 2ᵏ < Q) sends the
//     table's first min(2ᵏ, Q−2ᵏ) process blocks — a prefix — to the
//     leader of process me−2ᵏ, and receives as many from the leader of
//     process me+2ᵏ, under tag k, straight into the table behind the 2ᵏ
//     blocks it already holds. After ⌈log₂Q⌉ rounds the table holds every
//     rank's vector: Q·⌈log₂Q⌉ frames per collective in all, however many
//     ranks each process holds.
//  3. The same rank combines all P vectors in canonical rank order
//     0 ⊕ 1 ⊕ … ⊕ P−1 into the resident result (AllgatherInt64 places
//     them instead) and wakes the other local ranks. Every process
//     computes the same bits, so results are bit-identical across splits
//     and transports; an all-local world is the case Q = 1.
//
// Waits are bounded only by the Link's policy (Link.Await): a local rank
// waiting for its round, and the wire rank waiting on a round edge. Ranks
// enter collectives in one global order (an SPMD requirement, as in MPI),
// so the per-(source, tag) FIFO keeps successive collectives' rounds apart
// with no barrier between them. Nothing a steady-state collective touches
// is allocated per call, and a rank's result stays valid until its next
// collective: the next round's combine runs only once every local rank
// has entered it.

// collective is a world's collective state.
type collective struct {
	mu      sync.Mutex
	round   uint64    // the round local ranks are entering, from 1
	arrived int       // local ranks in it so far
	ln      int       // its vector length, set by its first arrival
	odd     int       // the length of an arrival that disagrees with ln, or -1
	table   []float64 // P vectors of ln; block j is rank (lo+j) mod P's
	members []*member // by local rank
	edges   []edge    // wire round k's receive and send; none when Q = 1

	// The last completed round's outcome, written by the rank that
	// completed it before it stored done and woke the others.
	err      error
	res      []float64
	gathered []int64
	done     atomic.Uint64 // the last completed round
}

// member is a local rank's place in the collective.
type member struct {
	w     *World
	round uint64        // the round it last entered; guarded by the collective's lock
	wake  chan struct{} // a token when that round completes or the world fails
}

// edge is wire round k: the receive from the leader of process me+2ᵏ and
// the send to the leader of process me−2ᵏ, with the round's extents in
// ranks — held before it, sent, and received.
type edge struct {
	recv            precv
	dst             int
	lo, hi          int // the source process's ranks
	held, out, into int
}

func (c *collective) init(w *World, bounds []int, me int) {
	c.round = 1
	c.members = make([]*member, w.hi-w.lo)
	for i := range c.members {
		c.members[i] = &member{w: w, wake: make(chan struct{}, 1)}
	}
	q := len(bounds) - 1
	// span counts the ranks of n consecutive processes from process p,
	// wrapping past the last.
	span := func(p, n int) int {
		p %= q
		if p+n <= q {
			return bounds[p+n] - bounds[p]
		}
		return w.size - bounds[p] + bounds[p+n-q]
	}
	leader := &Comm{world: w, rank: w.lo}
	for k, dist := 0, 1; dist < q; k, dist = k+1, 2*dist {
		src, n := (me+dist)%q, min(dist, q-dist)
		c.edges = append(c.edges, edge{
			recv: leader.newPrecv(bounds[src], k, true, nil),
			dst:  bounds[(me-dist+q)%q],
			lo:   bounds[src], hi: bounds[src+1],
			held: span(me, dist), out: span(me, n), into: span(me+dist, n),
		})
	}
}

// Barrier blocks until all ranks have entered it: the zero-length
// Allreduce. On a failed world it returns a *WorldError instead of
// blocking forever.
func (c *Comm) Barrier() error {
	return c.world.collective(c.rank, OpSum, nil, false)
}

// Allreduce combines in-vectors elementwise across all ranks and returns
// the combined vector: the same backing array on every local rank, to be
// treated as read-only, valid until this rank's next collective. The
// combine runs in canonical rank order 0, 1, …, Size-1 on every process,
// so the result is bit-deterministic across runs, splits and transports.
// Ranks must agree on the vector length: a mismatch returns a
// *MismatchError to a rank that sees it and fails the world, so peers
// blocked in the round observe a *WorldError.
func (c *Comm) Allreduce(op ReduceOp, in []float64) ([]float64, error) {
	if err := c.world.collective(c.rank, op, in, false); err != nil {
		return nil, err
	}
	return c.world.coll.res, nil
}

// AllreduceScalar combines a single value across all ranks. It contributes
// through the communicator's resident one-element buffer, so the scalar
// reductions riding every solver iteration allocate nothing.
func (c *Comm) AllreduceScalar(op ReduceOp, v float64) (float64, error) {
	c.scalarBuf[0] = v
	res, err := c.Allreduce(op, c.scalarBuf[:])
	if err != nil {
		return 0, err
	}
	return res[0], nil
}

// AllgatherInt64 gathers one int64 from every rank; the result is indexed
// by rank, shared read-only across local ranks, and valid until this
// rank's next collective. The values travel bit-cast as float64s (exact
// over the full int64 range) and are only placed, never combined.
func (c *Comm) AllgatherInt64(v int64) ([]int64, error) {
	c.scalarBuf[0] = math.Float64frombits(uint64(v))
	if err := c.world.collective(c.rank, OpSum, c.scalarBuf[:], true); err != nil {
		return nil, err
	}
	return c.world.coll.gathered, nil
}

// collective runs one round for local rank `rank`, contributing in; the
// rank that completes it finishes it (see finish), and the round's error,
// if any, goes to every local rank.
//
//repro:noalloc
func (w *World) collective(rank int, op ReduceOp, in []float64, gather bool) error {
	c := &w.coll
	m := c.members[rank-w.lo]
	c.mu.Lock()
	if err := w.failure.load(); err != nil {
		c.mu.Unlock()
		return &WorldError{Cause: err}
	}
	if c.arrived == 0 {
		c.ln, c.odd = len(in), -1
		if cap(c.table) < w.size*c.ln {
			c.table = make([]float64, w.size*c.ln) //repro:alloc-ok grow-once resident table
		}
		c.table = c.table[:w.size*c.ln]
	}
	if len(in) == c.ln {
		copy(c.table[(rank-w.lo)*c.ln:], in)
	} else {
		c.odd = len(in)
	}
	m.round = c.round
	c.arrived++
	if c.arrived < len(c.members) {
		c.mu.Unlock()
		return w.await(rank, m)
	}
	c.arrived = 0
	c.round++
	odd := c.odd
	c.mu.Unlock()
	// Every other local rank waits for its token below, so the table and
	// the results are this rank's alone until it sends them.
	err := w.finish(rank, op, gather, odd)
	c.err = err
	c.done.Store(m.round)
	c.wake(m)
	return err
}

// wake hands every member but skip a token. One already waiting in a
// channel is enough: the member reads done when it wakes.
func (c *collective) wake(skip *member) {
	for _, o := range c.members {
		if o == skip {
			continue
		}
		select {
		case o.wake <- struct{}{}:
		default:
		}
	}
}

// await blocks local rank `rank` on step s: under the Link's wait policy
// when there is a Link, without a bound when every rank is local.
func (w *World) await(rank int, s Step) error {
	if w.link == nil {
		err, _ := s.Wait(nil)
		return err
	}
	return w.link.Await(rank, s)
}

// finish completes a round for the local rank `rank` that entered it
// last: it runs the dissemination rounds over the processes, then reduces
// the P vectors with op into coll.res or, with gather, places them into
// coll.gathered. Ranks that disagree on the vector length — odd is a local
// arrival's length other than coll.ln, or -1 — or a received round of any
// other length than the table expects are a *MismatchError that fails the
// world. The check waits for the round to complete, so ranks blocked in
// different collectives on a world that fails meanwhile see that failure.
//
//repro:noalloc
func (w *World) finish(rank int, op ReduceOp, gather bool, odd int) error {
	c := &w.coll
	ln := c.ln
	if odd >= 0 {
		err := &MismatchError{Got: odd, Want: ln}
		w.Fail(err)
		return err
	}
	for k := range c.edges {
		e := &c.edges[k]
		into := c.table[e.held*ln : (e.held+e.into)*ln]
		err := e.recv.startInto(into)
		if err == nil {
			err = w.send("collective", w.lo, e.dst, k, true, c.table[:e.out*ln], nil)
			// A send refused by a failed world still looks at its receive
			// (the wait returns at once): if the world failed over this
			// very receive, that is the error to report, not the send's.
			if err == nil || w.failure.load() != nil {
				if werr := w.await(rank, e); werr != nil {
					err = werr
				}
			}
		}
		if trunc, ok := err.(*TruncationError); ok {
			return &MismatchError{Got: trunc.Len, Want: len(into)}
		}
		if err != nil {
			return err
		}
		if n := e.recv.req.n; n != len(into) {
			err := &MismatchError{Got: n, Want: len(into)}
			w.Fail(err)
			return err
		}
	}
	if gather {
		w.gather()
	} else {
		w.reduce(op)
	}
	return nil
}

// vector returns rank r's vector in the table: block (r−lo) mod P.
func (w *World) vector(r int) []float64 {
	ln, j := w.coll.ln, r-w.lo
	if j < 0 {
		j += w.size
	}
	return w.coll.table[j*ln : (j+1)*ln]
}

// reduce folds the P vectors into coll.res in canonical rank order
// 0 ⊕ 1 ⊕ … ⊕ P−1.
//
//repro:noalloc
func (w *World) reduce(op ReduceOp) {
	c := &w.coll
	if cap(c.res) < c.ln {
		c.res = make([]float64, c.ln) //repro:alloc-ok grow-once resident result
	}
	res := c.res[:c.ln]
	copy(res, w.vector(0))
	for r := 1; r < w.size; r++ {
		for i, v := range w.vector(r) {
			res[i] = op.Combine(res[i], v)
		}
	}
	c.res = res
}

// gather places every rank's one-element vector, bit-cast back, into
// coll.gathered by rank.
//
//repro:noalloc
func (w *World) gather() {
	c := &w.coll
	if c.gathered == nil {
		c.gathered = make([]int64, w.size) //repro:alloc-ok once-per-world result
	}
	for r := range c.gathered {
		c.gathered[r] = int64(math.Float64bits(w.vector(r)[0]))
	}
}

// Wait blocks until the round the member entered completes and returns
// the round's error, or a *WorldError if the world fails first; it gives
// up when timeout fires first, without consuming the completion. Its
// token comes from the rank that completes the round or from World.Fail,
// whichever is first: a plain channel receive, so an untimed wait costs
// no more than a condition variable's.
func (m *member) Wait(timeout <-chan time.Time) (err error, timedOut bool) {
	if timeout == nil {
		<-m.wake
	} else {
		select {
		case <-m.wake:
		case <-timeout:
			return nil, true
		}
	}
	c := &m.w.coll
	if c.done.Load() < m.round {
		return &WorldError{Cause: m.w.failure.load()}, false
	}
	return c.err, false
}

// Suspect names the first local rank that has not entered the member's
// round; no one once all of them have, when the round is on the wire.
func (m *member) Suspect() (lo, hi int, remote bool) {
	w, c := m.w, &m.w.coll
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.round == m.round {
		for i, o := range c.members {
			if o.round != m.round {
				return w.lo + i, w.lo + i + 1, false
			}
		}
	}
	return 0, 0, false
}

// Wait blocks until the round's receive completes; see Step.
func (e *edge) Wait(timeout <-chan time.Time) (err error, timedOut bool) {
	return e.recv.req.waitTimer(timeout)
}

// Suspect names the source process's ranks.
func (e *edge) Suspect() (lo, hi int, remote bool) { return e.lo, e.hi, true }
