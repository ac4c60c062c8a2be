package tcpmpi

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
)

// Every collective is a dissemination (Bruck) allgather followed by the
// same transform on every rank, over internal kindColl frames so it can
// never collide with user tags:
//
//  1. the rank's payload holds P blocks of the round's vector length,
//     block j being the vector of rank (rank+j) mod P; block 0 is its own;
//  2. in round k (k = 0, 1, …, while 2ᵏ < P) the rank sends its first
//     min(2ᵏ, P−2ᵏ) blocks to rank−2ᵏ and receives as many from rank+2ᵏ,
//     straight into the payload behind the blocks it already holds, under
//     tag k;
//  3. after ⌈log₂P⌉ rounds every rank holds every rank's vector and
//     applies the transform itself.
//
// There is no root and no way back down: the critical path is ⌈log₂P⌉
// one-way latencies (one, for a pair of ranks) where gather-to-root plus
// broadcast on a tree pays twice its depth, and on this transport a hop
// is a thread wake-up, not a byte count. Vectors travel whole instead of
// being combined en route, so each rank combines in canonical rank order
// 0 ⊕ 1 ⊕ … ⊕ size-1 — the exact floating-point sequence the in-process
// chanmpi runtime uses — and all ranks compute the same bits. That is what
// makes whole solves bit-identical across transports. The price is a
// P·len payload, and every caller in the repo reduces a scalar or two.
// Ranks participate in collectives in one global order (an SPMD
// requirement, as in MPI), so the per-(src,tag) FIFO matching keeps the
// rounds of successive collectives apart with no barrier between them.
//
// Everything a collective needs is resident on the communicator and reused
// (collectives on one rank are never concurrent), mirroring the in-process
// reducer's resident collection buffers: the payload, the result, the
// rank-indexed vector table and the int64 conversion scratch — and the
// receives themselves, which run over one persistent channel per round
// (a round's source never changes), restarted with the round's slice of
// the payload. A steady-state collective therefore allocates nothing. The
// returned slices stay valid only until the rank's next collective.

// collScratch is a communicator's resident collective workspace.
type collScratch struct {
	payload  []float64   // P blocks; block j is rank (rank+j) mod P's vector
	res      []float64   // transform output
	vecs     [][]float64 // rank-indexed views into payload
	gathered []int64     // AllgatherInt64 conversion output

	// recv[k] is round k's persistent receive channel, from rank+2ᵏ under
	// tag k, created on first use.
	recv []*precv

	// deadline is the resident timer of the optional per-collective
	// deadline (Transport.CollectiveTimeout), created on first use and
	// Reset per round wait — Go's post-1.23 timer semantics guarantee a
	// Reset discards any stale fire, so no drain dance is needed and the
	// steady-state wait allocates nothing.
	deadline *time.Timer
}

// grow returns buf resized to n elements, reallocating only on capacity
// growth — the steady-state rounds of a solver reuse the same backing
// arrays forever.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// exchange is one round of a collective: post the round's persistent
// receive p (from p's source rank) delivering into `into`, send `out` to
// dst under the round's tag, and wait for exactly len(into) elements. Any
// other length — shorter, or longer and therefore truncated — means the
// ranks disagree on the collective's vector length: a protocol-level
// *core.MismatchError that fails the world. With
// Transport.CollectiveTimeout set, the wait is bounded: a round edge that
// stays silent past the deadline fails the world with a *core.PeerError
// naming the source as the hung rank — the detection path for a peer that
// is alive (its connection pings) but stuck outside the collective. With
// Transport.SlowFactor set, each edge's wait duration feeds the channel's
// latency EWMA: a rank whose contribution is suddenly far later than its
// own history is suspected SLOW (phase "slow") long before any absolute
// deadline would fire.
func (c *comm) exchange(p *precv, dst int, out, into []float64) error {
	want := len(into)
	err := p.startInto(into)
	if err == nil {
		err = c.w.send(c.rank, dst, p.req.tag, true, out, nil)
		// A send refused by a failed world still looks at its receive (the
		// wait returns at once): if the world failed over this very
		// receive, that is the error to report, not the write on the
		// connection torn down because of it.
		if err == nil || c.w.failure.Err() != nil {
			if werr := c.waitEdge(p); werr != nil {
				err = werr
			}
		}
	}
	if trunc, ok := err.(*core.TruncationError); ok {
		err = &core.MismatchError{Got: trunc.Len, Want: want}
	}
	if err == nil && p.req.n != want {
		err = &core.MismatchError{Got: p.req.n, Want: want}
		c.w.failWorld(err)
	}
	return err
}

// waitEdge waits for the started round receive p under the collective
// deadline and the slow-peer EWMA, when either is configured.
func (c *comm) waitEdge(p *precv) error {
	src := p.req.src
	var waitStart time.Time
	if c.w.slow.enabled() {
		waitStart = time.Now()
	}
	if d := c.w.collTimeout; d > 0 {
		cs := &c.cs
		if cs.deadline == nil {
			cs.deadline = time.NewTimer(d)
		} else {
			cs.deadline.Reset(d)
		}
		err, timedOut := p.req.waitTimer(cs.deadline.C)
		if timedOut {
			err = &core.PeerError{
				RankLo: src, RankHi: src + 1, Phase: core.PhaseCollective,
				Err: fmt.Errorf("tcpmpi: no contribution on round edge %d→%d within %v", src, c.rank, d),
			}
			c.w.failWorld(err)
			return err
		}
		cs.deadline.Stop()
		if err != nil {
			return err
		}
	} else if err := p.Wait(); err != nil {
		return err
	}
	if c.w.slow.enabled() {
		c.w.observeLinkLatency(c.w.rankProc[src], src, src+1, "collective edge", &p.lat, time.Since(waitStart))
	}
	return nil
}

// allgatherTransform runs one collective for this rank: contribute the
// vector in, gather every rank's vector (indexed by rank), and transform
// the set into an out vector of resLen elements — on every rank, in the
// same order, so all of them return the same bits. Ranks must agree on
// len(in) per collective; a disagreement surfaces as a
// *core.MismatchError and fails the world rather than wedging it. The
// returned slice aliases the communicator's resident scratch: read-only,
// valid until the rank's next collective.
func (c *comm) allgatherTransform(in []float64, resLen int, transform func(vecs [][]float64, out []float64)) ([]float64, error) {
	w, rank, cs := c.w, c.rank, &c.cs
	if err := w.failure.Err(); err != nil {
		return nil, &core.WorldError{Cause: err}
	}
	ln, size := len(in), w.size

	cs.payload = grow(cs.payload, size*ln)
	copy(cs.payload, in)
	for k, dist := 0, 1; dist < size; k, dist = k+1, 2*dist {
		if k == len(cs.recv) {
			cs.recv = append(cs.recv, c.newPrecv((rank+dist)%size, k, true))
		}
		have, cnt := dist*ln, min(dist, size-dist)*ln
		if err := c.exchange(cs.recv[k], (rank-dist+size)%size, cs.payload[:cnt], cs.payload[have:have+cnt]); err != nil {
			return nil, err
		}
	}

	if cap(cs.vecs) < size {
		cs.vecs = make([][]float64, size)
	}
	vecs := cs.vecs[:size]
	for j := range vecs {
		vecs[(rank+j)%size] = cs.payload[j*ln : (j+1)*ln]
	}
	cs.res = grow(cs.res, resLen)
	transform(vecs, cs.res)
	return cs.res, nil
}

// Barrier is the empty-payload collective: it completes only after an
// (empty) frame chain from every rank has reached this one.
func (c *comm) Barrier() error {
	_, err := c.allgatherTransform(nil, 0, func([][]float64, []float64) {})
	return err
}

// Allreduce combines in-vectors elementwise across all ranks. Every rank
// combines in canonical rank order with the shared ReduceOp.Combine table,
// so results are bit-identical to the in-process runtime's and to each
// other. The returned slice is the communicator's resident result buffer:
// read-only, valid until this rank's next collective.
func (c *comm) Allreduce(op core.ReduceOp, in []float64) ([]float64, error) {
	return c.allgatherTransform(in, len(in), func(vecs [][]float64, out []float64) {
		copy(out, vecs[0])
		for q := 1; q < len(vecs); q++ {
			for i, v := range vecs[q] {
				out[i] = op.Combine(out[i], v)
			}
		}
	})
}

// AllreduceScalar combines a single value across all ranks, contributing
// through the communicator's resident one-element buffer.
func (c *comm) AllreduceScalar(op core.ReduceOp, v float64) (float64, error) {
	c.scalarBuf[0] = v
	res, err := c.Allreduce(op, c.scalarBuf[:])
	if err != nil {
		return 0, err
	}
	return res[0], nil
}

// AllgatherInt64 gathers one int64 from every rank, indexed by rank. The
// values ride the float64 frames bit-cast (exact for the full int64
// range), and the transform is pure placement — no arithmetic — so the
// round trip is lossless. The returned slice is resident scratch:
// read-only, valid until the rank's next collective.
func (c *comm) AllgatherInt64(v int64) ([]int64, error) {
	c.scalarBuf[0] = math.Float64frombits(uint64(v))
	cs := &c.cs
	_, err := c.allgatherTransform(c.scalarBuf[:], 0, func(vecs [][]float64, _ []float64) {
		if cap(cs.gathered) < len(vecs) {
			cs.gathered = make([]int64, len(vecs))
		}
		cs.gathered = cs.gathered[:len(vecs)]
		for r, vec := range vecs {
			cs.gathered[r] = int64(math.Float64bits(vec[0]))
		}
	})
	if err != nil {
		return nil, err
	}
	return cs.gathered, nil
}
