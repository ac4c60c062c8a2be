package tcpmpi

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Slow-peer suspicion: the gray-failure detector. Heartbeats (PR 6) catch
// peers that are DEAD — no traffic at all within the timeout. This file
// catches peers that are ALIVE but degraded: a throttled core, a sick NIC,
// a process swapping — the paper's §3 failure shape, where transfers crawl
// because progress is slow rather than absent, and nothing ever times out.
//
// Detection is EWMA-relative per link, with two independent signals:
//
//   - ping round-trips: the heartbeat monitor stamps each ping it writes,
//     the peer echoes a kindPong, and the reader folds the round-trip into
//     the connection's EWMA — a per-process link health signal that needs
//     no application traffic at all;
//   - collective-edge latency: each round edge's receive wait (round k of
//     a collective always receives from rank+2ᵏ; see exchange) is folded
//     into the edge's own EWMA — a per-RANK signal that catches a rank
//     whose process is healthy but whose contribution is consistently
//     late.
//
// A sample is suspect when it exceeds SlowFactor × the link's prior EWMA,
// is at least SlowFloor (so microsecond noise can't trip it), and the EWMA
// has warmed up over SlowMinSamples. Suspicion surfaces a *core.PeerError
// with Phase "slow" — distinct from every dead-peer phase — either through
// the advisory OnSlow hook (ride it out: the world keeps running) or, with
// FailOnSlow, by failing the world so a core.Supervisor restarts the epoch
// on a fresh one (PeerError is recoverable).

// ewmaAlpha is the smoothing factor of the latency EWMAs: new sample
// weight 0.2, so the baseline follows drifts over ~5 samples but a single
// outlier cannot drag it far.
const ewmaAlpha = 0.2

// latEwma is a lock-free exponentially weighted latency average, safe for
// one writer and any readers (the CAS tolerates concurrent writers too —
// a lost update is one lost sample, never corruption).
type latEwma struct {
	bits  atomic.Uint64 // float64 bits of the average, in nanoseconds
	count atomic.Int64
}

// observe folds one sample in and returns the average BEFORE the fold and
// the number of earlier samples — the degradation check compares against
// the prior baseline so a slow sample cannot dilute its own threshold.
func (e *latEwma) observe(sample time.Duration) (prev time.Duration, n int64) {
	s := float64(sample)
	for {
		old := e.bits.Load()
		prevF := math.Float64frombits(old)
		n = e.count.Load()
		next := s
		if n > 0 {
			next = ewmaAlpha*s + (1-ewmaAlpha)*prevF
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			e.count.Add(1)
			return time.Duration(prevF), n
		}
	}
}

// slowConfig is the world's resident copy of the Transport's slow-peer
// settings (factor 0: detection disabled).
type slowConfig struct {
	factor     float64
	floor      time.Duration
	minSamples int
	failOnSlow bool
	onSlow     func(*core.PeerError)
}

func (sc *slowConfig) enabled() bool { return sc.factor > 0 }

// observeLinkLatency folds one latency sample into a link's EWMA and
// raises (or clears) suspicion of the peer owning ranks [rankLo, rankHi).
// proc indexes the owning process for the per-process debounce. Called
// from reader goroutines (round-trips) and rank goroutines (collective
// edges) concurrently; everything it touches is atomic.
func (w *world) observeLinkLatency(proc, rankLo, rankHi int, site string, e *latEwma, sample time.Duration) {
	prev, n := e.observe(sample)
	sc := &w.slow
	if !sc.enabled() {
		return
	}
	if n < int64(sc.minSamples) {
		return // baseline still warming up
	}
	if sample >= sc.floor && float64(sample) >= sc.factor*float64(prev) {
		w.noteSlow(proc, rankLo, rankHi, site, sample, prev)
		return
	}
	// A healthy sample clears the debounce, so a peer that degrades,
	// recovers and degrades again is reported again.
	w.slowSuspect[proc].Store(false)
}

// noteSlow surfaces one transition into suspicion. With FailOnSlow the
// world fails (restart policy: the supervisor redials); otherwise the
// advisory hook observes the PeerError at most once per degradation
// episode per process (ride-it-out policy).
func (w *world) noteSlow(proc, rankLo, rankHi int, site string, sample, baseline time.Duration) {
	pe := &core.PeerError{
		RankLo: rankLo, RankHi: rankHi, Phase: core.PhaseSlow,
		Err: fmt.Errorf("tcpmpi: %s latency %v is %.1f× the link's %v baseline",
			site, sample.Round(time.Microsecond), float64(sample)/float64(baseline), baseline.Round(time.Microsecond)),
	}
	if w.slow.failOnSlow {
		w.failWorld(pe)
		return
	}
	if w.slow.onSlow != nil && !w.slowSuspect[proc].Swap(true) {
		w.slow.onSlow(pe)
	}
}
