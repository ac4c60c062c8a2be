package tcpmpi

// In-package tests of the slow-peer machinery: the EWMA fold, the
// suspicion threshold + debounce, the fail-vs-advise policy split, and —
// because the RTT counters are internal — the kindPing→kindPong echo
// producing round-trip samples on a real loopback world.

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func TestLatEwmaObserve(t *testing.T) {
	var e latEwma
	prev, n := e.observe(10 * time.Millisecond)
	if prev != 0 || n != 0 {
		t.Fatalf("first observe returned prev=%v n=%d, want 0, 0", prev, n)
	}
	prev, n = e.observe(10 * time.Millisecond)
	if prev != 10*time.Millisecond || n != 1 {
		t.Fatalf("second observe returned prev=%v n=%d, want 10ms, 1", prev, n)
	}
	// A single outlier moves the average by at most alpha of the gap.
	prev, _ = e.observe(110 * time.Millisecond)
	if prev != 10*time.Millisecond {
		t.Fatalf("third observe returned prev=%v, want the pre-outlier 10ms", prev)
	}
	prev, _ = e.observe(0)
	want := time.Duration(ewmaAlpha*float64(110*time.Millisecond) + (1-ewmaAlpha)*float64(10*time.Millisecond))
	if prev != want {
		t.Fatalf("EWMA after outlier = %v, want %v", prev, want)
	}
}

// slowTestWorld builds the minimal world state noteSlow and
// observeLinkLatency need: two processes, no connections.
func slowTestWorld(sc slowConfig) *world {
	return &world{
		procs:       []procInfo{{RankLo: 0, RankHi: 1}, {RankLo: 1, RankHi: 2}},
		slow:        sc,
		slowSuspect: make([]atomic.Bool, 2),
		failure:     &failure{ch: make(chan struct{})},
	}
}

func TestSlowSuspicionThresholdAndDebounce(t *testing.T) {
	var calls []*core.PeerError
	w := slowTestWorld(slowConfig{
		factor:     3,
		floor:      10 * time.Millisecond,
		minSamples: 3,
		onSlow:     func(pe *core.PeerError) { calls = append(calls, pe) },
	})
	var e latEwma
	feed := func(d time.Duration) { w.observeLinkLatency(1, 1, 2, "test link", &e, d) }

	// Warm-up: below minSamples nothing can trip, and healthy samples
	// below the floor never do.
	for i := 0; i < 4; i++ {
		feed(time.Millisecond)
	}
	if len(calls) != 0 {
		t.Fatalf("warm-up raised %d suspicions", len(calls))
	}
	// 50ms against a ~1ms baseline: suspect, reported once.
	feed(50 * time.Millisecond)
	if len(calls) != 1 {
		t.Fatalf("degraded sample raised %d suspicions, want 1", len(calls))
	}
	pe := calls[0]
	if pe.Phase != core.PhaseSlow || pe.RankLo != 1 || pe.RankHi != 2 {
		t.Fatalf("suspicion = phase %q ranks [%d,%d), want slow [1,2)", pe.Phase, pe.RankLo, pe.RankHi)
	}
	// Still degraded: debounced, not re-reported.
	feed(50 * time.Millisecond)
	if len(calls) != 1 {
		t.Fatalf("sustained degradation re-reported (got %d calls)", len(calls))
	}
	// Recovery clears the episode; a fresh degradation reports again.
	feed(time.Millisecond)
	feed(300 * time.Millisecond)
	if len(calls) != 2 {
		t.Fatalf("re-degradation after recovery raised %d total suspicions, want 2", len(calls))
	}
	if w.failure.Err() != nil {
		t.Fatalf("advisory policy failed the world: %v", w.failure.Err())
	}
}

func TestSlowSuspicionFailOnSlow(t *testing.T) {
	w := slowTestWorld(slowConfig{factor: 3, floor: 10 * time.Millisecond, minSamples: 2, failOnSlow: true})
	var e latEwma
	for i := 0; i < 3; i++ {
		w.observeLinkLatency(1, 1, 2, "test link", &e, time.Millisecond)
	}
	w.observeLinkLatency(1, 1, 2, "test link", &e, 100*time.Millisecond)
	err := w.failure.Err()
	var pe *core.PeerError
	if !errors.As(err, &pe) || pe.Phase != core.PhaseSlow {
		t.Fatalf("FailOnSlow left the world with %v, want a phase-slow *core.PeerError", err)
	}
}

// TestPingPongRoundTripSamples pins the echo protocol end-to-end: on an
// idle heartbeat-enabled loopback world, every ping comes back as a pong
// and the link accumulates round-trip EWMA samples — the signal the RTT
// half of slow-peer suspicion feeds on.
func TestPingPongRoundTripSamples(t *testing.T) {
	worlds := dialPair(t, func(tr *Transport) {
		tr.HeartbeatInterval = 5 * time.Millisecond
		tr.HeartbeatTimeout = 2 * time.Second
	})

	// Idle: only heartbeat traffic. Wait for round-trip samples to land.
	w0 := worlds[0]
	deadline := time.Now().Add(5 * time.Second)
	for {
		var samples int64
		for _, p := range w0.conns {
			if p != nil {
				samples += p.rtt.count.Load()
			}
		}
		if samples >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no ping round-trip samples after %d heartbeat intervals", 5*int(time.Second/(5*time.Millisecond)))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := w0.failure.Err(); err != nil {
		t.Fatalf("idle heartbeat world failed: %v", err)
	}
}
