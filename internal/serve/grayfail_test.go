package serve

// Gray-failure behavior of the serving layer: end-to-end deadlines
// (queue expiry and mid-job interrupt), bounded transparent retries,
// the per-pool circuit breaker, brown-out shedding under sustained
// overload, and graceful drain.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultmpi"
)

// A request whose deadline passes while it waits in the tenant queue
// must fail with a typed *core.DeadlineError without ever touching a
// cluster — and the server must keep serving afterwards.
func TestDeadlineExpiredInQueue(t *testing.T) {
	s := newTestServer(t, Config{Ranks: 2})
	if _, err := register(s, "m", testSpec); err != nil {
		t.Fatalf("register: %v", err)
	}
	s.pauseDispatch()
	r := &Request{Tenant: "a", Matrix: "m", Op: OpMul, Seed: 1, DeadlineMs: 1}
	if err := s.prepare(r); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if err := s.admit(r); err != nil {
		t.Fatalf("admit: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // let the deadline pass in-queue
	s.resumeDispatch()
	<-r.done
	s.reg.unpin(r.ent)

	var de *core.DeadlineError
	if !errors.As(r.err, &de) {
		t.Fatalf("queue-expired request failed with %v, want *core.DeadlineError", r.err)
	}
	if de.Op != "queue" {
		t.Errorf("DeadlineError.Op = %q, want %q (the request must die in the queue, not on a cluster)", de.Op, "queue")
	}
	if !errors.Is(r.err, context.DeadlineExceeded) {
		t.Errorf("DeadlineError does not unwrap to context.DeadlineExceeded: %v", r.err)
	}
	if r.attempts != 0 {
		t.Errorf("queue-expired request ran %d attempts on a cluster, want 0", r.attempts)
	}
	// Non-poisoning: the pool serves the very next request.
	if _, err := s.Do(&Request{Tenant: "a", Matrix: "m", Op: OpMul, Seed: 2}); err != nil {
		t.Fatalf("request after a queue expiry: %v", err)
	}
	if st := s.Stats(); st.Deadlined != 1 {
		t.Errorf("stats deadlined = %d, want 1", st.Deadlined)
	}
}

// The deterministic gray-failure drill of the serving layer: one slow
// link makes exactly the request that carries a deadline miss it (typed
// *core.DeadlineError), its batch-mate is retried transparently on a
// fresh world, and all later traffic is bit-identical to the reference
// — a slow rank degrades one request, not the service.
func TestMidJobDeadlineOnlyAffectsItsRequest(t *testing.T) {
	// The first frame rank 1 sends to rank 0 is delivered 500ms late —
	// far past the 100ms deadline of the request that triggers it. The
	// slowdown is one-shot (Count: 1), so the post-interrupt epoch and
	// all later traffic run clean.
	faulty := &faultmpi.Transport{Sched: faultmpi.Schedule{
		Slowdowns: []faultmpi.Slowdown{{
			Src: 1, Dst: 0, Tag: faultmpi.Any,
			Count: 1, Delay: 500 * time.Millisecond,
		}},
	}}
	s := newTestServer(t, Config{
		Ranks: 2, Sessions: 1,
		Transport: func(string) func(int) core.Transport {
			return func(int) core.Transport { return faulty }
		},
	})
	info, err := register(s, "m", testSpec)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	ver, err := NewVerifier(testSpec, info)
	if err != nil {
		t.Fatalf("verifier: %v", err)
	}
	defer ver.Close()

	// Queue the deadline-carrying victim and an innocent batch-mate
	// before releasing the dispatcher, so they ride one batch.
	s.pauseDispatch()
	victim := &Request{Tenant: "a", Matrix: "m", Op: OpMul, Seed: 3, DeadlineMs: 100}
	mate := &Request{Tenant: "a", Matrix: "m", Op: OpMul, Seed: 4}
	for _, r := range []*Request{victim, mate} {
		if err := s.prepare(r); err != nil {
			t.Fatalf("prepare: %v", err)
		}
		if err := s.admit(r); err != nil {
			t.Fatalf("admit: %v", err)
		}
	}
	s.resumeDispatch()
	<-victim.done
	<-mate.done
	s.reg.unpin(victim.ent)
	s.reg.unpin(mate.ent)

	var de *core.DeadlineError
	if !errors.As(victim.err, &de) {
		t.Fatalf("victim failed with %v, want *core.DeadlineError", victim.err)
	}
	if !errors.Is(victim.err, context.DeadlineExceeded) {
		t.Errorf("victim's error does not unwrap to context.DeadlineExceeded: %v", victim.err)
	}
	if mate.err != nil {
		t.Fatalf("batch-mate failed: %v (a deadline is final for ITS request only)", mate.err)
	}
	if err := ver.check(OpMul, 4, 1, 0, 0, mate.y); err != nil {
		t.Errorf("batch-mate after the interrupted epoch: %v", err)
	}
	// The cluster stays usable and later traffic is bit-identical.
	for seed := int64(5); seed < 8; seed++ {
		resp, err := s.Do(&Request{Tenant: "a", Matrix: "m", Op: OpMul, Seed: seed})
		if err != nil {
			t.Fatalf("mul seed %d after the gray failure: %v", seed, err)
		}
		if err := ver.check(OpMul, seed, 1, 0, 0, resp.Y); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
	st := s.Stats()
	if st.Deadlined != 1 {
		t.Errorf("stats deadlined = %d, want 1", st.Deadlined)
	}
	if st.Restarts == 0 {
		t.Error("mid-job interrupt recorded no supervisor restart (the world must be rebuilt for batch-mates)")
	}
}

// An exhausted retry budget fails the request to its caller instead of
// burning more epochs; a later success replenishes the bucket.
func TestRetryBudgetExhaustion(t *testing.T) {
	kills := make([]faultmpi.Kill, 4)
	for i := range kills {
		kills[i] = faultmpi.Kill{Rank: 1, AtOp: 1}
	}
	faulty := &faultmpi.Transport{Sched: faultmpi.Schedule{Kills: kills}}
	s := newTestServer(t, Config{
		Ranks: 2, Sessions: 1, MaxAttempts: 5, RetryBudget: 1,
		Transport: func(string) func(int) core.Transport {
			return func(int) core.Transport { return faulty }
		},
	})
	if _, err := register(s, "m", testSpec); err != nil {
		t.Fatalf("register: %v", err)
	}
	r := &Request{Tenant: "a", Matrix: "m", Op: OpMul, Seed: 1}
	if err := s.prepare(r); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if err := s.admit(r); err != nil {
		t.Fatalf("admit: %v", err)
	}
	<-r.done
	s.reg.unpin(r.ent)
	if r.err == nil {
		t.Fatal("request on an always-dying world succeeded")
	}
	// MaxAttempts alone would allow 5 tries; the budget of 1 caps the
	// request at the original attempt plus one transparent retry.
	if r.attempts != 2 {
		t.Errorf("request ran %d attempts with a retry budget of 1, want 2", r.attempts)
	}
	// The remaining schedule drains, then a success restores the token.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := s.Do(&Request{Tenant: "a", Matrix: "m", Op: OpMul, Seed: 2}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never recovered after the fault schedule drained")
		}
	}
	st := s.Stats()
	if len(st.Tenants) != 1 || st.Tenants[0].RetryTokens != 1 {
		t.Errorf("tenant retry tokens = %+v, want 1 restored by the completed request", st.Tenants)
	}
}

// flakyTransport fails every Dial while broken, delegating to the
// in-process chan transport once healed — a pool whose worlds cannot
// come up at all, then recover.
type flakyTransport struct {
	broken atomic.Bool
	inner  core.ChanTransport
}

func (t *flakyTransport) Dial(ctx context.Context, size int) (core.World, error) {
	if t.broken.Load() {
		return nil, &core.PeerError{Phase: core.PhaseHandshake, Err: errors.New("flaky: transport down")}
	}
	return t.inner.Dial(ctx, size)
}

// Repeated supervisor give-ups must open the pool's circuit breaker so
// admissions fail fast with a *BreakerError instead of queueing onto a
// pool that cannot hold a world up — and a served batch after healing
// must close it again.
func TestBreakerFailFastAndRecovery(t *testing.T) {
	tr := &flakyTransport{}
	tr.broken.Store(true)
	s := newTestServer(t, Config{
		Ranks: 2, Sessions: 1, MaxRestarts: 1,
		BreakerThreshold: 2, BreakerCooldown: time.Hour,
		Transport: func(string) func(int) core.Transport {
			return func(int) core.Transport { return tr }
		},
	})
	if _, err := register(s, "m", testSpec); err != nil {
		t.Fatalf("register: %v", err)
	}
	// The canary is admitted while the pool is broken; it sits on the
	// session's work channel through the give-ups and completes after
	// healing.
	canary := &Request{Tenant: "a", Matrix: "m", Op: OpMul, Seed: 1}
	if err := s.prepare(canary); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if err := s.admit(canary); err != nil {
		t.Fatalf("admit: %v", err)
	}
	waitBreaker := func(want string) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			st := s.Stats()
			if len(st.Matrices) == 1 && st.Matrices[0].Breaker == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("breaker never reached %q: %+v", want, st.Matrices)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitBreaker("open")

	// Fail-fast: an admission against the open breaker is rejected
	// without queueing (and without waiting out any world timeout).
	start := time.Now()
	_, err := s.Do(&Request{Tenant: "a", Matrix: "m", Op: OpMul, Seed: 2})
	var be *BreakerError
	if !errors.As(err, &be) {
		t.Fatalf("admission against an open breaker: %v, want *BreakerError", err)
	}
	if be.State != "open" || be.Matrix != "m" {
		t.Errorf("breaker error %+v, want matrix m state open", be)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("fail-fast rejection took %v", d)
	}

	// Heal: the canary's batch serves on the next supervised epoch,
	// which closes the breaker; traffic flows again.
	tr.broken.Store(false)
	<-canary.done
	s.reg.unpin(canary.ent)
	if canary.err != nil {
		t.Fatalf("canary failed after healing: %v", canary.err)
	}
	waitBreaker("closed")
	if _, err := s.Do(&Request{Tenant: "a", Matrix: "m", Op: OpMul, Seed: 3}); err != nil {
		t.Fatalf("request after breaker recovery: %v", err)
	}
}

// White-box half-open mechanics: cooldown admits exactly one probe per
// window, a probe give-up reopens, a served batch closes.
func TestBreakerHalfOpenProbe(t *testing.T) {
	s := newTestServer(t, Config{Ranks: 2, BreakerThreshold: 2, BreakerCooldown: time.Minute})
	if _, err := register(s, "m", testSpec); err != nil {
		t.Fatalf("register: %v", err)
	}
	s.mu.Lock()
	p := s.pools[0]
	s.mu.Unlock()

	p.noteGiveUp()
	p.noteGiveUp()
	now := time.Now().UnixNano()
	cool := int64(s.cfg.BreakerCooldown)

	s.mu.Lock()
	defer s.mu.Unlock()
	var be *BreakerError
	if err := p.breakerAdmit(now); !errors.As(err, &be) || be.State != "open" {
		t.Fatalf("admit while open = %v, want open BreakerError", err)
	}
	if err := p.breakerAdmit(now + cool); err != nil {
		t.Fatalf("first probe after cooldown rejected: %v", err)
	}
	if err := p.breakerAdmit(now + cool); !errors.As(err, &be) || be.State != "half-open" {
		t.Fatalf("second admit in the probe window = %v, want half-open BreakerError", err)
	}
	// A probe that vanished (shed, timed out) must not wedge the pool:
	// the next window admits a fresh probe.
	if err := p.breakerAdmit(now + 2*cool + 1); err != nil {
		t.Fatalf("probe in the next window rejected: %v", err)
	}
	// A give-up during half-open reopens immediately. (noteGiveUp stamps
	// the real clock, so probe the state at the real clock too.)
	s.mu.Unlock()
	p.noteGiveUp()
	s.mu.Lock()
	if err := p.breakerAdmit(time.Now().UnixNano()); !errors.As(err, &be) || be.State != "open" {
		t.Fatalf("admit after a half-open give-up = %v, want open BreakerError", err)
	}
	// A served batch closes the breaker outright.
	p.noteServedLocked()
	if err := p.breakerAdmit(time.Now().UnixNano()); err != nil {
		t.Fatalf("admit after close: %v", err)
	}
}

// Sustained overload must shed exactly the lowest-priority queued work
// (newest first) with *ShedError, while the surviving requests complete
// with per-request execution time comparable to an unloaded server —
// the brown-out keeps the service degraded, not dead.
func TestBrownoutShedsLowestPriority(t *testing.T) {
	s := newTestServer(t, Config{
		Ranks: 2, Sessions: 1, QueueDepth: 64, InflightCap: 16,
		BrownoutHigh: 12, BrownoutLow: 4, BrownoutAfter: time.Millisecond,
	})
	if _, err := register(s, "m", testSpec); err != nil {
		t.Fatalf("register: %v", err)
	}
	// Unloaded baseline: per-request execution time on a warm cluster.
	var baseline int64
	for seed := int64(0); seed < 5; seed++ {
		resp, err := s.Do(&Request{Tenant: "hi", Matrix: "m", Op: OpMul, Seed: seed})
		if err != nil {
			t.Fatalf("baseline mul: %v", err)
		}
		if seed > 0 && resp.ExecNs > baseline { // skip the cold-start sample
			baseline = resp.ExecNs
		}
	}

	s.pauseDispatch()
	admit := func(tenant string, prio int, seed int64) *Request {
		t.Helper()
		r := &Request{Tenant: tenant, Matrix: "m", Op: OpMul, Seed: seed, Priority: prio}
		if err := s.prepare(r); err != nil {
			t.Fatalf("prepare: %v", err)
		}
		if err := s.admit(r); err != nil {
			t.Fatalf("admit: %v", err)
		}
		return r
	}
	var high, low []*Request
	for i := 0; i < 4; i++ {
		high = append(high, admit("hi", 1, int64(i)))
	}
	for i := 0; i < 8; i++ {
		low = append(low, admit("lo", 0, int64(i)))
	}
	// 12 queued = the high watermark; hold past BrownoutAfter, then one
	// more admission crosses into shedding.
	time.Sleep(10 * time.Millisecond)
	low = append(low, admit("lo", 0, 99))

	// The shed pass runs inside that 13th admit: down to the low
	// watermark (4), lowest priority first — exactly the 9 low-priority
	// requests, every high-priority one untouched.
	var wg sync.WaitGroup
	for _, r := range append(append([]*Request{}, high...), low...) {
		wg.Add(1)
		go func(r *Request) {
			defer wg.Done()
			<-r.done
			s.reg.unpin(r.ent)
		}(r)
	}
	s.resumeDispatch()
	wg.Wait()

	for i, r := range low {
		var se *ShedError
		if !errors.As(r.err, &se) {
			t.Errorf("low-priority request %d: err = %v, want *ShedError", i, r.err)
			continue
		}
		if se.Tenant != "lo" || se.Priority != 0 {
			t.Errorf("shed error %+v, want tenant lo priority 0", se)
		}
	}
	var worst int64
	for i, r := range high {
		if r.err != nil {
			t.Errorf("high-priority request %d shed or failed: %v", i, r.err)
			continue
		}
		if d := r.finishedNs - r.startedNs; d > worst {
			worst = d
		}
	}
	// The survivors' execution time must stay within 2× the unloaded
	// baseline (the queue wait is bounded structurally by the low
	// watermark). The absolute numbers are tens of microseconds, so a
	// small additive slack absorbs scheduler noise without weakening
	// the 2× claim at any realistic scale.
	slack := int64(20 * time.Millisecond)
	if worst > 2*baseline+slack {
		t.Errorf("worst surviving ExecNs = %dns, want ≤ 2×%dns (+%dns slack): brown-out failed to protect admitted work", worst, baseline, slack)
	}
	st := s.Stats()
	if st.Shed != 9 {
		t.Errorf("stats shed = %d, want 9", st.Shed)
	}
	for _, ts := range st.Tenants {
		switch ts.Name {
		case "lo":
			if ts.Shed != 9 {
				t.Errorf("tenant lo shed = %d, want 9", ts.Shed)
			}
		case "hi":
			// +5 for the unloaded-baseline requests, which ran as "hi".
			if ts.Shed != 0 || ts.Completed != uint64(len(high))+5 {
				t.Errorf("tenant hi shed = %d completed = %d, want 0 and %d", ts.Shed, ts.Completed, len(high)+5)
			}
		}
	}
}

// Drain finishes queued work, rejects new admissions with ErrDraining,
// and returns once the server is quiet.
func TestDrainGraceful(t *testing.T) {
	s := newTestServer(t, Config{Ranks: 2, Sessions: 1})
	if _, err := register(s, "m", testSpec); err != nil {
		t.Fatalf("register: %v", err)
	}
	s.pauseDispatch()
	r := &Request{Tenant: "a", Matrix: "m", Op: OpMul, Seed: 1}
	if err := s.prepare(r); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if err := s.admit(r); err != nil {
		t.Fatalf("admit: %v", err)
	}
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	// Wait for drain mode to engage, then probe the admission edge.
	for {
		s.mu.Lock()
		d := s.draining
		s.mu.Unlock()
		if d {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Do(&Request{Tenant: "a", Matrix: "m", Op: OpMul, Seed: 2}); !errors.Is(err, ErrDraining) {
		t.Fatalf("admission during drain: %v, want ErrDraining", err)
	}
	s.resumeDispatch()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	<-r.done
	s.reg.unpin(r.ent)
	if r.err != nil {
		t.Fatalf("queued request failed across drain: %v (drain must finish queued work)", r.err)
	}
	// A context that expires before quiet surfaces its error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Drain with a dead context: %v, want context.Canceled", err)
	}
}
