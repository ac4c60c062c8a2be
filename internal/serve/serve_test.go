package serve

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultmpi"
)

// testSpec is a small SPD random band matrix, cheap enough to register in
// every test yet wide enough to exercise halo exchange on 4 ranks.
var testSpec = Spec{Kind: "random", N: 600, Bandwidth: 40, PerRow: 5, Seed: 7, SPD: true}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := NewServer(cfg)
	t.Cleanup(func() { s.Close() })
	return s
}

// A served multiplication must be bit-identical to an independently built
// reference cluster with the same geometry.
func TestServeMulMatchesReference(t *testing.T) {
	s := newTestServer(t, Config{Ranks: 4, Threads: 2})
	info, err := s.Register("m", testSpec)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	ver, err := NewVerifier(testSpec, info)
	if err != nil {
		t.Fatalf("verifier: %v", err)
	}
	defer ver.Close()

	for seed := int64(0); seed < 4; seed++ {
		resp, err := s.Do(&Request{Tenant: "a", Matrix: "m", Op: OpMul, Seed: seed, Iters: 3})
		if err != nil {
			t.Fatalf("mul seed %d: %v", seed, err)
		}
		if err := ver.Check(OpMul, seed, 3, 0, 0, resp.Y); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// A served solve must converge and be bit-identical to the reference CG.
func TestServeSolveMatchesReference(t *testing.T) {
	s := newTestServer(t, Config{Ranks: 4})
	info, err := s.Register("m", testSpec)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	ver, err := NewVerifier(testSpec, info)
	if err != nil {
		t.Fatalf("verifier: %v", err)
	}
	defer ver.Close()

	resp, err := s.Do(&Request{Tenant: "a", Matrix: "m", Op: OpSolve, Seed: 1, Tol: 1e-10, MaxIter: 400})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if !resp.Converged {
		t.Fatalf("solve did not converge: %d iters, residual %g", resp.Iterations, resp.Residual)
	}
	if err := ver.Check(OpSolve, 1, 0, 1e-10, 400, resp.Y); err != nil {
		t.Error(err)
	}
}

// Registering the same name with an equal spec is idempotent; with a
// different one, an error.
func TestRegisterIdempotent(t *testing.T) {
	s := newTestServer(t, Config{Ranks: 2})
	a, err := s.Register("m", testSpec)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	b, err := s.Register("m", testSpec)
	if err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if a != b {
		t.Errorf("re-register returned different info: %+v vs %+v", a, b)
	}
	other := testSpec
	other.Seed = 99
	var val *ValidationError
	if _, err := s.Register("m", other); !errors.As(err, &val) {
		t.Errorf("conflicting re-register: got %v, want ValidationError", err)
	}
}

// Unknown matrices and malformed parameters are rejected at admission,
// before anything is queued.
func TestRequestValidation(t *testing.T) {
	s := newTestServer(t, Config{Ranks: 2})
	if _, err := s.Register("m", testSpec); err != nil {
		t.Fatalf("register: %v", err)
	}
	var unk *UnknownMatrixError
	if _, err := s.Do(&Request{Tenant: "a", Matrix: "nope", Op: OpMul}); !errors.As(err, &unk) {
		t.Errorf("unknown matrix: got %v", err)
	}
	var val *ValidationError
	if _, err := s.Do(&Request{Matrix: "m", Op: OpMul}); !errors.As(err, &val) {
		t.Errorf("missing tenant: got %v", err)
	}
	if _, err := s.Do(&Request{Tenant: "a", Matrix: "m", Op: OpMul, Iters: -2}); !errors.As(err, &val) {
		t.Errorf("negative iters: got %v", err)
	}
	if _, err := s.Do(&Request{Tenant: "a", Matrix: "m", Op: OpMul, X: make([]float64, 3)}); !errors.As(err, &val) {
		t.Errorf("short input: got %v", err)
	}
	if _, err := s.Do(&Request{Tenant: "a", Matrix: "m", Op: OpSolve, Tol: -1}); !errors.As(err, &val) {
		t.Errorf("negative tol: got %v", err)
	}
}

// With the dispatcher frozen, admissions beyond the queue depth must be
// rejected immediately with a RejectError naming the tenant.
func TestAdmissionRejectsWhenQueueFull(t *testing.T) {
	s := newTestServer(t, Config{Ranks: 2, QueueDepth: 3})
	if _, err := s.Register("m", testSpec); err != nil {
		t.Fatalf("register: %v", err)
	}
	s.pauseDispatch()

	var wg sync.WaitGroup
	results := make([]error, 5)
	for i := range results {
		r := &Request{Tenant: "t", Matrix: "m", Op: OpMul, Seed: int64(i)}
		if err := s.prepare(r); err != nil {
			t.Fatalf("prepare: %v", err)
		}
		if err := s.admit(r); err != nil {
			results[i] = err
			s.reg.unpin(r.ent)
			continue
		}
		wg.Add(1)
		go func(r *Request) {
			defer wg.Done()
			<-r.done
			s.reg.unpin(r.ent)
		}(r)
	}
	var rejected int
	for _, err := range results {
		if err == nil {
			continue
		}
		var rej *RejectError
		if !errors.As(err, &rej) {
			t.Fatalf("unexpected admission error: %v", err)
		}
		if rej.Tenant != "t" || rej.Depth != 3 {
			t.Errorf("reject error %+v, want tenant t depth 3", rej)
		}
		rejected++
	}
	if rejected != 2 {
		t.Errorf("rejected %d of 5 admissions with depth 3, want 2", rejected)
	}
	s.resumeDispatch()
	wg.Wait()

	st := s.Stats()
	if st.Rejected != 2 || st.Completed != 3 {
		t.Errorf("stats rejected=%d completed=%d, want 2 and 3", st.Rejected, st.Completed)
	}
}

// A saturating tenant must not starve a light one: round-robin dispatch
// interleaves both, so the light tenant's requests complete while the
// heavy tenant still has a deep backlog.
func TestTenantFairness(t *testing.T) {
	s := newTestServer(t, Config{Ranks: 2, QueueDepth: 64, InflightCap: 2, BatchMax: 2, Sessions: 1})
	if _, err := s.Register("m", testSpec); err != nil {
		t.Fatalf("register: %v", err)
	}
	s.pauseDispatch()

	const heavy, light = 40, 4
	type done struct {
		tenant string
		order  int
	}
	var mu sync.Mutex
	var finished []done
	var wg sync.WaitGroup
	submit := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			r := &Request{Tenant: tenant, Matrix: "m", Op: OpMul, Seed: int64(i)}
			if err := s.prepare(r); err != nil {
				t.Errorf("prepare: %v", err)
				return
			}
			if err := s.admit(r); err != nil {
				t.Errorf("admit %s/%d: %v", tenant, i, err)
				s.reg.unpin(r.ent)
				return
			}
			wg.Add(1)
			go func(r *Request) {
				defer wg.Done()
				<-r.done
				s.reg.unpin(r.ent)
				mu.Lock()
				finished = append(finished, done{tenant: r.Tenant, order: len(finished)})
				mu.Unlock()
			}(r)
		}
	}
	submit("heavy", heavy)
	submit("light", light)
	s.resumeDispatch()
	wg.Wait()

	// Every light request must finish well before the heavy backlog
	// drains: with strict round-robin the last light request completes
	// around position 2*light, not position heavy+light.
	lastLight := -1
	for _, d := range finished {
		if d.tenant == "light" {
			lastLight = d.order
		}
	}
	if lastLight < 0 {
		t.Fatal("no light-tenant completions recorded")
	}
	if lastLight > (heavy+light)/2 {
		t.Errorf("light tenant's last completion at position %d of %d — starved by the heavy tenant",
			lastLight, heavy+light)
	}
}

// A world failure mid-request must be retried transparently on a fresh
// world (attempts > 1, bit-identical result), and the pool must stay
// usable afterwards.
func TestWorldFailureMidRequestRetries(t *testing.T) {
	// One session whose epoch-0 world kills rank 1 at its 3rd operation;
	// the supervisor's redial consumes the schedule, so epoch 1 is clean.
	faulty := &faultmpi.Transport{Sched: faultmpi.Schedule{
		Kills: []faultmpi.Kill{{Rank: 1, AtOp: 3}},
	}}
	s := newTestServer(t, Config{
		Ranks: 2, Sessions: 1, MaxAttempts: 3,
		Transport: func(string) func(int) core.Transport {
			return func(int) core.Transport { return faulty }
		},
	})
	info, err := s.Register("m", testSpec)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	ver, err := NewVerifier(testSpec, info)
	if err != nil {
		t.Fatalf("verifier: %v", err)
	}
	defer ver.Close()

	var sawRetry bool
	for seed := int64(0); seed < 6; seed++ {
		resp, err := s.Do(&Request{Tenant: "a", Matrix: "m", Op: OpMul, Seed: seed, Iters: 2})
		if err != nil {
			t.Fatalf("mul seed %d after fault: %v", seed, err)
		}
		if resp.Attempts > 1 {
			sawRetry = true
		}
		if err := ver.Check(OpMul, seed, 2, 0, 0, resp.Y); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
	if !sawRetry {
		t.Error("no request reported attempts > 1; the injected kill never fired mid-request")
	}
	if st := s.Stats(); st.Restarts == 0 {
		t.Error("stats report zero supervisor restarts")
	}
}

// When the retry budget is exhausted (a world that dies every epoch), the
// failure must surface to the caller — and the pool must recover for
// later requests once the fault schedule is consumed.
func TestWorldFailureSurfacesAfterMaxAttempts(t *testing.T) {
	kills := make([]faultmpi.Kill, 12)
	for i := range kills {
		kills[i] = faultmpi.Kill{Rank: 1, AtOp: 1}
	}
	faulty := &faultmpi.Transport{Sched: faultmpi.Schedule{Kills: kills}}
	s := newTestServer(t, Config{
		Ranks: 2, Sessions: 1, MaxAttempts: 2, MaxRestarts: 2,
		Transport: func(string) func(int) core.Transport {
			return func(int) core.Transport { return faulty }
		},
	})
	if _, err := s.Register("m", testSpec); err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := s.Do(&Request{Tenant: "a", Matrix: "m", Op: OpMul, Seed: 1}); err == nil {
		t.Fatal("request on an always-dying world succeeded")
	}
	// The schedule is finite: once consumed, the pool must serve again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := s.Do(&Request{Tenant: "a", Matrix: "m", Op: OpMul, Seed: 2}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never recovered after the fault schedule drained")
		}
	}
}

// Registering past the byte budget evicts the least-recently-used idle
// matrix; pinned matrices are never evicted.
func TestRegistryEviction(t *testing.T) {
	small := Spec{Kind: "random", N: 300, Bandwidth: 20, PerRow: 4, Seed: 1, SPD: true}
	big := Spec{Kind: "random", N: 3000, Bandwidth: 60, PerRow: 12, Seed: 3, SPD: true}
	// The budget holds the big matrix and one and a half small ones, whatever
	// Plan.Bytes makes of them: "a" and "b" fit together, "c" needs one out.
	sizes := newTestServer(t, Config{Ranks: 2})
	infoA, err := sizes.Register("a", small)
	if err != nil {
		t.Fatalf("sizing a: %v", err)
	}
	infoC, err := sizes.Register("c", big)
	if err != nil {
		t.Fatalf("sizing c: %v", err)
	}
	s := newTestServer(t, Config{Ranks: 2, ByteBudget: infoC.Bytes + infoA.Bytes*3/2})
	if _, err := s.Register("a", small); err != nil {
		t.Fatalf("register a: %v", err)
	}
	if _, err := s.Register("b", Spec{Kind: "random", N: 300, Bandwidth: 20, PerRow: 4, Seed: 2, SPD: true}); err != nil {
		t.Fatalf("register b: %v", err)
	}
	// Touch "a" so "b" is the LRU victim when "c" needs the room.
	if _, err := s.Do(&Request{Tenant: "t", Matrix: "a", Op: OpMul}); err != nil {
		t.Fatalf("mul a: %v", err)
	}
	if _, err := s.Register("c", big); err != nil {
		t.Fatalf("register c: %v", err)
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions recorded")
	}
	var unk *UnknownMatrixError
	if _, err := s.Do(&Request{Tenant: "t", Matrix: "b", Op: OpMul}); !errors.As(err, &unk) {
		t.Errorf("evicted matrix b still serves: %v", err)
	}
	if _, err := s.Do(&Request{Tenant: "t", Matrix: "a", Op: OpMul}); err != nil {
		t.Errorf("surviving matrix a broken after eviction: %v", err)
	}
}

// Requests still queued at Close must fail with ErrClosed, not hang.
func TestCloseFailsQueuedRequests(t *testing.T) {
	s := NewServer(Config{Ranks: 2, QueueDepth: 16})
	if _, err := s.Register("m", testSpec); err != nil {
		t.Fatalf("register: %v", err)
	}
	s.pauseDispatch()
	r := &Request{Tenant: "t", Matrix: "m", Op: OpMul}
	if err := s.prepare(r); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if err := s.admit(r); err != nil {
		t.Fatalf("admit: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		<-r.done
		done <- r.err
	}()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("queued request failed with %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request hung across Close")
	}
	if _, err := s.Do(&Request{Tenant: "t", Matrix: "m", Op: OpMul}); !errors.Is(err, ErrClosed) {
		t.Errorf("Do after Close: %v, want ErrClosed", err)
	}
}

// Concurrent mixed traffic from many tenants: everything completes (or is
// cleanly rejected), and every result is bit-identical to the reference.
// Run with -race this doubles as the dispatcher's race stress.
func TestConcurrentMixedTraffic(t *testing.T) {
	s := newTestServer(t, Config{Ranks: 2, Threads: 2, QueueDepth: 128, Sessions: 2, BatchMax: 4})
	info, err := s.Register("m", testSpec)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	ver, err := NewVerifier(testSpec, info)
	if err != nil {
		t.Fatalf("verifier: %v", err)
	}
	defer ver.Close()

	const workers, perWorker = 8, 10
	var wg sync.WaitGroup
	errCh := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := []string{"a", "b", "c"}[w%3]
			for i := 0; i < perWorker; i++ {
				seed := int64((w*perWorker + i) % 5)
				if i%4 == 3 {
					resp, err := s.Do(&Request{Tenant: tenant, Matrix: "m", Op: OpSolve, Seed: seed, Tol: 1e-8, MaxIter: 300})
					if err != nil {
						errCh <- err
						continue
					}
					if err := ver.Check(OpSolve, seed, 0, 1e-8, 300, resp.Y); err != nil {
						errCh <- err
					}
				} else {
					resp, err := s.Do(&Request{Tenant: tenant, Matrix: "m", Op: OpMul, Seed: seed, Iters: 2})
					if err != nil {
						errCh <- err
						continue
					}
					if err := ver.Check(OpMul, seed, 2, 0, 0, resp.Y); err != nil {
						errCh <- err
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		var rej *RejectError
		if errors.As(err, &rej) {
			continue // admission control doing its job under burst
		}
		t.Errorf("traffic error: %v", err)
	}
	st := s.Stats()
	if st.Batches == 0 || st.BatchedRequests < st.Batches {
		t.Errorf("implausible batching stats: %d batches, %d requests", st.Batches, st.BatchedRequests)
	}
	if math.IsNaN(float64(st.Completed)) || st.Completed == 0 {
		t.Error("no completions recorded")
	}
}

// With the dispatcher frozen and several compatible requests queued,
// resuming must coalesce them into shared batches (fewer batches than
// requests).
func TestDispatcherBatchesCompatibleRequests(t *testing.T) {
	s := newTestServer(t, Config{Ranks: 2, QueueDepth: 32, InflightCap: 16, BatchMax: 8, Sessions: 1})
	if _, err := s.Register("m", testSpec); err != nil {
		t.Fatalf("register: %v", err)
	}
	s.pauseDispatch()
	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		r := &Request{Tenant: "t", Matrix: "m", Op: OpMul, Seed: int64(i)}
		if err := s.prepare(r); err != nil {
			t.Fatalf("prepare: %v", err)
		}
		if err := s.admit(r); err != nil {
			t.Fatalf("admit: %v", err)
		}
		wg.Add(1)
		go func(r *Request) {
			defer wg.Done()
			<-r.done
			s.reg.unpin(r.ent)
		}(r)
	}
	s.resumeDispatch()
	wg.Wait()
	st := s.Stats()
	if st.BatchedRequests != n {
		t.Fatalf("batched %d requests, want %d", st.BatchedRequests, n)
	}
	if st.Batches >= n {
		t.Errorf("%d batches for %d compatible requests — no batching happened", st.Batches, n)
	}
}
