package des

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func TestSleepAdvancesTime(t *testing.T) {
	s := New()
	var times []float64
	s.Spawn("a", func(p *Proc) {
		times = append(times, p.Now())
		p.Sleep(1.5)
		times = append(times, p.Now())
		p.Sleep(0.5)
		times = append(times, p.Now())
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1.5, 2.0}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-15 {
			t.Errorf("times[%d] = %g, want %g", i, times[i], want[i])
		}
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.After(3, func() { order = append(order, 3) })
	s.After(1, func() { order = append(order, 1) })
	s.After(2, func() { order = append(order, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestEqualTimesFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events out of order: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.After(1, func() { fired = true })
	s.After(0.5, func() { e.Cancel() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	s := New()
	var trace []string
	s.Spawn("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(2)
		trace = append(trace, "a2")
	})
	s.Spawn("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(1)
		trace = append(trace, "b1")
		p.Sleep(2)
		trace = append(trace, "b3")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "b1", "a2", "b3"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestSignalReleasesWaiters(t *testing.T) {
	s := New()
	sig := s.NewSignal()
	var woke []float64
	for i := 0; i < 3; i++ {
		s.Spawn("w", func(p *Proc) {
			p.Wait(sig)
			woke = append(woke, p.Now())
		})
	}
	s.Spawn("firer", func(p *Proc) {
		p.Sleep(4)
		sig.Fire()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters", len(woke))
	}
	for _, w := range woke {
		if w != 4 {
			t.Errorf("waiter woke at %g, want 4", w)
		}
	}
}

func TestWaitOnFiredSignalReturnsImmediately(t *testing.T) {
	s := New()
	sig := s.NewSignal()
	sig.Fire()
	var at float64 = -1
	s.Spawn("w", func(p *Proc) {
		p.Sleep(1)
		p.Wait(sig)
		at = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 1 {
		t.Errorf("woke at %g, want 1 (no extra delay)", at)
	}
}

func TestWaitAll(t *testing.T) {
	s := New()
	a := s.NewSignal()
	b := s.NewSignal()
	var done float64 = -1
	s.Spawn("w", func(p *Proc) {
		p.WaitAll(a, b)
		done = p.Now()
	})
	s.Spawn("f", func(p *Proc) {
		p.Sleep(1)
		b.Fire()
		p.Sleep(2)
		a.Fire()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 3 {
		t.Errorf("WaitAll completed at %g, want 3", done)
	}
}

func TestDeadlockDetected(t *testing.T) {
	// A deadlocked Run reports it, unwinds the blocked procs so their
	// deferred functions run, and leaves no goroutine behind.
	before := runtime.NumGoroutine()
	s := New()
	sig := s.NewSignal()
	unwound, resumed := 0, 0
	for i := 0; i < 3; i++ {
		s.Spawn("stuck", func(p *Proc) {
			defer func() { unwound++ }()
			p.Sleep(1)
			p.Wait(sig) // never fired
			resumed++
		})
	}
	if err := s.Run(); err == nil {
		t.Error("deadlock not reported")
	}
	if unwound != 3 || resumed != 0 {
		t.Errorf("%d bodies unwound, %d resumed; want 3, 0", unwound, resumed)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines after a deadlocked Run, %d before it", after, before)
	}
	sig.Fire() // the stale wake-ups of unwound procs are harmless
	if err := s.Run(); err != nil {
		t.Error(err)
	}
}

func TestProcPanicSurfacesAtRun(t *testing.T) {
	// A panicking body is the Run caller's to recover — with its own value,
	// not a crash from a bare goroutine — and the procs it strands are
	// unwound on the way out.
	before := runtime.NumGoroutine()
	s := New()
	unwound := false
	s.Spawn("bystander", func(p *Proc) {
		defer func() { unwound = true }()
		p.Sleep(10)
	})
	s.Spawn("bad", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v at Run's caller, want boom", r)
			}
		}()
		_ = s.Run()
		t.Error("Run returned past a panicking proc")
	}()
	if !unwound {
		t.Error("the stranded proc was not unwound")
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines after the panic, %d before it", after, before)
	}
}

func TestDoubleFireIsNoop(t *testing.T) {
	s := New()
	sig := s.NewSignal()
	s.Spawn("w", func(p *Proc) {
		sig.Fire()
		sig.Fire()
		p.Wait(sig)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicTrace(t *testing.T) {
	run := func() []float64 {
		s := New()
		var trace []float64
		for i := 0; i < 5; i++ {
			d := float64(i%3) + 0.5
			s.Spawn("p", func(p *Proc) {
				for k := 0; k < 4; k++ {
					p.Sleep(d)
					trace = append(trace, p.Now())
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatal("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.Spawn("p", func(p *Proc) {
		p.Sleep(5)
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(1, func() {})
	})
	_ = s.Run()
}

func TestNegativeSleepPanics(t *testing.T) {
	s := New()
	s.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative sleep did not panic")
			}
		}()
		p.Sleep(-1)
	})
	_ = s.Run()
}

func TestSpawnFromProc(t *testing.T) {
	s := New()
	var childRan bool
	s.Spawn("parent", func(p *Proc) {
		p.Sleep(1)
		s.Spawn("child", func(c *Proc) {
			c.Sleep(1)
			childRan = true
			if c.Now() != 2 {
				t.Errorf("child finished at %g, want 2", c.Now())
			}
		})
		p.Sleep(5)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Error("child never ran")
	}
}

func TestSpawnFromEventCallback(t *testing.T) {
	s := New()
	var startedAt, doneAt float64 = -1, -1
	s.At(3, func() {
		s.Spawn("late", func(p *Proc) {
			startedAt = p.Now()
			p.Sleep(2)
			doneAt = p.Now()
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if startedAt != 3 || doneAt != 5 {
		t.Errorf("proc spawned by an event ran %g → %g, want 3 → 5", startedAt, doneAt)
	}
}

func TestFireThenResetInsideCallback(t *testing.T) {
	// Pooled flows recycle — Reset — their Done signal inside its own
	// callback: the waiters Fire already released still wake, and the
	// signal is armed again for its next use.
	s := New()
	sig := s.NewSignal()
	var woke []float64
	for i := 0; i < 2; i++ {
		s.Spawn("w", func(p *Proc) {
			p.Wait(sig)
			woke = append(woke, p.Now())
			p.Wait(sig) // the re-armed signal: blocks until the second Fire
			woke = append(woke, p.Now())
		})
	}
	sig.OnFire(func() { sig.Reset() })
	s.At(1, sig.Fire)
	s.At(4, sig.Fire)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 4, 4}
	if len(woke) != len(want) {
		t.Fatalf("woke at %v, want %v", woke, want)
	}
	for i := range want {
		if woke[i] != want[i] {
			t.Fatalf("woke at %v, want %v", woke, want)
		}
	}
}

// checkQueue asserts the heap invariants: every queued event's stored
// position is its slot, and no event sorts before its parent.
func checkQueue(t *testing.T, s *Sim) {
	t.Helper()
	for i, e := range s.events {
		if e.idx != i {
			t.Fatalf("event in slot %d records slot %d", i, e.idx)
		}
		if i > 0 && eventLess(e, s.events[(i-1)/2]) {
			t.Fatalf("event in slot %d sorts before its parent", i)
		}
	}
}

// refEvent is one pending event as the reference model sees it.
type refEvent struct {
	t   float64
	seq int64 // its place in scheduling order, which also names it
	e   *Event
}

// TestQueueMatchesSortedReference drives the queue with random At, Cancel
// and Step — equal times, cancels from inside callbacks, cancels of events
// that already fired or were already cancelled — against a reference that
// fires the pending event of least (time, scheduling order). Fire order,
// fire times and Events must agree, and the heap must stay consistent
// after every operation.
func TestQueueMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var live []*refEvent
		var got, want []int64
		var scheduled int64
		// stale is the last event to fire or be cancelled, as long as no At
		// has run since (At may reuse it); cancelling it must do nothing.
		var stale *Event
		drop := func(k int) *refEvent {
			r := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			return r
		}
		var schedule func()
		cancelOne := func() {
			if len(live) == 0 {
				return
			}
			r := drop(rng.Intn(len(live)))
			r.e.Cancel()
			stale = r.e
		}
		fire := func(r *refEvent) {
			got = append(got, r.seq)
			if s.Now() != r.t {
				t.Fatalf("seed %d: event %d fired at %g, scheduled for %g", seed, r.seq, s.Now(), r.t)
			}
			stale = r.e
			if rng.Intn(4) == 0 {
				stale.Cancel() // the firing event itself
			}
			if rng.Intn(3) == 0 {
				cancelOne()
			}
			if rng.Intn(2) == 0 {
				schedule()
			}
			checkQueue(t, s)
		}
		schedule = func() {
			scheduled++
			r := &refEvent{t: s.Now() + 0.5*float64(rng.Intn(4)), seq: scheduled}
			r.e = s.At(r.t, func() { fire(r) })
			live = append(live, r)
			stale = nil
		}
		step := func() bool {
			if len(live) == 0 {
				if s.Step() {
					t.Fatalf("seed %d: Step fired with nothing pending", seed)
				}
				return false
			}
			first := 0
			for k, r := range live {
				if r.t < live[first].t || (r.t == live[first].t && r.seq < live[first].seq) {
					first = k
				}
			}
			r := drop(first)
			want = append(want, r.seq)
			if !s.Step() {
				t.Fatalf("seed %d: Step found nothing with %d pending", seed, len(live)+1)
			}
			return true
		}
		for op := 0; op < 3000; op++ {
			switch x := rng.Intn(20); {
			case x < 9:
				schedule()
			case x < 13:
				cancelOne()
			case x < 19:
				step()
			default:
				stale.Cancel()
			}
			checkQueue(t, s)
			if len(s.events) != len(live) {
				t.Fatalf("seed %d: %d events queued, %d pending", seed, len(s.events), len(live))
			}
			if s.Events() != scheduled {
				t.Fatalf("seed %d: Events %d after %d At calls", seed, s.Events(), scheduled)
			}
		}
		for step() {
			checkQueue(t, s)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events fired, reference fired %d", seed, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("seed %d: firing %d is event %d, reference fires %d", seed, k, got[k], want[k])
			}
		}
		if s.Pending() {
			t.Fatalf("seed %d: events left after the reference drained", seed)
		}
	}
}

// TestAllocGateEventQueue: once the heap and the freelist have grown, a
// steady At + Cancel + Step cycle allocates nothing.
func TestAllocGateEventQueue(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i < 100; i++ {
		s.After(float64(i%7), fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e := s.After(3, fn)
		s.After(5, fn)
		e.Cancel()
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("At + Cancel + Step allocated %g times per cycle", allocs)
	}
}
