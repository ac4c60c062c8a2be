package fluid

import (
	"math"
	"testing"

	"repro/internal/des"
)

const eps = 1e-9

func TestSingleFlowClosedForm(t *testing.T) {
	sim := des.New()
	sys := NewSystem(sim)
	r := sys.NewResource("link", ConstCapacity(100))
	var done float64 = -1
	sim.Spawn("p", func(p *des.Proc) {
		f := sys.Start(500, r)
		p.Wait(f.Done)
		done = p.Now()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(done-5) > eps {
		t.Errorf("500 bytes at 100 B/s finished at %g, want 5", done)
	}
}

func TestTwoEqualFlowsShare(t *testing.T) {
	sim := des.New()
	sys := NewSystem(sim)
	r := sys.NewResource("link", ConstCapacity(100))
	var d1, d2 float64
	sim.Spawn("a", func(p *des.Proc) {
		f := sys.Start(500, r)
		p.Wait(f.Done)
		d1 = p.Now()
	})
	sim.Spawn("b", func(p *des.Proc) {
		f := sys.Start(500, r)
		p.Wait(f.Done)
		d2 = p.Now()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Both share 100 B/s → 50 each → 10 s.
	if math.Abs(d1-10) > eps || math.Abs(d2-10) > eps {
		t.Errorf("shared flows finished at %g, %g, want 10, 10", d1, d2)
	}
}

func TestStaggeredFlowsRateChange(t *testing.T) {
	// Flow A starts alone (100 B/s); at t=2 flow B joins (both 50 B/s).
	// A has 300 left at t=2 → finishes at t=8. B (200 bytes): at t=8 it has
	// transferred 6s×50=300... B is 200 → done at t=6. Then A alone again at
	// t=6 with 300-200=... recompute: A: [0,2]: 200 done, 300 left.
	// [2,6]: B(200)@50 done at t=6; A moved 200, 100 left. [6,..] A@100 →
	// done t=7.
	sim := des.New()
	sys := NewSystem(sim)
	r := sys.NewResource("link", ConstCapacity(100))
	var da, db float64
	sim.Spawn("a", func(p *des.Proc) {
		f := sys.Start(500, r)
		p.Wait(f.Done)
		da = p.Now()
	})
	sim.Spawn("b", func(p *des.Proc) {
		p.Sleep(2)
		f := sys.Start(200, r)
		p.Wait(f.Done)
		db = p.Now()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(db-6) > eps {
		t.Errorf("B finished at %g, want 6", db)
	}
	if math.Abs(da-7) > eps {
		t.Errorf("A finished at %g, want 7", da)
	}
}

func TestSaturatingCapacityTable(t *testing.T) {
	// Capacity table like an LD memory bus: 1 flow → 10, 2 → 16, 3 → 18,
	// 4+ → 18 (saturated at 3).
	table := []float64{10, 16, 18, 18}
	sim := des.New()
	sys := NewSystem(sim)
	r := sys.NewResource("ld", TableCapacity(table))
	finish := make([]float64, 4)
	for i := 0; i < 4; i++ {
		i := i
		sim.Spawn("w", func(p *des.Proc) {
			f := sys.Start(90, r)
			p.Wait(f.Done)
			finish[i] = p.Now()
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 flows × 90 bytes = 360 total at 18 B/s aggregate → all done at 20.
	for i, f := range finish {
		if math.Abs(f-20) > eps {
			t.Errorf("flow %d finished at %g, want 20", i, f)
		}
	}
}

func TestMultiResourceBottleneck(t *testing.T) {
	// A flow crossing a fast and a slow resource runs at the slow rate.
	sim := des.New()
	sys := NewSystem(sim)
	fast := sys.NewResource("fast", ConstCapacity(1000))
	slow := sys.NewResource("slow", ConstCapacity(10))
	var done float64
	sim.Spawn("p", func(p *des.Proc) {
		f := sys.Start(100, fast, slow)
		p.Wait(f.Done)
		done = p.Now()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(done-10) > eps {
		t.Errorf("bottlenecked flow finished at %g, want 10", done)
	}
}

func TestZeroByteFlowImmediate(t *testing.T) {
	sim := des.New()
	sys := NewSystem(sim)
	r := sys.NewResource("r", ConstCapacity(1))
	var done float64 = -1
	sim.Spawn("p", func(p *des.Proc) {
		f := sys.Start(0, r)
		p.Wait(f.Done)
		done = p.Now()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 0 {
		t.Errorf("zero-byte flow finished at %g, want 0", done)
	}
}

func TestNoResourceFlowImmediate(t *testing.T) {
	sim := des.New()
	sys := NewSystem(sim)
	sim.Spawn("p", func(p *des.Proc) {
		f := sys.Start(100)
		p.Wait(f.Done)
		if p.Now() != 0 {
			t.Errorf("free flow took time %g", p.Now())
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestActiveCount(t *testing.T) {
	sim := des.New()
	sys := NewSystem(sim)
	r := sys.NewResource("r", ConstCapacity(10))
	sim.Spawn("p", func(p *des.Proc) {
		f1 := sys.Start(100, r)
		if len(r.flows) != 1 {
			t.Errorf("active = %d, want 1", len(r.flows))
		}
		f2 := sys.Start(100, r)
		if len(r.flows) != 2 {
			t.Errorf("active = %d, want 2", len(r.flows))
		}
		p.Wait(f1.Done)
		p.Wait(f2.Done)
		if len(r.flows) != 0 {
			t.Errorf("active after completion = %d, want 0", len(r.flows))
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConservationProperty(t *testing.T) {
	// Random staggered flows on one resource: total completion time must be
	// at least total bytes / max capacity (work conservation upper bound on
	// throughput) and the system must drain.
	sim := des.New()
	sys := NewSystem(sim)
	cap := 50.0
	r := sys.NewResource("r", ConstCapacity(cap))
	var totalBytes float64
	var last float64
	for i := 0; i < 20; i++ {
		start := float64(i%7) * 0.3
		bytes := float64(10 + (i*37)%200)
		totalBytes += bytes
		sim.Spawn("f", func(p *des.Proc) {
			p.Sleep(start)
			f := sys.Start(bytes, r)
			p.Wait(f.Done)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if last < totalBytes/cap-eps {
		t.Errorf("drained at %g, faster than capacity bound %g", last, totalBytes/cap)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []float64 {
		sim := des.New()
		sys := NewSystem(sim)
		r1 := sys.NewResource("a", TableCapacity([]float64{10, 15, 18}))
		r2 := sys.NewResource("b", ConstCapacity(12))
		var finishes []float64
		for i := 0; i < 12; i++ {
			i := i
			sim.Spawn("f", func(p *des.Proc) {
				p.Sleep(float64(i) * 0.1)
				var f *Flow
				if i%3 == 0 {
					f = sys.Start(40, r1, r2)
				} else {
					f = sys.Start(25, r1)
				}
				p.Wait(f.Done)
				finishes = append(finishes, p.Now())
			})
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return finishes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestInvalidFlowPanics(t *testing.T) {
	sim := des.New()
	sys := NewSystem(sim)
	r := sys.NewResource("r", ConstCapacity(1))
	sim.Spawn("p", func(p *des.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative flow size did not panic")
			}
		}()
		sys.Start(-1, r)
	})
	_ = sim.Run()
}

func TestTableCapacityClamps(t *testing.T) {
	c := TableCapacity([]float64{5, 8})
	if c(0) != 5 || c(1) != 5 || c(2) != 8 || c(9) != 8 {
		t.Errorf("table clamping wrong: %g %g %g %g", c(0), c(1), c(2), c(9))
	}
}

func TestRecycleInsideDoneCallbackOfSimultaneousFlows(t *testing.T) {
	// Three equal flows on one link finish in the same instant: the first
	// completion rebalances its neighbours, which complete in nested
	// rebalances and are recycled by their Done callbacks while the outer
	// rebalance still lists them. It must skip them; completing a pooled
	// flow a second time would leave its Done fired, and the next Start to
	// draw it from the pool would look finished before moving a byte.
	sim := des.New()
	sys := NewSystem(sim)
	r := sys.NewResource("link", ConstCapacity(96)) // 192 B each at 96/3 B/s: every time is exact
	sim.At(0, func() {
		for i := 0; i < 3; i++ {
			f := sys.Start(192, r)
			f.Done.OnFire(func() { sys.Recycle(f) })
		}
	})
	var reused [3]*Flow
	sim.At(20, func() {
		for i := range reused {
			reused[i] = sys.Start(192, r)
			if reused[i].Done.Fired() {
				t.Errorf("flow %d drawn from the pool is already done", i)
			}
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := sim.Now(); got != 26 {
		t.Errorf("second batch finished at %g, want 26", got)
	}
	if n := len(r.flows); n != 0 {
		t.Errorf("%d flow(s) still attached after the run", n)
	}
}
