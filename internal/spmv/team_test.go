package spmv

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// Every worker index of a region runs exactly once per execution, whether
// the caller takes chunk 0 (Exec) or the pool takes all of them
// (Start/Join), with the two alternating on one team and one Region. Under
// -race this is also the check that a pool worker lagging behind on a
// stale descriptor never runs a chunk the caller owns.
func TestTeamExecAndStartRunEachIndexOnce(t *testing.T) {
	const rounds = 10000
	for _, n := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			team := NewTeam(n)
			defer team.Close()
			ran := make([]atomic.Int64, n)
			region := team.Compile(n, func(w int) { ran[w].Add(1) })
			for round := 1; round <= rounds; round++ {
				if round%2 == 0 {
					team.Exec(region)
				} else {
					team.Start(region)
					team.Join()
				}
				for w := range ran {
					if got := ran[w].Load(); got != int64(round) {
						t.Fatalf("round %d: worker %d has run %d times", round, w, got)
					}
				}
			}
		})
	}
}

// Exec's chunk 0 runs on the calling goroutine; Start's does not have to.
// A body that writes a caller-owned variable without synchronisation is
// legal for index 0 under Exec, which -race checks.
func TestTeamExecRunsChunkZeroOnCaller(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	callerOnly := 0
	region := team.Compile(3, func(w int) {
		if w == 0 {
			callerOnly++
		}
	})
	for i := 0; i < 100; i++ {
		team.Exec(region)
		callerOnly++
	}
	if callerOnly != 200 {
		t.Errorf("chunk 0 ran %d times in 100 regions", callerOnly-100)
	}
}

// An Exec on a team of one is a function call: nothing is published, so no
// pool goroutine wakes and the completion channel is never touched — and
// nothing is allocated.
func TestAllocGateTeamExecOfOne(t *testing.T) {
	team := NewTeam(1)
	defer team.Close()
	calls := 0
	region := team.Compile(1, func(int) { calls++ })
	if allocs := testing.AllocsPerRun(1000, func() { team.Exec(region) }); allocs != 0 {
		t.Errorf("Exec on a team of one allocates %.1f times per region", allocs)
	}
	if calls == 0 {
		t.Fatal("the region body never ran")
	}
	if team.epoch != 0 || team.cur.Load() != nil || len(team.done) != 0 {
		t.Errorf("Exec on a team of one published a region (epoch %d)", team.epoch)
	}
	two := NewTeam(2)
	defer two.Close()
	pair := two.Compile(2, func(int) {})
	if allocs := testing.AllocsPerRun(1000, func() { two.Exec(pair) }); allocs != 0 {
		t.Errorf("Exec on a team of two allocates %.1f times per region", allocs)
	}
}

// A panic in a region body reaches the caller of Exec or Join, whichever
// worker raised it, and the team runs the next region as if nothing had
// happened.
func TestTeamPanicReachesCaller(t *testing.T) {
	for _, n := range []int{1, 3} {
		for _, bad := range []int{0, n - 1}[:min(n, 2)] {
			for _, how := range []string{"Exec", "StartJoin"} {
				t.Run(fmt.Sprintf("n=%d/worker=%d/%s", n, bad, how), func(t *testing.T) {
					team := NewTeam(n)
					defer team.Close()
					var armed atomic.Bool
					var ran atomic.Int64
					region := team.Compile(n, func(w int) {
						ran.Add(1)
						if w == bad && armed.Load() {
							panic(fmt.Sprintf("boom on %d", w))
						}
					})
					run := func() (caught any) {
						defer func() { caught = recover() }()
						if how == "Exec" {
							team.Exec(region)
						} else {
							team.Start(region)
							team.Join()
						}
						return nil
					}
					armed.Store(true)
					if got, want := run(), fmt.Sprintf("boom on %d", bad); got != want {
						t.Fatalf("caller recovered %v, want %q", got, want)
					}
					if got := ran.Load(); got != int64(n) {
						t.Errorf("%d of %d chunks ran before the panic surfaced", got, n)
					}
					armed.Store(false)
					for i := 0; i < 3; i++ {
						if got := run(); got != nil {
							t.Fatalf("region after the panic: caller recovered %v", got)
						}
					}
					if got := ran.Load(); got != int64(4*n) {
						t.Errorf("%d chunks ran in 4 regions of %d", got, n)
					}
				})
			}
		}
	}
}

// BenchmarkTeamExec is the fork-join cost of an empty region: a function
// call on a team of one, one wake-up and one countdown on a team of two.
func BenchmarkTeamExec(b *testing.B) {
	for _, n := range []int{1, 2} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			team := NewTeam(n)
			defer team.Close()
			region := team.Compile(n, func(int) {})
			team.Exec(region)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				team.Exec(region)
			}
		})
	}
}

// BenchmarkTeamIdleGap is one Start/Join of an empty region after the
// caller has been busy elsewhere for gap — the halo wait of a task-mode
// step, or the request path between two served products. A worker still
// spinning when the region is published picks it up at once; one that has
// parked must be woken, which is what the team's spin budget is sized
// against. us/region times Start to Join only, not the gap.
func BenchmarkTeamIdleGap(b *testing.B) {
	for _, gap := range []time.Duration{0, 20 * time.Microsecond, 100 * time.Microsecond} {
		b.Run(fmt.Sprintf("gap=%v", gap), func(b *testing.B) {
			team := NewTeam(1)
			defer team.Close()
			region := team.Compile(1, func(int) {})
			team.Start(region)
			team.Join()
			var inRegion time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for t0 := time.Now(); time.Since(t0) < gap; {
				}
				t0 := time.Now()
				team.Start(region)
				team.Join()
				inRegion += time.Since(t0)
			}
			b.ReportMetric(inRegion.Seconds()*1e6/float64(b.N), "us/region")
		})
	}
}
