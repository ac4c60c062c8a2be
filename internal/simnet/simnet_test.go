package simnet

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/machine"
)

// session2 builds a 2-rank session on the default machine.
func session2(t *testing.T) *Session {
	t.Helper()
	s, err := NewSession(Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionEagerPingPong(t *testing.T) {
	// An eager-sized message moves real data and nonzero virtual time.
	s := session2(t)
	got := make([]float64, 3)
	var tRecv float64
	s.Spawn(0, func(p *des.Proc, c core.Comm) error {
		req, err := c.Isend(1, 7, []float64{1, 2, 3})
		if err != nil {
			return err
		}
		return req.Wait()
	})
	s.Spawn(1, func(p *des.Proc, c core.Comm) error {
		req, err := c.Irecv(0, 7, got)
		if err != nil {
			return err
		}
		if err := req.Wait(); err != nil {
			return err
		}
		tRecv = p.Now()
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("payload corrupted: %v", got)
	}
	if tRecv <= 0 {
		t.Fatalf("delivery at t=%g, want > 0 (latency + wire time)", tRecv)
	}
}

func TestSessionRendezvousNeedsBothEndpoints(t *testing.T) {
	// A rendezvous-sized transfer must not progress while the receiver
	// computes outside MPI: the receiver sleeps for `gap` before posting
	// its receive, so delivery lands after the gap plus the wire time —
	// whereas an async-progress world overlaps the transfer with the gap.
	// The receive is posted (matched) up front; the receiver then computes
	// outside MPI for `gap` seconds before waiting. Standard progress
	// stalls the matched transfer until the receiver enters its Wait;
	// async progress moves it during the gap.
	const n = 1 << 16 // 512 KiB ≫ eager threshold
	const gap = 1.0e-3
	run := func(async bool) float64 {
		s, err := NewSession(Config{RanksPerNode: 1, AsyncProgress: async}, 2)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]float64, n)
		buf := make([]float64, n)
		data[n-1] = 42
		var tRecv float64
		s.Spawn(0, func(p *des.Proc, c core.Comm) error {
			ps, err := c.SendInit(1, 0, data)
			if err != nil {
				return err
			}
			if err := ps.Start(); err != nil {
				return err
			}
			return ps.Wait() // rendezvous Wait blocks until delivery
		})
		s.Spawn(1, func(p *des.Proc, c core.Comm) error {
			req, err := c.Irecv(0, 0, buf)
			if err != nil {
				return err
			}
			p.Sleep(gap) // "computing": matched, but not inside MPI
			if err := req.Wait(); err != nil {
				return err
			}
			tRecv = p.Now()
			return nil
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if buf[n-1] != 42 {
			t.Fatalf("rendezvous payload corrupted (async=%v)", async)
		}
		return tRecv
	}
	sync := run(false)
	async := run(true)
	wire := 8 * float64(n) / (3.4 * machine.GB) // QDR link time, the dominant term
	if sync < gap+wire {
		t.Errorf("standard progress delivered at %g, want ≥ %g (no transfer before the receiver enters MPI)", sync, gap+wire)
	}
	// With async progress the transfer finished during the gap, so the
	// receiver's Wait returns the moment its compute gap ends.
	if async > gap {
		t.Errorf("async progress returned at %g, want by the end of the receiver's %g compute gap", async, gap)
	}
}

func TestSessionCollectiveRounds(t *testing.T) {
	// Repeated barrier/reduce/gather rounds through the double-buffered
	// round state, with canonical ascending-rank combines.
	const ranks, rounds = 5, 7
	s, err := NewSession(Config{}, ranks)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		r := r
		s.Spawn(r, func(p *des.Proc, c core.Comm) error {
			for round := 0; round < rounds; round++ {
				if err := c.Barrier(); err != nil {
					return err
				}
				v, err := c.AllreduceScalar(core.OpSum, float64(r+round))
				if err != nil {
					return err
				}
				want := float64(ranks*round) + float64(ranks*(ranks-1)/2)
				if v != want {
					t.Errorf("round %d rank %d: sum %g, want %g", round, r, v, want)
				}
				mx, err := c.Allreduce(core.OpMax, []float64{float64(r), -float64(r)})
				if err != nil {
					return err
				}
				if mx[0] != float64(ranks-1) || mx[1] != 0 {
					t.Errorf("round %d rank %d: max %v", round, r, mx)
				}
				g, err := c.AllgatherInt64(int64(r * 10))
				if err != nil {
					return err
				}
				for i, got := range g {
					if got != int64(i*10) {
						t.Errorf("round %d: gather[%d] = %d", round, i, got)
					}
				}
			}
			return nil
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionAllreduceLengthMismatch(t *testing.T) {
	s := session2(t)
	var errs [2]error
	for r := 0; r < 2; r++ {
		r := r
		s.Spawn(r, func(p *des.Proc, c core.Comm) error {
			_, errs[r] = c.Allreduce(core.OpSum, make([]float64, 1+r))
			return nil
		})
	}
	if err := s.Run(); err == nil {
		t.Fatal("mismatched Allreduce did not fail the session")
	}
	var mm *core.MismatchError
	if !errors.As(errs[1], &mm) && !errors.As(errs[0], &mm) {
		t.Fatalf("no rank saw a MismatchError: %v / %v", errs[0], errs[1])
	}
}

func TestPersistentChannelRoundTrips(t *testing.T) {
	// Persistent Start/Wait cycles deliver fresh buffer contents each
	// iteration in both regimes (eager snapshot, rendezvous zero-copy).
	for _, n := range []int{8, 1 << 15} { // eager | rendezvous
		s, err := NewSession(Config{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		const iters = 5
		src := make([]float64, n)
		dst := make([]float64, n)
		s.Spawn(0, func(p *des.Proc, c core.Comm) error {
			ps, err := c.SendInit(1, 0, src)
			if err != nil {
				return err
			}
			for it := 0; it < iters; it++ {
				src[0] = float64(it + 1) // current contents, MPI_Send_init
				if err := ps.Start(); err != nil {
					return err
				}
				if err := ps.Wait(); err != nil {
					return err
				}
			}
			return nil
		})
		s.Spawn(1, func(p *des.Proc, c core.Comm) error {
			pr, err := c.RecvInit(0, 0, dst)
			if err != nil {
				return err
			}
			for it := 0; it < iters; it++ {
				if err := pr.Start(); err != nil {
					return err
				}
				if err := pr.Wait(); err != nil {
					return err
				}
				if dst[0] != float64(it+1) {
					t.Errorf("n=%d iter %d: got %g, want %g", n, it, dst[0], float64(it+1))
				}
			}
			return nil
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPersistentStartWhileInFlight(t *testing.T) {
	// The chanmpi contract: restarting an in-flight persistent receive is
	// a caller bug and errs; the world stays healthy.
	s := session2(t)
	var startErr error
	s.Spawn(0, func(p *des.Proc, c core.Comm) error {
		pr, err := c.RecvInit(1, 0, make([]float64, 4))
		if err != nil {
			return err
		}
		if err := pr.Start(); err != nil {
			return err
		}
		startErr = pr.Start() //reprolint:ignore persistwait this test exercises the double-Start error path
		return nil
	})
	s.Spawn(1, func(p *des.Proc, c core.Comm) error {
		req, err := c.Isend(0, 0, make([]float64, 4))
		if err != nil {
			return err
		}
		return req.Wait()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if startErr == nil || !strings.Contains(startErr.Error(), "still in flight") {
		t.Fatalf("double Start returned %v, want still-in-flight error", startErr)
	}
}

// ringWorkload builds a synthetic ring halo: every rank exchanges `halo`
// elements with both neighbours and owns identical local work.
func ringWorkload(ranks, rows int, nnzLocal, nnzRemote int64, halo int) *Workload {
	wl := &Workload{
		Name: "ring", Ranks: ranks, Kappa: 0,
		Rows:      make([]int, ranks),
		NnzLocal:  make([]int64, ranks),
		NnzRemote: make([]int64, ranks),
		Sends:     make([][]Seg, ranks),
		Recvs:     make([][]Seg, ranks),
	}
	for r := 0; r < ranks; r++ {
		wl.Rows[r] = rows
		wl.NnzLocal[r] = nnzLocal
		wl.NnzRemote[r] = nnzRemote
		wl.TotalNnz += nnzLocal + nnzRemote
		left, right := (r+ranks-1)%ranks, (r+1)%ranks
		wl.Sends[r] = []Seg{{Peer: left, Elems: halo}, {Peer: right, Elems: halo}}
		wl.Recvs[r] = []Seg{{Peer: left, Elems: halo}, {Peer: right, Elems: halo}}
	}
	wl.Nnzr = float64(wl.TotalNnz) / float64(ranks*rows)
	return wl
}

func TestRunPointDeterministicEventForEvent(t *testing.T) {
	// Two runs of the same point must agree to the bit AND in DES event
	// count — the reproducibility contract of session mode.
	wl := ringWorkload(8, 20000, 200000, 20000, 3000)
	cfg := PointConfig{
		Cluster: machine.WestmereCluster(),
		Nodes:   4, Layout: ProcPerLD, Mode: core.TaskMode,
	}
	a, err := RunPoint(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPoint(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if a.TimePerIter != b.TimePerIter || a.Events != b.Events {
		t.Fatalf("nondeterministic: run1 (t=%v, events=%d) vs run2 (t=%v, events=%d)",
			a.TimePerIter, a.Events, b.TimePerIter, b.Events)
	}
	if a.GFlops <= 0 || a.Events == 0 {
		t.Fatalf("degenerate result: %+v", a)
	}
}

func TestRunPointTaskModeOverlaps(t *testing.T) {
	// With large rendezvous halos, task mode (communication thread inside
	// MPI) must beat vector no-overlap, and naive overlap must NOT —
	// the paper's central claim, reproduced by the progress model.
	wl := ringWorkload(8, 40000, 400000, 40000, 60000) // 480 KB halos
	base := PointConfig{
		Cluster: machine.WestmereCluster(),
		Nodes:   4, Layout: ProcPerLD,
	}
	times := map[core.Mode]float64{}
	for _, mode := range core.Modes {
		cfg := base
		cfg.Mode = mode
		res, err := RunPoint(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		if res.TimePerIter <= 0 {
			t.Fatalf("mode %v: time %g", mode, res.TimePerIter)
		}
		times[mode] = res.TimePerIter
	}
	if times[core.TaskMode] >= times[core.VectorNoOverlap] {
		t.Errorf("task mode (%g) not faster than no-overlap (%g)",
			times[core.TaskMode], times[core.VectorNoOverlap])
	}
	// Naive overlap cannot beat task mode: its transfers stall until the
	// Waitall (§3). Allow it the no-overlap ballpark.
	if times[core.VectorNaiveOverlap] < times[core.TaskMode] {
		t.Errorf("naive overlap (%g) beat task mode (%g) — progress semantics broken",
			times[core.VectorNaiveOverlap], times[core.TaskMode])
	}
}

func TestRunPointAsyncProgressRescuesNaive(t *testing.T) {
	// The §5 ablation: with an async progress thread, naive overlap's
	// transfers move during the local phase, closing most of the gap.
	wl := ringWorkload(8, 40000, 400000, 40000, 60000)
	cfg := PointConfig{
		Cluster: machine.WestmereCluster(),
		Nodes:   4, Layout: ProcPerLD, Mode: core.VectorNaiveOverlap,
	}
	std, err := RunPoint(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	cfg.AsyncProgress = true
	async, err := RunPoint(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if async.TimePerIter >= std.TimePerIter {
		t.Errorf("async progress did not help naive overlap: %g vs %g",
			async.TimePerIter, std.TimePerIter)
	}
}

func TestParseLayout(t *testing.T) {
	for _, tok := range LayoutTokens() {
		if _, err := ParseLayout(tok); err != nil {
			t.Errorf("ParseLayout(%q): %v", tok, err)
		}
	}
	if l, err := ParseLayout("  Proc-Per-LD "); err != nil || l != ProcPerLD {
		t.Errorf("ParseLayout with case/space = %v, %v", l, err)
	}
	_, err := ParseLayout("banana")
	if err == nil {
		t.Fatal("ParseLayout accepted junk")
	}
	for _, tok := range LayoutTokens() {
		if !strings.Contains(err.Error(), tok) {
			t.Errorf("error %q does not enumerate token %q", err, tok)
		}
	}
}

func TestWorkloadFromPlanAgainstRing(t *testing.T) {
	// Sanity on the Workload invariants the planner relies on.
	wl := ringWorkload(4, 100, 1000, 100, 10)
	if wl.TotalNnz != 4*(1000+100) {
		t.Fatalf("TotalNnz = %d", wl.TotalNnz)
	}
	for r := 0; r < 4; r++ {
		if len(wl.Sends[r]) != 2 || len(wl.Recvs[r]) != 2 {
			t.Fatalf("rank %d segments: %v / %v", r, wl.Sends[r], wl.Recvs[r])
		}
	}
}

func TestRunPointGoldenFingerprint(t *testing.T) {
	// One fixed point per mode, pinned to the literals the engine produced
	// before des.Proc became a coroutine and the halo payload moved once:
	// an engine rewrite must stay event-for-event identical to that commit,
	// not merely to itself. The ring sends 500 elements one way (eager) and
	// 3000 the other (rendezvous), so both protocols are in the count.
	wl := ringWorkload(8, 20000, 200000, 20000, 3000)
	for r := range wl.Sends {
		wl.Sends[r][0].Elems = 500
		wl.Recvs[r][1].Elems = 500
	}
	golden := map[core.Mode]Result{
		core.VectorNoOverlap:    {Events: 3098, TimePerIter: 0x1.68553ee3c7d26p-13, GFlops: 0x1.47c8dab3a601ep+04},
		core.VectorNaiveOverlap: {Events: 4530, TimePerIter: 0x1.8c898ab1e5386p-13, GFlops: 0x1.29db851dbabf3p+04},
		core.TaskMode:           {Events: 4458, TimePerIter: 0x1.769065d9298bbp-13, GFlops: 0x1.3b54b26d0504cp+04},
	}
	for _, mode := range core.Modes {
		got, err := RunPoint(PointConfig{Cluster: machine.WestmereCluster(), Nodes: 4, Layout: ProcPerLD, Mode: mode}, wl)
		if err != nil {
			t.Fatal(err)
		}
		want := golden[mode]
		if got.Events != want.Events || got.TimePerIter != want.TimePerIter || got.GFlops != want.GFlops {
			t.Errorf("%v: events %d, time/iter %x, GFlop/s %x; golden %d, %x, %x",
				mode, got.Events, got.TimePerIter, got.GFlops, want.Events, want.TimePerIter, want.GFlops)
		}
	}
}

func TestPersistentSendSnapshotsAtStart(t *testing.T) {
	// The single-copy path: a persistent send's payload is the buffer as of
	// Start, whichever side posts first and whichever protocol carries it.
	// An eager Start completes locally, so the sender scribbles on its
	// buffer straight away; a rendezvous sender owns its buffer again only
	// after Wait, and scribbles then. Three rounds reuse the pooled
	// messages, the last two with the eager sender running ahead.
	for _, n := range []int{8, 1 << 15} { // eager | rendezvous
		for _, recvFirst := range []bool{true, false} {
			s := session2(t)
			eager := 8*n < machine.WestmereCluster().Net.EagerThreshold
			const rounds = 3
			const lag = 1e-3 // the later side posts this much later
			src := make([]float64, n)
			dst := make([]float64, n)
			fill := func(v float64) {
				for i := range src {
					src[i] = v
				}
			}
			s.Spawn(0, func(p *des.Proc, c core.Comm) error {
				ps, err := c.SendInit(1, 0, src)
				if err != nil {
					return err
				}
				if recvFirst {
					p.Sleep(lag)
				}
				for round := 1; round <= rounds; round++ {
					fill(float64(round))
					if err := ps.Start(); err != nil {
						return err
					}
					if eager {
						fill(-1)
					}
					if err := ps.Wait(); err != nil {
						return err
					}
					fill(-1)
				}
				return nil
			})
			s.Spawn(1, func(p *des.Proc, c core.Comm) error {
				pr, err := c.RecvInit(0, 0, dst)
				if err != nil {
					return err
				}
				if !recvFirst {
					p.Sleep(lag)
				}
				for round := 1; round <= rounds; round++ {
					if err := pr.Start(); err != nil {
						return err
					}
					if err := pr.Wait(); err != nil {
						return err
					}
					for i, v := range dst {
						if v != float64(round) {
							t.Errorf("n=%d recvFirst=%v round %d: dst[%d] = %g, want %d", n, recvFirst, round, i, v, round)
							break
						}
					}
				}
				return nil
			})
			if err := s.Run(); err != nil {
				t.Fatalf("n=%d recvFirst=%v: %v", n, recvFirst, err)
			}
		}
	}
}

func TestPersistentSendTruncationCopiesNothing(t *testing.T) {
	// A receive too short for the message still completes with a
	// *core.TruncationError on both posting orders, and the eager single
	// copy must not have run past (or into) the short buffer.
	for _, recvFirst := range []bool{true, false} {
		s := session2(t)
		backing := []float64{7, 7, 7, 7, 7, 7, 7, 7}
		var recvErr error
		s.Spawn(0, func(p *des.Proc, c core.Comm) error {
			ps, err := c.SendInit(1, 0, []float64{1, 2, 3, 4, 5, 6})
			if err != nil {
				return err
			}
			if recvFirst {
				p.Sleep(1e-3)
			}
			if err := ps.Start(); err != nil {
				return nil // the world failed under the send: the receiver reports why
			}
			return ps.Wait()
		})
		s.Spawn(1, func(p *des.Proc, c core.Comm) error {
			pr, err := c.RecvInit(0, 0, backing[:4])
			if err != nil {
				return err
			}
			if !recvFirst {
				p.Sleep(1e-3)
			}
			if recvErr = pr.Start(); recvErr == nil {
				recvErr = pr.Wait()
			}
			return nil
		})
		_ = s.Run() // the world failed; what matters is what the receiver saw
		var te *core.TruncationError
		if !errors.As(recvErr, &te) || te.Len != 6 || te.Cap != 4 {
			t.Errorf("recvFirst=%v: receiver got %v, want a TruncationError 6 into 4", recvFirst, recvErr)
		}
		for i, v := range backing {
			if v != 7 {
				t.Errorf("recvFirst=%v: backing[%d] = %g: a truncated message was copied", recvFirst, i, v)
			}
		}
	}
}

func TestSessionRunPanicIsRecoverable(t *testing.T) {
	// A rank body's panic arrives at Session.Run's caller with its value,
	// and the rank it stranded inside a collective is unwound, not leaked.
	s := session2(t)
	s.Spawn(0, func(p *des.Proc, c core.Comm) error { return c.Barrier() })
	s.Spawn(1, func(p *des.Proc, c core.Comm) error {
		p.Sleep(1e-6)
		panic("rank 1 lost it")
	})
	defer func() {
		if r := recover(); r != "rank 1 lost it" {
			t.Errorf("recovered %v, want the body's panic value", r)
		}
	}()
	_ = s.Run()
	t.Error("Session.Run returned past a panicking rank")
}

func TestTransientAndPersistentShareChannelFIFO(t *testing.T) {
	// Persistent requests resolve their channel at Init, transient ones per
	// call; both must land in the same queues, so messages on one (src,
	// dst, tag) still match in posting order whichever kind carries them
	// and whichever side posts first.
	for _, n := range []int{4, 1 << 15} { // eager | rendezvous
		for _, recvFirst := range []bool{true, false} {
			s := session2(t)
			const lag = 1e-3
			pbuf := make([]float64, n)
			got := [3][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
			s.Spawn(0, func(p *des.Proc, c core.Comm) error {
				ps, err := c.SendInit(1, 5, pbuf)
				if err != nil {
					return err
				}
				if recvFirst {
					p.Sleep(lag)
				}
				payload := func(v float64) []float64 {
					b := make([]float64, n)
					b[0], b[n-1] = v, -v
					return b
				}
				r1, err := c.Isend(1, 5, payload(1))
				if err != nil {
					return err
				}
				pbuf[0], pbuf[n-1] = 2, -2
				if err := ps.Start(); err != nil {
					return err
				}
				r3, err := c.Isend(1, 5, payload(3))
				if err != nil {
					return err
				}
				if err := ps.Wait(); err != nil {
					return err
				}
				return c.Waitall(r1, r3)
			})
			s.Spawn(1, func(p *des.Proc, c core.Comm) error {
				pr, err := c.RecvInit(0, 5, got[1])
				if err != nil {
					return err
				}
				if !recvFirst {
					p.Sleep(lag)
				}
				r0, err := c.Irecv(0, 5, got[0])
				if err != nil {
					return err
				}
				if err := pr.Start(); err != nil {
					return err
				}
				r2, err := c.Irecv(0, 5, got[2])
				if err != nil {
					return err
				}
				if err := pr.Wait(); err != nil {
					return err
				}
				return c.Waitall(r0, r2)
			})
			if err := s.Run(); err != nil {
				t.Fatalf("n=%d recvFirst=%v: %v", n, recvFirst, err)
			}
			for k, b := range got {
				if want := float64(k + 1); b[0] != want || b[n-1] != -want {
					t.Errorf("n=%d recvFirst=%v: receive %d got message %g/%g, want %g", n, recvFirst, k, b[0], b[n-1], want)
				}
			}
		}
	}
}

// persistentPair runs one persistent send of src from rank 0 into a
// persistent receive of dst on rank 1. recvFirst selects which side posts
// first: for an eager send, the snapshot goes straight into the posted
// receive, else it is staged in the message. It returns the receive's
// delivered element count.
func persistentPair(t *testing.T, src, dst []float64, recvFirst bool) int {
	t.Helper()
	s := session2(t)
	const lag = 1e-3
	var pr core.PersistentRequest
	s.Spawn(0, func(p *des.Proc, c core.Comm) error {
		ps, err := c.SendInit(1, 0, src)
		if err != nil {
			return err
		}
		if recvFirst {
			p.Sleep(lag)
		}
		if err := ps.Start(); err != nil {
			return err
		}
		return ps.Wait()
	})
	s.Spawn(1, func(p *des.Proc, c core.Comm) error {
		var err error
		if pr, err = c.RecvInit(0, 0, dst); err != nil {
			return err
		}
		if !recvFirst {
			p.Sleep(lag)
		}
		if err := pr.Start(); err != nil {
			return err
		}
		return pr.Wait()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("len %d recvFirst=%v: %v", len(src), recvFirst, err)
	}
	return pr.(*precv).p.n
}

func TestAliasedReceiveCompletes(t *testing.T) {
	// RunPoint binds every send and receive to one scratch buffer: a
	// delivery from a buffer into itself moves nothing, yet completes with
	// the message's length and leaves the bytes as they were.
	for _, n := range []int{8, 1 << 15} { // eager | rendezvous
		for _, recvFirst := range []bool{true, false} {
			shared := make([]float64, n+3)
			for i := range shared {
				shared[i] = float64(i) + 0.25
			}
			if got := persistentPair(t, shared[:n], shared[:n+3], recvFirst); got != n {
				t.Errorf("n=%d recvFirst=%v: delivered %d elements, want %d", n, recvFirst, got, n)
			}
			for i, v := range shared {
				if v != float64(i)+0.25 {
					t.Fatalf("n=%d recvFirst=%v: shared[%d] = %g after an aliased delivery", n, recvFirst, i, v)
				}
			}
		}
	}
}

func TestDistinctBuffersCopiedBitForBit(t *testing.T) {
	// Skipping aliased copies must not skip real ones: eager placed, eager
	// staged and rendezvous deliveries reproduce every bit of the payload —
	// NaN payloads, signed zeros and subnormals included — and write nothing
	// past the message.
	special := []uint64{
		0x7ff8000000000001, 0xfff4000000000abc, // NaNs with payloads
		0x8000000000000000, 0x0000000000000001, // -0, the smallest subnormal
		0x7ff0000000000000, 0x3ff0000000000001, // +Inf, 1 + ulp
	}
	for _, n := range []int{8, 1 << 15} { // eager | rendezvous
		for _, recvFirst := range []bool{true, false} {
			src := make([]float64, n)
			for i := range src {
				if i < len(special) {
					src[i] = math.Float64frombits(special[i])
				} else {
					src[i] = math.Float64frombits(uint64(i)*0x9e3779b97f4a7c15 | 1)
				}
			}
			dst := make([]float64, n+1)
			dst[n] = 42
			if got := persistentPair(t, src, dst, recvFirst); got != n {
				t.Errorf("n=%d recvFirst=%v: delivered %d elements, want %d", n, recvFirst, got, n)
			}
			for i := range src {
				if math.Float64bits(dst[i]) != math.Float64bits(src[i]) {
					t.Fatalf("n=%d recvFirst=%v: element %d arrived as %#x, sent %#x", n, recvFirst, i, math.Float64bits(dst[i]), math.Float64bits(src[i]))
				}
			}
			if dst[n] != 42 {
				t.Errorf("n=%d recvFirst=%v: the element past the message was overwritten", n, recvFirst)
			}
		}
	}
}
