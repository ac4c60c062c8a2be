package tcpmpi_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chanmpi"
	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/matrix"
	"repro/internal/solver"
	"repro/internal/tcpmpi"
)

// freeAddr reserves an ephemeral loopback port for a rendezvous.
func freeAddr(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// dialSplit brings up one world of `size` ranks split across len(splits)
// endpoints inside this test process — real TCP on loopback, every
// handshake and frame path exercised, but no OS process boundary (see
// proc_test.go for that). splits lists each endpoint's [lo,hi) range;
// the first endpoint coordinates.
func dialSplit(t testing.TB, size int, splits [][2]int) []core.World {
	t.Helper()
	return dialSplitWith(t, size, splits, nil)
}

// dialSplitWith is dialSplit with mutate applied to each endpoint's
// transport before it dials.
func dialSplitWith(t testing.TB, size int, splits [][2]int, mutate func(i int, tr *tcpmpi.Transport)) []core.World {
	t.Helper()
	addr := freeAddr(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	worlds := make([]core.World, len(splits))
	errs := make([]error, len(splits))
	var wg sync.WaitGroup
	for i, s := range splits {
		wg.Add(1)
		go func(i int, lo, hi int) {
			defer wg.Done()
			tr := &tcpmpi.Transport{Addr: addr, Coordinate: i == 0, RankLo: lo, RankHi: hi}
			if mutate != nil {
				mutate(i, tr)
			}
			worlds[i], errs[i] = tr.Dial(ctx, size)
		}(i, s[0], s[1])
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("endpoint %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, w := range worlds {
			w.Close()
		}
	})
	return worlds
}

// comms returns one communicator per rank, pulled from whichever world
// owns it.
func comms(t testing.TB, worlds []core.World, size int) []core.Comm {
	t.Helper()
	cs := make([]core.Comm, size)
	for _, w := range worlds {
		for _, r := range w.LocalRanks() {
			c, err := w.Comm(r)
			if err != nil {
				t.Fatal(err)
			}
			cs[r] = c
		}
	}
	return cs
}

// spmd runs body once per rank on its own goroutine and returns the first
// error.
func spmd(cs []core.Comm, body func(c core.Comm) error) error {
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c core.Comm) {
			defer wg.Done()
			errs[i] = body(c)
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func TestWorldBringUpAndAccessors(t *testing.T) {
	worlds := dialSplit(t, 5, [][2]int{{0, 2}, {2, 3}, {3, 5}})
	if worlds[0].Size() != 5 {
		t.Errorf("Size() = %d", worlds[0].Size())
	}
	got := worlds[2].LocalRanks()
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("LocalRanks() = %v, want [3 4]", got)
	}
	if _, err := worlds[0].Comm(4); err == nil {
		t.Error("Comm for a remote rank accepted")
	}
	c, err := worlds[1].Comm(2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rank() != 2 || c.Size() != 5 {
		t.Errorf("comm identity: rank %d size %d", c.Rank(), c.Size())
	}
}

func TestCrossProcessPingPong(t *testing.T) {
	worlds := dialSplit(t, 2, [][2]int{{0, 1}, {1, 2}})
	cs := comms(t, worlds, 2)
	err := spmd(cs, func(c core.Comm) error {
		if c.Rank() == 0 {
			if _, err := c.Isend(1, 7, []float64{1, 2, 3}); err != nil {
				return err
			}
			buf := make([]float64, 3)
			req, err := c.Irecv(1, 8, buf)
			if err != nil {
				return err
			}
			if err := req.Wait(); err != nil {
				return err
			}
			if buf[0] != 2 || buf[1] != 4 || buf[2] != 6 {
				return fmt.Errorf("rank 0 got %v", buf)
			}
			return nil
		}
		buf := make([]float64, 3)
		req, err := c.Irecv(0, 7, buf)
		if err != nil {
			return err
		}
		if err := req.Wait(); err != nil {
			return err
		}
		for i := range buf {
			buf[i] *= 2
		}
		_, err = c.Isend(0, 8, buf)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingAndTagSelectivity(t *testing.T) {
	worlds := dialSplit(t, 2, [][2]int{{0, 1}, {1, 2}})
	cs := comms(t, worlds, 2)
	err := spmd(cs, func(c core.Comm) error {
		if c.Rank() == 0 {
			for k := 0; k < 10; k++ {
				if _, err := c.Isend(1, 3, []float64{float64(k)}); err != nil {
					return err
				}
			}
			if _, err := c.Isend(1, 99, []float64{-1}); err != nil {
				return err
			}
			return nil
		}
		// Tag 99 first, although it was sent last.
		odd := make([]float64, 1)
		req, err := c.Irecv(0, 99, odd)
		if err != nil {
			return err
		}
		if err := req.Wait(); err != nil {
			return err
		}
		if odd[0] != -1 {
			return fmt.Errorf("tag selectivity broken: %v", odd[0])
		}
		// Same-tag messages arrive in posting order.
		for k := 0; k < 10; k++ {
			buf := make([]float64, 1)
			req, err := c.Irecv(0, 3, buf)
			if err != nil {
				return err
			}
			if err := req.Wait(); err != nil {
				return err
			}
			if buf[0] != float64(k) {
				return fmt.Errorf("overtaking: got %v at position %d", buf[0], k)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectives(t *testing.T) {
	const size = 7
	worlds := dialSplit(t, size, [][2]int{{0, 3}, {3, 5}, {5, 7}})
	cs := comms(t, worlds, size)
	err := spmd(cs, func(c core.Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		sum, err := c.AllreduceScalar(core.OpSum, float64(c.Rank()+1))
		if err != nil {
			return err
		}
		if sum != 28 { // 1+…+7
			return fmt.Errorf("rank %d: sum = %g, want 28", c.Rank(), sum)
		}
		mx, err := c.AllreduceScalar(core.OpMax, float64(c.Rank()))
		if err != nil {
			return err
		}
		if mx != 6 {
			return fmt.Errorf("max = %g", mx)
		}
		mn, err := c.AllreduceScalar(core.OpMin, -float64(c.Rank()))
		if err != nil {
			return err
		}
		if mn != -6 {
			return fmt.Errorf("min = %g", mn)
		}
		vec, err := c.Allreduce(core.OpSum, []float64{1, float64(c.Rank())})
		if err != nil {
			return err
		}
		if vec[0] != size || vec[1] != 21 {
			return fmt.Errorf("vector allreduce = %v", vec)
		}
		g, err := c.AllgatherInt64(int64(c.Rank()*10 - 5))
		if err != nil {
			return err
		}
		for r := 0; r < size; r++ {
			if g[r] != int64(r*10-5) {
				return fmt.Errorf("gather[%d] = %d", r, g[r])
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceBitIdenticalToChanmpi(t *testing.T) {
	// The canonical rank-order combine: tcpmpi's dissemination allreduce
	// must produce the same floating-point bits as the in-process runtime for
	// the same inputs — the property whole-solve bit-identity rests on.
	const size = 6
	ins := make([][]float64, size)
	for r := range ins {
		ins[r] = []float64{1.0 / float64(r+3), float64(r) * 0.1, -7.77e-3 * float64(r*r)}
	}
	want := make([][]float64, size)
	cw, err := chanmpi.NewWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Run(func(c *chanmpi.Comm) error {
		res, err := c.Allreduce(chanmpi.OpSum, ins[c.Rank()])
		want[c.Rank()] = append([]float64(nil), res...)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	worlds := dialSplit(t, size, [][2]int{{0, 2}, {2, 6}})
	cs := comms(t, worlds, size)
	if err := spmd(cs, func(c core.Comm) error {
		res, err := c.Allreduce(core.OpSum, ins[c.Rank()])
		if err != nil {
			return err
		}
		for i := range res {
			if res[i] != want[c.Rank()][i] {
				return fmt.Errorf("rank %d elem %d: tcpmpi %v != chanmpi %v", c.Rank(), i, res[i], want[c.Rank()][i])
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncationFailsWorld(t *testing.T) {
	worlds := dialSplit(t, 2, [][2]int{{0, 1}, {1, 2}})
	cs := comms(t, worlds, 2)
	errCh := make(chan error, 1)
	go func() {
		errCh <- spmd(cs, func(c core.Comm) error {
			if c.Rank() == 0 {
				_, err := c.Isend(1, 0, []float64{1, 2, 3, 4})
				return err
			}
			buf := make([]float64, 2)
			req, err := c.Irecv(0, 0, buf)
			if err != nil {
				return err
			}
			return req.Wait()
		})
	}()
	select {
	case err := <-errCh:
		var trunc *core.TruncationError
		if !errors.As(err, &trunc) {
			t.Fatalf("got %v, want *TruncationError", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("truncation wedged the world")
	}
	// The receiving endpoint's world is failed; subsequent ops error out.
	if _, err := cs[1].Isend(0, 1, []float64{1}); err == nil {
		t.Error("send on failed world succeeded")
	}
}

func TestPeerDepartureUnblocksReceives(t *testing.T) {
	worlds := dialSplit(t, 2, [][2]int{{0, 1}, {1, 2}})
	cs := comms(t, worlds, 2)
	// Rank 0 sends one message, then its endpoint closes gracefully. Rank
	// 1 must still receive the already-sent message afterwards, while a
	// receive that can never be matched unwedges with a departure error
	// instead of hanging — and the survivor's world is NOT failed.
	if _, err := cs[0].Isend(1, 4, []float64{42}); err != nil {
		t.Fatal(err)
	}
	pending := make(chan error, 1)
	go func() {
		buf := make([]float64, 1)
		req, err := cs[1].Irecv(0, 5, buf) // never sent
		if err != nil {
			pending <- err
			return
		}
		pending <- req.Wait()
	}()
	time.Sleep(50 * time.Millisecond)
	worlds[0].Close()
	select {
	case err := <-pending:
		if err == nil || !strings.Contains(err.Error(), "closed its world") {
			t.Fatalf("unmatched receive got %v, want a departure error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("receive stayed wedged after the peer departed")
	}
	// The buffered message outlives the departure.
	buf := make([]float64, 1)
	req, err := cs[1].Irecv(0, 4, buf)
	if err != nil {
		t.Fatalf("receiving a buffered message after departure: %v", err)
	}
	if err := req.Wait(); err != nil || buf[0] != 42 {
		t.Fatalf("buffered message after departure: %v (buf %v)", err, buf)
	}
	// A fresh receive from the departed rank errors immediately.
	if _, err := cs[1].Irecv(0, 9, make([]float64, 1)); err == nil || !strings.Contains(err.Error(), "closed its world") {
		t.Fatalf("post-departure receive got %v, want a departure error", err)
	}
	// Sends toward the departed process error without failing the world.
	if _, err := cs[1].Isend(0, 9, []float64{1}); err == nil {
		t.Fatal("send to departed process succeeded")
	}
}

func TestDialValidation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := (&tcpmpi.Transport{Addr: "127.0.0.1:1", RankLo: 0, RankHi: 0, Coordinate: true}).Dial(ctx, 2); err == nil {
		t.Error("empty rank range accepted")
	}
	if _, err := (&tcpmpi.Transport{Addr: "127.0.0.1:1", RankLo: 0, RankHi: 3, Coordinate: true}).Dial(ctx, 2); err == nil {
		t.Error("rank range beyond world size accepted")
	}
	if _, err := (&tcpmpi.Transport{RankLo: 0, RankHi: 2, Coordinate: true}).Dial(ctx, 2); err == nil {
		t.Error("missing rendezvous address accepted")
	}
	if _, err := (&tcpmpi.Transport{Addr: "127.0.0.1:1", RankLo: 0, RankHi: 2, Coordinate: true}).Dial(ctx, 0); err == nil {
		t.Error("world size 0 accepted")
	}
}

func TestWorkerDialTimesOutWithoutCoordinator(t *testing.T) {
	addr := freeAddr(t) // nobody listens here
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := (&tcpmpi.Transport{Addr: addr, RankLo: 1, RankHi: 2, RetryInterval: 20 * time.Millisecond}).Dial(ctx, 2)
	if err == nil {
		t.Fatal("worker dialed a world with no coordinator")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("worker did not respect the dial context")
	}
}

func TestCoordinatorRejectsOverlappingRanges(t *testing.T) {
	addr := freeAddr(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var coordErr, workErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, coordErr = (&tcpmpi.Transport{Addr: addr, Coordinate: true, RankLo: 0, RankHi: 2}).Dial(ctx, 3)
	}()
	go func() {
		defer wg.Done()
		// Overlaps the coordinator's range and leaves rank 2 uncovered —
		// but still brings the covered count to 3, ending the rendezvous.
		_, workErr = (&tcpmpi.Transport{Addr: addr, RankLo: 1, RankHi: 2}).Dial(ctx, 3)
	}()
	wg.Wait()
	if coordErr == nil || workErr == nil {
		t.Fatalf("overlapping ranges accepted: coord %v, worker %v", coordErr, workErr)
	}
}

// buildFixture generates the deterministic test system shared by the
// cluster-level tests: both endpoints build the identical plan locally,
// exactly as two real worker processes would.
func buildFixture(t *testing.T, n, ranks int) (*matrix.CSR, *core.Plan) {
	t.Helper()
	g, err := genmat.NewRandomBand(genmat.RandomBandConfig{
		N: n, Bandwidth: n / 3, PerRow: 5, Seed: 12345, Symmetric: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Materialize(g)
	plan, err := core.BuildPlan(a, core.PartitionByNnz(a, ranks), true)
	if err != nil {
		t.Fatal(err)
	}
	return a, plan
}

func TestClusterMulOverTCPMatchesChanTransport(t *testing.T) {
	// Two endpoints, each driving a rank subset of the same plan through
	// its own Cluster — the multi-process execution shape, minus the
	// process boundary. Every mode must reproduce the all-local chan
	// cluster's result bit for bit.
	const n, ranks = 240, 4
	_, refPlan := buildFixture(t, n, ranks)
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(i+2)
	}
	refCl, err := core.NewCluster(refPlan, core.WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer refCl.Close()

	addr := freeAddr(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	splits := [][2]int{{0, 2}, {2, 4}}
	clusters := make([]*core.Cluster, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, s := range splits {
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			_, plan := buildFixture(t, n, ranks)
			clusters[i], errs[i] = core.NewCluster(plan,
				core.WithThreads(2),
				core.WithTransport(&tcpmpi.Transport{Addr: addr, Coordinate: i == 0, RankLo: lo, RankHi: hi}),
				core.WithDialContext(ctx))
		}(i, s[0], s[1])
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cluster %d: %v", i, err)
		}
	}
	defer func() {
		for _, cl := range clusters {
			cl.Close()
		}
	}()
	if lr := clusters[1].LocalRanks(); len(lr) != 2 || lr[0] != 2 || lr[1] != 3 {
		t.Fatalf("worker cluster LocalRanks = %v, want [2 3]", lr)
	}

	want := make([]float64, n)
	for _, mode := range core.Modes {
		if err := refCl.SetMode(mode); err != nil {
			t.Fatal(err)
		}
		if err := refCl.Mul(want, x, 1); err != nil {
			t.Fatal(err)
		}
		// SPMD: both endpoint clusters run the same Mul concurrently;
		// each fills the rows of its local ranks.
		ys := make([][]float64, 2)
		mulErrs := make([]error, 2)
		var mw sync.WaitGroup
		for i, cl := range clusters {
			mw.Add(1)
			go func(i int, cl *core.Cluster) {
				defer mw.Done()
				if err := cl.SetMode(mode); err != nil {
					mulErrs[i] = err
					return
				}
				ys[i] = make([]float64, n)
				mulErrs[i] = cl.Mul(ys[i], x, 1)
			}(i, cl)
		}
		mw.Wait()
		for i, err := range mulErrs {
			if err != nil {
				t.Fatalf("mode %v cluster %d: %v", mode, i, err)
			}
		}
		for i, cl := range clusters {
			for _, r := range cl.LocalRanks() {
				rg := cl.Plan().Ranks[r].Rows
				for row := rg.Lo; row < rg.Hi; row++ {
					if ys[i][row] != want[row] {
						t.Fatalf("mode %v row %d: tcp %v != chan %v", mode, row, ys[i][row], want[row])
					}
				}
			}
		}
	}
}

func TestDistCGOverTCPBitIdenticalInProcess(t *testing.T) {
	// Full DistCG across two TCP endpoints (in-process variant of the
	// examples/tcp proof; proc_test.go runs it across real OS processes):
	// iteration counts, residuals and the solution rows of each endpoint
	// must match the all-local chan-transport solve bit for bit.
	const n, ranks = 180, 4
	// SPD fixture, rebuilt identically per endpoint — exactly as two real
	// worker processes would construct it from the shared configuration.
	spdPlan := func() (*matrix.CSR, *core.Plan) {
		g, err := genmat.NewRandomBand(genmat.RandomBandConfig{
			N: n, Bandwidth: n / 3, PerRow: 5, Seed: 12345, Symmetric: true, SPD: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		sa := matrix.Materialize(g)
		plan, err := core.BuildPlan(sa, core.PartitionByNnz(sa, ranks), true)
		if err != nil {
			t.Fatal(err)
		}
		return sa, plan
	}
	a, refPlan := spdPlan()
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = float64((i*7)%13) / 13
	}
	b := make([]float64, n)
	a.MulVec(b, xTrue)
	refCl, err := core.NewCluster(refPlan, core.WithThreads(2), core.WithMode(core.TaskMode))
	if err != nil {
		t.Fatal(err)
	}
	defer refCl.Close()
	xRef := make([]float64, n)
	resRef, err := solver.DistCG(refCl, b, xRef, 1e-10, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !resRef.Converged {
		t.Fatalf("reference CG did not converge (residual %g)", resRef.Residual)
	}

	addr := freeAddr(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	splits := [][2]int{{0, 2}, {2, 4}}
	type out struct {
		x   []float64
		res solver.CGResult
		cl  *core.Cluster
		err error
	}
	outs := make([]out, 2)
	var wg sync.WaitGroup
	for i, s := range splits {
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			o := &outs[i]
			_, plan := spdPlan()
			cl, err := core.NewCluster(plan,
				core.WithThreads(2),
				core.WithMode(core.TaskMode),
				core.WithTransport(&tcpmpi.Transport{Addr: addr, Coordinate: i == 0, RankLo: lo, RankHi: hi}),
				core.WithDialContext(ctx))
			if err != nil {
				o.err = err
				return
			}
			o.cl = cl
			o.x = make([]float64, n)
			o.res, o.err = solver.DistCG(cl, b, o.x, 1e-10, 2000)
		}(i, s[0], s[1])
	}
	wg.Wait()
	defer func() {
		for _, o := range outs {
			if o.cl != nil {
				o.cl.Close()
			}
		}
	}()
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("endpoint %d: %v", i, o.err)
		}
		if o.res.Iterations != resRef.Iterations || o.res.Residual != resRef.Residual {
			t.Fatalf("endpoint %d: iterations %d residual %v, reference %d %v",
				i, o.res.Iterations, o.res.Residual, resRef.Iterations, resRef.Residual)
		}
		for _, r := range o.cl.LocalRanks() {
			rg := o.cl.Plan().Ranks[r].Rows
			for row := rg.Lo; row < rg.Hi; row++ {
				if o.x[row] != xRef[row] {
					t.Fatalf("endpoint %d row %d: tcp %v != chan %v", i, row, o.x[row], xRef[row])
				}
			}
		}
	}
}
