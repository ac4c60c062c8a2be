package tcpmpi_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tcpmpi"
)

// fakeJoin performs the JSON rendezvous handshake of a worker owning rank
// 1 of a 2-rank world — and nothing more: the returned connection has
// completed the handshake but will never write a frame, modelling a
// process that freezes (or dies) immediately after bring-up.
func fakeJoin(t *testing.T, addr string) net.Conn {
	t.Helper()
	var conn net.Conn
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err = net.Dial("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rendezvous with %s never came up: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Proto 3 join for ranks [1,2) of a 2-rank world; the mesh address is
	// never used in a two-process world.
	if _, err := fmt.Fprintf(conn, `{"proto":3,"size":2,"rank_lo":1,"rank_hi":2,"addr":"127.0.0.1:1"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
		t.Fatalf("reading roster: %v", err)
	}
	return conn
}

// dialCoordinator brings up the local endpoint of a 2-rank world whose
// other process is the fake joiner, and returns the joiner's connection.
func dialCoordinator(t *testing.T, tr *tcpmpi.Transport) (core.World, net.Conn) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var w core.World
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		w, err = tr.Dial(ctx, 2)
	}()
	fake := fakeJoin(t, tr.Addr)
	t.Cleanup(func() { fake.Close() })
	<-done
	if err != nil {
		t.Fatal(err)
	}
	return w, fake
}

// TestHeartbeatDetectsSilentPeer pins the heartbeat detector: a peer that
// completes the handshake and then never writes a frame — a frozen
// process, indistinguishable from a slow one without liveness traffic —
// is declared suspect within the heartbeat timeout, failing the world
// with a *core.PeerError naming its rank range and the heartbeat phase,
// so a receive blocked on it unwedges in bounded time instead of forever.
func TestHeartbeatDetectsSilentPeer(t *testing.T) {
	tr := &tcpmpi.Transport{
		Addr: freeAddr(t), Coordinate: true, RankLo: 0, RankHi: 1,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  60 * time.Millisecond,
	}
	w, _ := dialCoordinator(t, tr)
	defer w.Close()
	c0, err := w.Comm(0)
	if err != nil {
		t.Fatal(err)
	}
	req, err := c0.Irecv(1, 5, make([]float64, 1))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	werr := req.Wait()
	elapsed := time.Since(start)
	var pe *core.PeerError
	if !errors.As(werr, &pe) {
		t.Fatalf("blocked receive returned %v, want a *core.PeerError cause", werr)
	}
	if pe.RankLo != 1 || pe.RankHi != 2 || pe.Phase != core.PhaseHeartbeat {
		t.Fatalf("suspect = [%d,%d) phase %q, want [1,2) %q", pe.RankLo, pe.RankHi, pe.Phase, core.PhaseHeartbeat)
	}
	// Bounded detection: timeout plus a few intervals of slack, not "when
	// the connection happens to die".
	if elapsed > 2*time.Second {
		t.Fatalf("detection took %v, want bounded by the heartbeat timeout", elapsed)
	}
}

// TestCrashedPeerNamedInFrameReadError pins the enriched EOF-without-BYE
// path: a peer whose connection drops with no departure announcement is
// reported as a *core.PeerError naming its rank range in the frame-read
// phase — a crash, attributed, not an anonymous connection loss.
func TestCrashedPeerNamedInFrameReadError(t *testing.T) {
	tr := &tcpmpi.Transport{Addr: freeAddr(t), Coordinate: true, RankLo: 0, RankHi: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var w core.World
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		w, err = tr.Dial(ctx, 2)
	}()
	fake := fakeJoin(t, tr.Addr)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fake.Close() // crash: EOF with no BYE

	c0, err := w.Comm(0)
	if err != nil {
		t.Fatal(err)
	}
	req, err := c0.Irecv(1, 5, make([]float64, 1))
	if err == nil {
		err = req.Wait()
	}
	var pe *core.PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want a *core.PeerError cause", err)
	}
	if pe.RankLo != 1 || pe.RankHi != 2 || pe.Phase != core.PhaseFrameRead {
		t.Fatalf("suspect = [%d,%d) phase %q, want [1,2) %q", pe.RankLo, pe.RankHi, pe.Phase, core.PhaseFrameRead)
	}
}

// TestForgedSourceRankFailsWorld: a peer process may only speak for the
// ranks it owns. The fake joiner owns rank 1 and writes, on its raw
// connection, a well-formed frame that claims to come from rank 0 — the
// coordinator's own rank. The coordinator must not deliver it as rank 0's
// message: the world fails with a frame-read *core.PeerError naming the
// connection's process, ranks [1,2).
func TestForgedSourceRankFailsWorld(t *testing.T) {
	w, fake := dialCoordinator(t, &tcpmpi.Transport{Addr: freeAddr(t), Coordinate: true, RankLo: 0, RankHi: 1})
	defer w.Close()
	c0, err := w.Comm(0)
	if err != nil {
		t.Fatal(err)
	}
	buf := []float64{-1}
	req, err := c0.Irecv(0, 5, buf)
	if err != nil {
		t.Fatal(err)
	}

	// count 1, kind user, src 0, dst 0, tag 5, payload 42.0
	frame := binary.LittleEndian.AppendUint32(nil, 1)
	frame = append(frame, 0)
	for _, v := range []uint32{0, 0, 5} {
		frame = binary.LittleEndian.AppendUint32(frame, v)
	}
	frame = binary.LittleEndian.AppendUint64(frame, math.Float64bits(42))
	if _, err := fake.Write(frame); err != nil {
		t.Fatal(err)
	}

	werr := make(chan error, 1)
	go func() { werr <- req.Wait() }()
	select {
	case err = <-werr:
	case <-time.After(10 * time.Second):
		t.Fatal("forged frame neither delivered nor rejected")
	}
	var pe *core.PeerError
	if !errors.As(err, &pe) || pe.RankLo != 1 || pe.RankHi != 2 || pe.Phase != core.PhaseFrameRead {
		t.Fatalf("got %v, want a frame-read *core.PeerError naming ranks [1,2)", err)
	}
	if buf[0] != -1 {
		t.Fatalf("forged payload delivered: %v", buf[0])
	}
}

// dialLoopbackPair brings up both endpoints of a 2-process world in this
// test process over real TCP, applying mutate to each transport before
// dialing.
func dialLoopbackPair(t *testing.T, mutate func(i int, tr *tcpmpi.Transport)) [2]core.World {
	t.Helper()
	addr := freeAddr(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var worlds [2]core.World
	var errs [2]error
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := &tcpmpi.Transport{Addr: addr, Coordinate: i == 0, RankLo: i, RankHi: i + 1}
			if mutate != nil {
				mutate(i, tr)
			}
			worlds[i], errs[i] = tr.Dial(ctx, 2)
		}(i)
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

// TestCollectiveDeadlineNamesHungRank pins the per-collective deadline:
// rank 0 enters a reduction that rank 1 never joins — the owning process
// is alive (its connection is healthy), just stuck elsewhere, which
// heartbeats cannot see. The tree-edge wait times out and fails the world
// with a *core.PeerError naming rank 1 in the collective phase.
func TestCollectiveDeadlineNamesHungRank(t *testing.T) {
	worlds := dialLoopbackPair(t, func(i int, tr *tcpmpi.Transport) {
		tr.CollectiveTimeout = 100 * time.Millisecond
	})
	c0, err := worlds[0].Comm(0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c0.AllreduceScalar(core.OpSum, 1) // rank 1 never contributes
	var pe *core.PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want a *core.PeerError", err)
	}
	if pe.RankLo != 1 || pe.RankHi != 2 || pe.Phase != core.PhaseCollective {
		t.Fatalf("suspect = [%d,%d) phase %q, want [1,2) %q", pe.RankLo, pe.RankHi, pe.Phase, core.PhaseCollective)
	}
}

// TestCollectiveDeadlineNamesHungLocalRank: five ranks in two processes,
// [0,3) and [3,5), and rank 4 never enters the reduction. Rank 3 waits for
// it inside its own process, under the same deadline as a round edge, and
// names rank 4 — the rank, not only its process. The other process learns
// of it through that failure and reports a *core.PeerError whose ranks
// hold rank 4. Its own deadline is longer, so that the hung rank's process
// is the first to fire.
func TestCollectiveDeadlineNamesHungLocalRank(t *testing.T) {
	worlds := dialSplitWith(t, 5, [][2]int{{0, 3}, {3, 5}}, func(i int, tr *tcpmpi.Transport) {
		tr.CollectiveTimeout = 100 * time.Millisecond
		if i == 0 {
			tr.CollectiveTimeout = 10 * time.Second
		}
	})
	cs := comms(t, worlds, 5)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for r := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[r] = cs[r].AllreduceScalar(core.OpSum, 1) // rank 4 never contributes
		}()
	}
	wg.Wait()
	var pe *core.PeerError
	if !errors.As(errs[3], &pe) || pe.RankLo != 4 || pe.RankHi != 5 || pe.Phase != core.PhaseCollective {
		t.Fatalf("rank 3 got %v, want a *core.PeerError naming [4,5) in phase %q", errs[3], core.PhaseCollective)
	}
	for r := 0; r < 3; r++ {
		if !errors.As(errs[r], &pe) || pe.RankLo > 4 || pe.RankHi <= 4 {
			t.Errorf("rank %d got %v, want a *core.PeerError whose ranks hold rank 4", r, errs[r])
		}
	}
}

// TestHeartbeatKeepsQuietWorldAlive pins the no-false-positive side: two
// healthy endpoints exchanging NO application traffic for many timeout
// spans stay alive (their mutual pings refresh the liveness clocks), and
// the world still works afterwards.
func TestHeartbeatKeepsQuietWorldAlive(t *testing.T) {
	worlds := dialLoopbackPair(t, func(i int, tr *tcpmpi.Transport) {
		tr.HeartbeatInterval = 5 * time.Millisecond
		tr.HeartbeatTimeout = 25 * time.Millisecond
	})
	time.Sleep(300 * time.Millisecond) // 12 timeout spans of silence
	c0, err := worlds[0].Comm(0)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := worlds[1].Comm(1)
	if err != nil {
		t.Fatal(err)
	}
	req, err := c1.Irecv(0, 5, make([]float64, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Isend(1, 5, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := req.Wait(); err != nil {
		t.Fatalf("quiet world died under heartbeats: %v", err)
	}
}

// TestHeartbeatAllocGate re-runs the steady-state alloc discipline with
// heartbeats AND the collective deadline enabled: a ping is one Write of
// the connection's resident header, the liveness clocks
// are two atomics, and the deadline timer is resident per communicator —
// so a persistent send/recv round and a scalar reduction round must stay
// at zero allocations even while the monitor ticks underneath.
func TestHeartbeatAllocGate(t *testing.T) {
	worlds := dialLoopbackPair(t, func(i int, tr *tcpmpi.Transport) {
		tr.HeartbeatInterval = 2 * time.Millisecond
		tr.HeartbeatTimeout = 2 * time.Second
		tr.CollectiveTimeout = 10 * time.Second
	})
	c0, err := worlds[0].Comm(0)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := worlds[1].Comm(1)
	if err != nil {
		t.Fatal(err)
	}

	const n, tag = 256, 9
	out := make([]float64, n)
	in := make([]float64, n)
	ack := make([]float64, 1)
	recv, err := c1.RecvInit(0, tag, in)
	if err != nil {
		t.Fatal(err)
	}
	send, err := c0.SendInit(1, tag, out)
	if err != nil {
		t.Fatal(err)
	}
	ackRecv, err := c0.RecvInit(1, tag+1, ack)
	if err != nil {
		t.Fatal(err)
	}
	ackSend, err := c1.SendInit(0, tag+1, ack)
	if err != nil {
		t.Fatal(err)
	}
	round := func() {
		if err := ackRecv.Start(); err != nil {
			t.Fatal(err)
		}
		if err := recv.Start(); err != nil {
			t.Fatal(err)
		}
		if err := send.Start(); err != nil {
			t.Fatal(err)
		}
		if err := recv.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := ackSend.Start(); err != nil {
			t.Fatal(err)
		}
		if err := ackRecv.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("message round with heartbeats allocates %.2f objects, want 0", allocs)
	}

	redDone := make(chan float64, 1)
	redStart := make(chan struct{})
	redStop := make(chan struct{})
	go func() {
		for {
			select {
			case <-redStop:
				return
			case <-redStart:
			}
			v, err := c1.AllreduceScalar(core.OpSum, 2)
			if err != nil {
				v = -1
			}
			redDone <- v
		}
	}()
	defer close(redStop)
	reduceRound := func() {
		redStart <- struct{}{}
		v, err := c0.AllreduceScalar(core.OpSum, 1)
		if err != nil {
			t.Fatal(err)
		}
		if v != 3 {
			t.Fatalf("allreduce sum = %g, want 3", v)
		}
		if got := <-redDone; got != 3 {
			t.Fatalf("peer allreduce sum = %g, want 3", got)
		}
	}
	for i := 0; i < 5; i++ {
		reduceRound()
	}
	if allocs := testing.AllocsPerRun(50, reduceRound); allocs != 0 {
		t.Fatalf("deadline-bounded allreduce round allocates %.2f objects, want 0", allocs)
	}
}
