package tcpmpi_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tcpmpi"
)

// TestAllocGatePostedReceiveFastPath pins the posted-receive fast path of
// the wire transport on a two-process loopback world (both endpoints in
// this test process, real TCP in between): once a persistent receive is
// posted, the reader goroutine reads an arriving frame's payload DIRECTLY
// into the bound user buffer — no intermediate buffer, no per-message
// request or carrier — so a steady-state ping round allocates nothing on
// either endpoint. testing.AllocsPerRun counts mallocs process-wide, so
// the sender's frame path and the receiver's reader goroutine are both
// inside the measurement.
func TestAllocGatePostedReceiveFastPath(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

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
			worlds[i], errs[i] = tr.Dial(ctx, 2)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("endpoint %d: %v", i, err)
		}
	}
	defer func() {
		for _, w := range worlds {
			w.Close()
		}
	}()
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
	for i := range out {
		out[i] = float64(i) * 0.5
	}
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

	// One round: rank 1 posts, rank 0 sends, rank 1 waits the payload and
	// acks, rank 0 waits the ack — so by the end of the measured function
	// every frame of the round has been fully processed by both readers.
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
	// Warm the socket buffers, the writev iovec cache and mailbox capacities.
	for i := 0; i < 5; i++ {
		round()
	}
	if in[100] != out[100] {
		t.Fatal("payload not delivered")
	}
	allocs := testing.AllocsPerRun(50, round)
	if allocs != 0 {
		t.Fatalf("posted-receive round allocates %.2f objects per message round, want 0", allocs)
	}

	// The tree collectives ride the same machinery — persistent channels
	// on the static tree edges plus resident per-comm scratch — so a
	// steady-state scalar reduction round must be allocation-free too.
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
		t.Fatalf("scalar allreduce round allocates %.2f objects per round, want 0", allocs)
	}
}

// TestAllocGateUnmatchedIsend: a one-shot Isend to a rank in the other
// process writes one frame, and the peer's reader, with no receive posted
// yet, reads it into a recycled carrier that a persistent receive's Start
// then drains (or, if the Start wins the race, straight into the posted
// receive). Either way, once warm, a round allocates nothing on either
// endpoint.
func TestAllocGateUnmatchedIsend(t *testing.T) {
	worlds := dialSplit(t, 2, [][2]int{{0, 1}, {1, 2}})
	cs := comms(t, worlds, 2)
	for _, n := range []int{1, 14838} { // one scalar; one HMeP Small halo
		out := make([]float64, n)
		in := make([]float64, n)
		recv, err := cs[1].RecvInit(0, 5, in)
		if err != nil {
			t.Fatal(err)
		}
		round := func() {
			out[n-1]++
			if _, err := cs[0].Isend(1, 5, out); err != nil {
				t.Fatal(err)
			}
			if err := recv.Start(); err != nil {
				t.Fatal(err)
			}
			if err := recv.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			round()
		}
		if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
			t.Fatalf("%d-element unmatched Isend allocates %.2f objects per round, want 0", n, allocs)
		}
		if in[n-1] != out[n-1] {
			t.Fatalf("%d-element Isend delivered %v, want %v", n, in[n-1], out[n-1])
		}
	}
}

// TestAllocGateScalarAllreduceTwoProcs pins the two-level collective at
// zero steady-state allocations per round: five ranks in two processes,
// [0,3) and [3,5), with the collective deadline armed, so every round
// runs the local phase, one leader edge each way and the resident
// deadline timers of the waiting ranks.
func TestAllocGateScalarAllreduceTwoProcs(t *testing.T) {
	const ranks = 5
	worlds := dialSplitWith(t, ranks, [][2]int{{0, 3}, {3, 5}}, func(_ int, tr *tcpmpi.Transport) {
		tr.CollectiveTimeout = 10 * time.Second
	})
	cs := comms(t, worlds, ranks)
	// Lockstep rounds driven from goroutines; the measured function runs
	// whole rounds, so every participant's allocations land inside it.
	start := make(chan struct{})
	done := make(chan float64, ranks-1)
	stop := make(chan struct{})
	for r := 1; r < ranks; r++ {
		go func(c core.Comm) {
			for {
				select {
				case <-stop:
					return
				case <-start:
				}
				v, err := c.AllreduceScalar(core.OpSum, 1)
				if err != nil {
					v = -1
				}
				done <- v
			}
		}(cs[r])
	}
	defer close(stop)
	round := func() {
		for r := 1; r < ranks; r++ {
			start <- struct{}{}
		}
		v, err := cs[0].AllreduceScalar(core.OpSum, 1)
		if err != nil {
			t.Fatal(err)
		}
		if v != ranks {
			t.Fatalf("sum = %g, want %d", v, ranks)
		}
		for r := 1; r < ranks; r++ {
			if got := <-done; got != ranks {
				t.Fatalf("peer sum = %g, want %d", got, ranks)
			}
		}
	}
	for i := 0; i < 10; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("scalar allreduce allocates %.1f objects per round, want 0", allocs)
	}
}
