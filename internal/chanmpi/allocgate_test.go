package chanmpi

import (
	"testing"
)

// The AllocGate tests pin the steady-state zero-allocation contract of the
// persistent-channel path (doc.go "Steady-state performance contract").
// CI runs them as a dedicated step (go test -run AllocGate ./...), so a
// regression — a request object per message, a fresh payload copy per
// frame — fails fast rather than surfacing as a slow benchmark drift.

// TestAllocGateHaloExchangePersistent drives a two-rank bidirectional
// exchange — the shape of one halo iteration: post both receives, start
// both sends, wait both receives — over persistent channels and asserts
// the steady state allocates nothing per round.
func TestAllocGateHaloExchangePersistent(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c0, err := w.Comm(0)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := w.Comm(1)
	if err != nil {
		t.Fatal(err)
	}

	const n = 64
	out0, out1 := make([]float64, n), make([]float64, n)
	in0, in1 := make([]float64, n), make([]float64, n)
	for i := range out0 {
		out0[i] = float64(i)
		out1[i] = float64(-i)
	}
	send0, err := c0.SendInit(1, 0, out0)
	if err != nil {
		t.Fatal(err)
	}
	send1, err := c1.SendInit(0, 0, out1)
	if err != nil {
		t.Fatal(err)
	}
	recv0, err := c0.RecvInit(1, 0, in0)
	if err != nil {
		t.Fatal(err)
	}
	recv1, err := c1.RecvInit(0, 0, in1)
	if err != nil {
		t.Fatal(err)
	}

	round := func() {
		if err := recv0.Start(); err != nil {
			t.Fatal(err)
		}
		if err := recv1.Start(); err != nil {
			t.Fatal(err)
		}
		if err := send0.Start(); err != nil {
			t.Fatal(err)
		}
		if err := send1.Start(); err != nil {
			t.Fatal(err)
		}
		if err := recv0.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := recv1.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	round() // steady the mailbox slice capacities
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("persistent halo exchange allocates %.1f objects per round, want 0", allocs)
	}
	if in0[3] != out1[3] || in1[3] != out0[3] {
		t.Fatal("exchange delivered wrong data")
	}
}

// TestAllocGateHaloExchangeUnmatchedSend covers the other steady-state
// order — the send fires before the receive is posted, staging through the
// persistent send's resident copy — which must be allocation-free too.
func TestAllocGateHaloExchangeUnmatchedSend(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)

	const n = 32
	out := make([]float64, n)
	in := make([]float64, n)
	send, err := c0.SendInit(1, 3, out)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := c1.RecvInit(0, 3, in)
	if err != nil {
		t.Fatal(err)
	}
	round := func() {
		if err := send.Start(); err != nil { // buffers into the staging copy
			t.Fatal(err)
		}
		if err := recv.Start(); err != nil { // matches the buffered message
			t.Fatal(err)
		}
		if err := recv.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("unmatched-send persistent exchange allocates %.1f objects per round, want 0", allocs)
	}
}

// TestAllocGateUnmatchedIsend covers a one-shot Isend that finds no posted
// receive: the payload is buffered through the destination mailbox's
// recycled carriers and the returned request is a zero-size value, so once
// the carriers are warm the send allocates nothing. A persistent receive
// drains each message.
func TestAllocGateUnmatchedIsend(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	for _, n := range []int{1, 14838} { // one scalar; one HMeP Small halo
		out := make([]float64, n)
		in := make([]float64, n)
		recv, err := c1.RecvInit(0, 5, in)
		if err != nil {
			t.Fatal(err)
		}
		round := func() {
			out[n-1]++
			if _, err := c0.Isend(1, 5, out); err != nil { // buffers into a carrier
				t.Fatal(err)
			}
			if err := recv.Start(); err != nil { // matches the buffered message
				t.Fatal(err)
			}
			if err := recv.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		round()
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Fatalf("%d-element unmatched Isend allocates %.1f objects per round, want 0", n, allocs)
		}
		if in[n-1] != out[n-1] {
			t.Fatalf("%d-element Isend delivered %v, want %v", n, in[n-1], out[n-1])
		}
	}
}

// TestAllocGateScalarAllreduce pins the scalar reduction — the per-
// iteration dot products of the distributed solvers — at zero steady-state
// allocations per round on a multi-rank world.
func TestAllocGateScalarAllreduce(t *testing.T) {
	const ranks = 4
	w, err := NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cs := make([]*Comm, ranks)
	for r := range cs {
		if cs[r], err = w.Comm(r); err != nil {
			t.Fatal(err)
		}
	}
	// Lockstep rounds driven from goroutines; the measured function runs
	// whole rounds, so every participant's allocations land inside it.
	start := make(chan struct{})
	done := make(chan float64, ranks-1)
	stop := make(chan struct{})
	for r := 1; r < ranks; r++ {
		go func(c *Comm) {
			for {
				select {
				case <-stop:
					return
				case <-start:
				}
				v, err := c.AllreduceScalar(OpSum, 1)
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
		v, err := cs[0].AllreduceScalar(OpSum, 1)
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
	round()
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("scalar allreduce allocates %.1f objects per round, want 0", allocs)
	}
}
