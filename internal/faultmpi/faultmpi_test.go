package faultmpi

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
)

// dialPair brings up a 2-rank world over the given transport and returns
// both communicators.
func dialPair(t *testing.T, tr *Transport) (core.World, core.Comm, core.Comm) {
	t.Helper()
	w, err := tr.Dial(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	c0, err := w.Comm(0)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := w.Comm(1)
	if err != nil {
		t.Fatal(err)
	}
	return w, c0, c1
}

func TestDialFailuresThenSuccess(t *testing.T) {
	tr := &Transport{Sched: Schedule{DialFailures: 2}}
	for i := 0; i < 2; i++ {
		if _, err := tr.Dial(context.Background(), 2); err == nil {
			t.Fatalf("dial %d: want injected failure, got success", i+1)
		}
	}
	w, c0, c1 := dialPair(t, tr)
	defer w.Close()
	// The third world is healthy: a round-trip works.
	r, err := c1.Irecv(0, 1, make([]float64, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Isend(1, 1, []float64{42}); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestDropFrame(t *testing.T) {
	tr := &Transport{Sched: Schedule{Frames: []FrameFault{
		{Action: Drop, Src: 0, Dst: 1, Tag: 7},
	}}}
	w, c0, c1 := dialPair(t, tr)
	defer w.Close()

	// The first matching frame vanishes; FIFO matching hands the receiver
	// the SECOND message — no sleeps, the outcome is structural.
	if _, err := c0.Isend(1, 7, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Isend(1, 7, []float64{2}); err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 1)
	r, err := c1.Irecv(0, 7, buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 2 {
		t.Fatalf("receiver got %g, want the second message (2) after the first was dropped", buf[0])
	}
}

func TestDelayFrame(t *testing.T) {
	tr := &Transport{Sched: Schedule{Frames: []FrameFault{
		{Action: Delay, Src: 0, Dst: 1, Tag: 7, Delay: 20 * time.Millisecond},
	}}}
	w, c0, c1 := dialPair(t, tr)
	defer w.Close()

	// Tag 7 is held back; tag 8, sent afterwards, must not be — and the
	// delayed frame must still arrive with its payload intact.
	if _, err := c0.Isend(1, 7, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Isend(1, 8, []float64{2}); err != nil {
		t.Fatal(err)
	}
	fast := make([]float64, 1)
	r8, err := c1.Irecv(0, 8, fast)
	if err != nil {
		t.Fatal(err)
	}
	if err := r8.Wait(); err != nil {
		t.Fatal(err)
	}
	if fast[0] != 2 {
		t.Fatalf("undelayed tag got %g, want 2", fast[0])
	}
	slow := make([]float64, 1)
	r7, err := c1.Irecv(0, 7, slow)
	if err != nil {
		t.Fatal(err)
	}
	if err := r7.Wait(); err != nil {
		t.Fatal(err)
	}
	if slow[0] != 1 {
		t.Fatalf("delayed frame delivered %g, want 1", slow[0])
	}
}

func TestDuplicateFrame(t *testing.T) {
	tr := &Transport{Sched: Schedule{Frames: []FrameFault{
		{Action: Duplicate, Src: 0, Dst: 1, Tag: 7},
	}}}
	w, c0, c1 := dialPair(t, tr)
	defer w.Close()

	if _, err := c0.Isend(1, 7, []float64{5}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		buf := make([]float64, 1)
		r, err := c1.Irecv(0, 7, buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 5 {
			t.Fatalf("copy %d delivered %g, want 5", i+1, buf[0])
		}
	}
}

func TestDropPersistentSend(t *testing.T) {
	tr := &Transport{Sched: Schedule{Frames: []FrameFault{
		{Action: Drop, Src: 0, Dst: 1, Tag: 3},
	}}}
	w, c0, c1 := dialPair(t, tr)
	defer w.Close()

	out := []float64{9}
	in := make([]float64, 1)
	ps, err := c0.SendInit(1, 3, out)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := c1.RecvInit(0, 3, in)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1: the frame is dropped; the sender's Start/Wait still report
	// success (the loss is silent, as on a wire).
	if err := pr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := ps.Start(); err != nil {
		t.Fatal(err)
	}
	if err := ps.Wait(); err != nil {
		t.Fatal(err)
	}
	// Round 2: the schedule is consumed, the channel works again. The
	// receive posted in round 1 is still outstanding and matches now.
	out[0] = 10
	if err := ps.Start(); err != nil {
		t.Fatal(err)
	}
	if err := ps.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := pr.Wait(); err != nil {
		t.Fatal(err)
	}
	if in[0] != 10 {
		t.Fatalf("receiver got %g, want the round-2 payload 10", in[0])
	}
}

func TestKillAtOpFailsWorldAndNamesRank(t *testing.T) {
	tr := &Transport{Sched: Schedule{Kills: []Kill{{Rank: 0, AtOp: 3}}}}
	w, c0, c1 := dialPair(t, tr)
	defer w.Close()

	// Rank 1 blocks on a message rank 0 will never send past its death.
	blocked, err := c1.Irecv(0, 99, make([]float64, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c0.Isend(1, 1, []float64{float64(i)}); err != nil {
			t.Fatalf("op %d: %v", i+1, err)
		}
	}
	_, err = c0.Isend(1, 1, []float64{3})
	var pe *core.PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("third op returned %v, want a *core.PeerError", err)
	}
	if pe.RankLo != 0 || pe.RankHi != 1 || pe.Phase != core.PhaseSend {
		t.Fatalf("suspect = [%d,%d) phase %q, want [0,1) %q", pe.RankLo, pe.RankHi, pe.Phase, core.PhaseSend)
	}
	// The blocked peer unwedges with a world failure whose cause names
	// the killed rank.
	werr := blocked.Wait()
	var we *core.WorldError
	if !errors.As(werr, &we) {
		t.Fatalf("blocked peer got %v, want *core.WorldError", werr)
	}
	if !errors.As(werr, &pe) || pe.RankLo != 0 {
		t.Fatalf("world failure cause %v does not name rank 0", werr)
	}
}

func TestKillConsumedAcrossEpochs(t *testing.T) {
	tr := &Transport{Sched: Schedule{Kills: []Kill{{Rank: 1, AtOp: 1}}}}
	w, c0, c1 := dialPair(t, tr)
	if _, err := c1.Isend(0, 1, []float64{1}); err == nil {
		t.Fatal("epoch 1: scheduled kill did not fire")
	}
	w.Close()

	// Epoch 2: the schedule is spent; the same operation succeeds.
	w2, c0, c1 := dialPair(t, tr)
	defer w2.Close()
	r, err := c0.Irecv(1, 1, make([]float64, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Isend(0, 1, []float64{1}); err != nil {
		t.Fatalf("epoch 2: %v", err)
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestSlowdownWindowDelaysOnlyCoveredFrames(t *testing.T) {
	tr := &Transport{Sched: Schedule{Slowdowns: []Slowdown{
		{Src: 0, Dst: 1, Tag: Any, FromNth: 2, Count: 1, Delay: 50 * time.Millisecond},
	}}}
	w, c0, c1 := dialPair(t, tr)
	defer w.Close()

	// Frames 1 and 3 are outside the [2,3) window and deliver promptly;
	// frame 2 is held for 50ms, so arrival order — and therefore FIFO
	// matching order — is 1, 3, 2. Structural, no racing sleeps.
	for i := 1; i <= 3; i++ {
		if _, err := c0.Isend(1, 7, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []float64
	for i := 0; i < 3; i++ {
		buf := make([]float64, 1)
		r, err := c1.Irecv(0, 7, buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[0])
	}
	want := []float64{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arrival order %v, want %v (only the windowed frame delayed)", got, want)
		}
	}
}

func TestSlowdownAddsDeliveryLatency(t *testing.T) {
	const d = 50 * time.Millisecond
	tr := &Transport{Sched: Schedule{Slowdowns: []Slowdown{
		{Src: 0, Dst: 1, Tag: Any, Delay: d},
	}}}
	w, c0, c1 := dialPair(t, tr)
	defer w.Close()

	buf := make([]float64, 1)
	r, err := c1.Irecv(0, 7, buf)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c0.Isend(1, 7, []float64{4}); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < d*3/4 {
		t.Fatalf("slowed frame arrived after %v, want ≥ %v of injected latency", elapsed, d)
	}
	if buf[0] != 4 {
		t.Fatalf("slowed frame delivered %g, want 4", buf[0])
	}
}

func TestStallBlocksNthStartOnce(t *testing.T) {
	const d = 50 * time.Millisecond
	tr := &Transport{Sched: Schedule{Stalls: []Stall{
		{Src: 0, Dst: 1, Tag: 3, NthStart: 2, Delay: d},
	}}}
	w, c0, c1 := dialPair(t, tr)
	defer w.Close()

	out := []float64{1}
	ps, err := c0.SendInit(1, 3, out)
	if err != nil {
		t.Fatal(err)
	}
	round := func(v float64) time.Duration {
		out[0] = v
		begin := time.Now()
		if err := ps.Start(); err != nil {
			t.Fatal(err)
		}
		blocked := time.Since(begin)
		if err := ps.Wait(); err != nil {
			t.Fatal(err)
		}
		return blocked
	}
	round(1)
	if blocked := round(2); blocked < d*3/4 {
		t.Fatalf("second Start returned after %v, want a synchronous stall ≥ %v", blocked, d)
	}
	// Consumed: the third Start is free again (bounded loosely — this is
	// an upper sanity bound, not a timing assertion).
	if blocked := round(3); blocked > d {
		t.Fatalf("third Start blocked %v: the one-shot stall re-fired", blocked)
	}
	// Every frame delivered intact, in order, despite the stall.
	for want := 1; want <= 3; want++ {
		buf := make([]float64, 1)
		r, err := c1.Irecv(0, 3, buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		if buf[0] != float64(want) {
			t.Fatalf("frame %d delivered %g, want %d", want, buf[0], want)
		}
	}
}
