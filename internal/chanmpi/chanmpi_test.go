package chanmpi

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestWorld builds a world or fails the test.
func newTestWorld(t *testing.T, size int) *World {
	t.Helper()
	w, err := NewWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// run executes body on every rank and fails the test on a world error.
func run(t *testing.T, w *World, body func(c *Comm) error) {
	t.Helper()
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
}

func TestPingPong(t *testing.T) {
	w := newTestWorld(t, 2)
	run(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := send(c, 1, 7, []float64{1, 2, 3}); err != nil {
				return err
			}
			buf := make([]float64, 3)
			n, err := recv(c, 1, 8, buf)
			if err != nil {
				return err
			}
			if n != 3 || buf[0] != 2 || buf[1] != 4 || buf[2] != 6 {
				t.Errorf("rank 0 got %v (n=%d)", buf, n)
			}
		} else {
			buf := make([]float64, 3)
			if _, err := recv(c, 0, 7, buf); err != nil {
				return err
			}
			for i := range buf {
				buf[i] *= 2
			}
			if err := send(c, 0, 8, buf); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestBlockingSendRecvHelpers(t *testing.T) {
	// Direct coverage of the blocking helpers: short messages report their
	// true element count, misuse surfaces as typed errors, and a truncated
	// blocking receive returns the truncation instead of panicking.
	t.Run("count", func(t *testing.T) {
		w := newTestWorld(t, 2)
		run(t, w, func(c *Comm) error {
			if c.Rank() == 0 {
				return send(c, 1, 0, []float64{9, 8})
			}
			buf := make([]float64, 5) // roomier than the message
			n, err := recv(c, 0, 0, buf)
			if err != nil {
				return err
			}
			if n != 2 || buf[0] != 9 || buf[1] != 8 {
				t.Errorf("Recv got n=%d buf=%v, want n=2 [9 8 ...]", n, buf)
			}
			return nil
		})
	})
	t.Run("invalid-rank", func(t *testing.T) {
		w := newTestWorld(t, 2)
		c, err := w.Comm(0)
		if err != nil {
			t.Fatal(err)
		}
		var rankErr *RankError
		if err := send(c, 7, 0, []float64{1}); !errors.As(err, &rankErr) {
			t.Errorf("Send to invalid rank returned %v, want *RankError", err)
		}
		if _, err := recv(c, -1, 0, make([]float64, 1)); !errors.As(err, &rankErr) {
			t.Errorf("Recv from invalid rank returned %v, want *RankError", err)
		}
	})
	t.Run("truncation", func(t *testing.T) {
		w := newTestWorld(t, 2)
		err := w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				return send(c, 1, 0, []float64{1, 2, 3})
			}
			_, err := recv(c, 0, 0, make([]float64, 1))
			return err
		})
		var trunc *TruncationError
		if !errors.As(err, &trunc) {
			t.Fatalf("truncated blocking Recv: got %v, want *TruncationError", err)
		}
	})
}

func TestIrecvBeforeIsend(t *testing.T) {
	w := newTestWorld(t, 2)
	run(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := make([]float64, 4)
			req, err := c.Irecv(1, 1, buf)
			if err != nil {
				return err
			}
			if req.Done() {
				t.Error("receive complete before matching send")
			}
			if err := req.Wait(); err != nil {
				return err
			}
			if buf[0] != 5 || buf[1] != 6 {
				t.Errorf("got %v", buf[:2])
			}
		} else {
			time.Sleep(10 * time.Millisecond) // let the receive post first
			req, err := c.Isend(0, 1, []float64{5, 6})
			if err != nil {
				return err
			}
			return req.Wait()
		}
		return nil
	})
}

func TestMessageOrderingSameTag(t *testing.T) {
	// Non-overtaking: two messages with the same (src, tag) arrive in
	// posting order.
	w := newTestWorld(t, 2)
	run(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			if _, err := c.Isend(1, 3, []float64{1}); err != nil {
				return err
			}
			if _, err := c.Isend(1, 3, []float64{2}); err != nil {
				return err
			}
		} else {
			a := make([]float64, 1)
			b := make([]float64, 1)
			ra, err := c.Irecv(0, 3, a)
			if err != nil {
				return err
			}
			rb, err := c.Irecv(0, 3, b)
			if err != nil {
				return err
			}
			if err := waitall(ra, rb); err != nil {
				return err
			}
			if a[0] != 1 || b[0] != 2 {
				t.Errorf("message overtaking: got %v then %v", a[0], b[0])
			}
		}
		return nil
	})
}

func TestTagSelectivity(t *testing.T) {
	w := newTestWorld(t, 2)
	run(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			if _, err := c.Isend(1, 10, []float64{10}); err != nil {
				return err
			}
			if _, err := c.Isend(1, 20, []float64{20}); err != nil {
				return err
			}
		} else {
			b20 := make([]float64, 1)
			b10 := make([]float64, 1)
			// Receive tag 20 first even though tag 10 was sent first.
			if _, err := recv(c, 0, 20, b20); err != nil {
				return err
			}
			if _, err := recv(c, 0, 10, b10); err != nil {
				return err
			}
			if b20[0] != 20 || b10[0] != 10 {
				t.Errorf("tag matching wrong: %v %v", b20[0], b10[0])
			}
		}
		return nil
	})
}

func TestSendBufferReusableImmediately(t *testing.T) {
	w := newTestWorld(t, 2)
	run(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{42}
			if _, err := c.Isend(1, 0, buf); err != nil {
				return err
			}
			buf[0] = 0 // buffered semantics: mutation after Isend is safe
			return c.Barrier()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		got := make([]float64, 1)
		if _, err := recv(c, 0, 0, got); err != nil {
			return err
		}
		if got[0] != 42 {
			t.Errorf("got %v, want 42 (send not buffered)", got[0])
		}
		return nil
	})
}

func TestTruncationReturnsError(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			_, err := c.Isend(1, 0, []float64{1, 2, 3})
			return err
		}
		_, err := recv(c, 0, 0, make([]float64, 1))
		return err
	})
	var trunc *TruncationError
	if !errors.As(err, &trunc) {
		t.Fatalf("truncated receive: got %v, want *TruncationError", err)
	}
	if trunc.Len != 3 || trunc.Cap != 1 {
		t.Errorf("truncation recorded %d into %d, want 3 into 1", trunc.Len, trunc.Cap)
	}
}

// TestTruncationFailsWorldCleanly checks that a truncated exchange errors
// out of Run on the affected ranks while the destination mailbox stays
// usable: a bystander rank touching the same mailbox afterwards observes
// the failed world instead of deadlocking on a poisoned lock.
func TestTruncationFailsWorldCleanly(t *testing.T) {
	runCase := func(t *testing.T, body func(c *Comm, posted, attempted chan struct{}) error) {
		t.Helper()
		posted := make(chan struct{})
		attempted := make(chan struct{})
		result := make(chan error, 1)
		w := newTestWorld(t, 3)
		go func() {
			result <- w.Run(func(c *Comm) error { return body(c, posted, attempted) })
		}()
		select {
		case err := <-result:
			var trunc *TruncationError
			if !errors.As(err, &trunc) {
				t.Fatalf("world did not fail with a truncation error: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("world deadlocked after truncation")
		}
	}

	t.Run("recv-posted-first", func(t *testing.T) {
		// Truncation is detected inside the sender's Isend.
		runCase(t, func(c *Comm, posted, attempted chan struct{}) error {
			switch c.Rank() {
			case 0:
				<-posted
				defer close(attempted)
				_, err := c.Isend(1, 0, make([]float64, 8))
				return err
			case 1:
				req, err := c.Irecv(0, 0, make([]float64, 3))
				if err != nil {
					return err
				}
				close(posted)
				return req.Wait() // observes the same failure
			default:
				// Bystander: must still get through rank 1's mailbox after
				// the failed delivery released its lock. On the now-failed
				// world the send reports a WorldError rather than wedging.
				<-attempted
				_, err := c.Isend(1, 1, []float64{1})
				return err
			}
		})
	})

	t.Run("send-buffered-first", func(t *testing.T) {
		// Truncation is detected inside the receiver's Irecv.
		runCase(t, func(c *Comm, posted, attempted chan struct{}) error {
			switch c.Rank() {
			case 0:
				_, err := c.Isend(1, 0, make([]float64, 8))
				close(posted)
				return err
			case 1:
				<-posted
				defer close(attempted)
				_, err := c.Irecv(0, 0, make([]float64, 3))
				return err
			default:
				<-attempted
				_, err := c.Isend(1, 1, []float64{1})
				return err
			}
		})
	})
}

// TestFailedRankFailsWorldCleanly is the regression test of the v2 failure
// contract: a rank that errors out of Run releases every peer blocked on
// it — in a pending Wait, in Barrier, and in Allreduce — with a
// *WorldError, and Run reports the original cause, not the secondary
// world-failure reports.
func TestFailedRankFailsWorldCleanly(t *testing.T) {
	cause := errors.New("rank 2 exploded")
	w := newTestWorld(t, 4)
	var unwedged atomic.Int64
	result := make(chan error, 1)
	go func() {
		result <- w.Run(func(c *Comm) error {
			switch c.Rank() {
			case 0:
				// Blocked in a receive nobody will ever send.
				req, err := c.Irecv(2, 99, make([]float64, 1))
				if err != nil {
					return err
				}
				err = req.Wait()
				var we *WorldError
				if !errors.As(err, &we) {
					t.Errorf("pending Wait returned %v, want *WorldError", err)
				}
				unwedged.Add(1)
				return err
			case 1:
				err := c.Barrier()
				var we *WorldError
				if !errors.As(err, &we) {
					t.Errorf("blocked Barrier returned %v, want *WorldError", err)
				}
				unwedged.Add(1)
				return err
			case 2:
				time.Sleep(20 * time.Millisecond) // let the peers block first
				return cause
			default:
				_, err := c.AllreduceScalar(OpSum, 1)
				var we *WorldError
				if !errors.As(err, &we) {
					t.Errorf("blocked Allreduce returned %v, want *WorldError", err)
				}
				unwedged.Add(1)
				return err
			}
		})
	}()
	select {
	case err := <-result:
		if !errors.Is(err, cause) && err != cause {
			t.Fatalf("Run returned %v, want the original cause %v", err, cause)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("peers stayed wedged after a rank failed")
	}
	if got := unwedged.Load(); got != 3 {
		t.Fatalf("%d of 3 blocked peers unwedged", got)
	}
	// The failed world refuses further operations with the same cause.
	c, err := w.Comm(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Isend(1, 0, []float64{1}); !errors.Is(err, cause) {
		t.Fatalf("Isend on failed world returned %v, want wrapped cause", err)
	}
}

func TestAllreduceLengthMismatchFailsWorld(t *testing.T) {
	// The offending rank gets the MismatchError; the rank already blocked
	// in the round gets a WorldError instead of wedging; Run reports the
	// mismatch as the primary cause.
	w := newTestWorld(t, 2)
	result := make(chan error, 1)
	go func() {
		result <- w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				_, err := c.Allreduce(OpSum, []float64{1, 2, 3})
				return err
			}
			time.Sleep(10 * time.Millisecond) // rank 0 opens the round
			_, err := c.Allreduce(OpSum, []float64{1})
			var mm *MismatchError
			if !errors.As(err, &mm) {
				t.Errorf("mismatched rank got %v, want *MismatchError", err)
			}
			return err
		})
	}()
	select {
	case err := <-result:
		var mm *MismatchError
		if !errors.As(err, &mm) {
			t.Fatalf("Run returned %v, want *MismatchError", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("world deadlocked on Allreduce length mismatch")
	}
}

func TestWorldClose(t *testing.T) {
	w := newTestWorld(t, 2)
	c, err := w.Comm(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := c.Isend(1, 0, []float64{1}); !errors.Is(err, ErrWorldClosed) {
		t.Errorf("Isend on closed world returned %v, want ErrWorldClosed", err)
	}
	if err := c.Barrier(); !errors.Is(err, ErrWorldClosed) {
		t.Errorf("Barrier on closed world returned %v, want ErrWorldClosed", err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const ranks = 8
	w := newTestWorld(t, ranks)
	var before, after int64
	run(t, w, func(c *Comm) error {
		atomic.AddInt64(&before, 1)
		if err := c.Barrier(); err != nil {
			return err
		}
		if atomic.LoadInt64(&before) != ranks {
			t.Error("barrier released before all ranks arrived")
		}
		atomic.AddInt64(&after, 1)
		return nil
	})
	if after != ranks {
		t.Errorf("after = %d, want %d", after, ranks)
	}
}

func TestBarrierReusable(t *testing.T) {
	const ranks, rounds = 5, 50
	w := newTestWorld(t, ranks)
	var counter int64
	run(t, w, func(c *Comm) error {
		for round := 0; round < rounds; round++ {
			atomic.AddInt64(&counter, 1)
			if err := c.Barrier(); err != nil {
				return err
			}
			want := int64((round + 1) * ranks)
			if atomic.LoadInt64(&counter) != want {
				t.Errorf("round %d: counter %d, want %d", round, counter, want)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestAllreduceSum(t *testing.T) {
	const ranks = 6
	w := newTestWorld(t, ranks)
	run(t, w, func(c *Comm) error {
		got, err := c.AllreduceScalar(OpSum, float64(c.Rank()+1))
		if err != nil {
			return err
		}
		if got != 21 { // 1+2+...+6
			t.Errorf("rank %d: sum = %g, want 21", c.Rank(), got)
		}
		return nil
	})
}

func TestAllreduceMaxMinVector(t *testing.T) {
	const ranks = 4
	w := newTestWorld(t, ranks)
	run(t, w, func(c *Comm) error {
		in := []float64{float64(c.Rank()), -float64(c.Rank())}
		mx, err := c.Allreduce(OpMax, in)
		if err != nil {
			return err
		}
		if mx[0] != 3 || mx[1] != 0 {
			t.Errorf("max = %v", mx)
		}
		mn, err := c.Allreduce(OpMin, in)
		if err != nil {
			return err
		}
		if mn[0] != 0 || mn[1] != -3 {
			t.Errorf("min = %v", mn)
		}
		return nil
	})
}

func TestAllreduceScalarMinMax(t *testing.T) {
	// Direct coverage of the scalar reductions under OpMin/OpMax, including
	// negative values and the single-rank identity case.
	const ranks = 5
	w := newTestWorld(t, ranks)
	run(t, w, func(c *Comm) error {
		v := float64(c.Rank()) - 2 // -2 .. 2
		mx, err := c.AllreduceScalar(OpMax, v)
		if err != nil {
			return err
		}
		if mx != 2 {
			t.Errorf("rank %d: max = %g, want 2", c.Rank(), mx)
		}
		mn, err := c.AllreduceScalar(OpMin, v)
		if err != nil {
			return err
		}
		if mn != -2 {
			t.Errorf("rank %d: min = %g, want -2", c.Rank(), mn)
		}
		return nil
	})
	single := newTestWorld(t, 1)
	run(t, single, func(c *Comm) error {
		for _, op := range []ReduceOp{OpSum, OpMax, OpMin} {
			got, err := c.AllreduceScalar(op, -7.5)
			if err != nil {
				return err
			}
			if got != -7.5 {
				t.Errorf("op %v on single rank: %g, want -7.5", op, got)
			}
		}
		return nil
	})
}

func TestAllreduceRepeated(t *testing.T) {
	const ranks = 3
	w := newTestWorld(t, ranks)
	run(t, w, func(c *Comm) error {
		for round := 1; round <= 30; round++ {
			got, err := c.AllreduceScalar(OpSum, float64(round))
			if err != nil {
				return err
			}
			if math.Abs(got-float64(3*round)) > 0 {
				t.Errorf("round %d: %g", round, got)
			}
		}
		return nil
	})
}

func TestAllgatherInt64(t *testing.T) {
	const ranks = 5
	w := newTestWorld(t, ranks)
	run(t, w, func(c *Comm) error {
		got, err := c.AllgatherInt64(int64(c.Rank() * 10))
		if err != nil {
			return err
		}
		for r := 0; r < ranks; r++ {
			if got[r] != int64(r*10) {
				t.Errorf("gather[%d] = %d", r, got[r])
			}
		}
		return nil
	})
}

func TestManyRanksHaloExchangePattern(t *testing.T) {
	// Ring halo exchange across 16 ranks, 20 iterations — the communication
	// pattern of the distributed SpMV.
	const ranks, iters = 16, 20
	w := newTestWorld(t, ranks)
	run(t, w, func(c *Comm) error {
		left := (c.Rank() + ranks - 1) % ranks
		right := (c.Rank() + 1) % ranks
		val := float64(c.Rank())
		for it := 0; it < iters; it++ {
			fromLeft := make([]float64, 1)
			fromRight := make([]float64, 1)
			rl, err := c.Irecv(left, 100+it, fromLeft)
			if err != nil {
				return err
			}
			rr, err := c.Irecv(right, 100+it, fromRight)
			if err != nil {
				return err
			}
			if _, err := c.Isend(left, 100+it, []float64{val}); err != nil {
				return err
			}
			if _, err := c.Isend(right, 100+it, []float64{val}); err != nil {
				return err
			}
			if err := waitall(rl, rr); err != nil {
				return err
			}
			val = (fromLeft[0] + fromRight[0]) / 2
		}
		// Averaging converges toward the global mean (7.5).
		if val < 0 || val > float64(ranks) {
			t.Errorf("rank %d diverged: %g", c.Rank(), val)
		}
		return nil
	})
}

func TestRunConvertsPanicToError(t *testing.T) {
	w := newTestWorld(t, 3)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("rank panic not reported: %v", err)
	}
}

func TestInvalidRanks(t *testing.T) {
	w := newTestWorld(t, 2)
	c, err := w.Comm(0)
	if err != nil {
		t.Fatal(err)
	}
	var rankErr *RankError
	if _, err := c.Isend(5, 0, nil); !errors.As(err, &rankErr) {
		t.Errorf("Isend: got %v, want *RankError", err)
	}
	if _, err := c.Irecv(-1, 0, nil); !errors.As(err, &rankErr) {
		t.Errorf("Irecv: got %v, want *RankError", err)
	}
	if _, err := w.Comm(9); !errors.As(err, &rankErr) {
		t.Errorf("Comm: got %v, want *RankError", err)
	}
	if _, err := NewWorld(0); err == nil {
		t.Error("NewWorld(0): no error")
	}
}

func TestNilRequestWait(t *testing.T) {
	var typed *request
	if typed.Wait() != nil || !typed.Done() {
		t.Error("nil request should be trivially complete")
	}
	var iface Request
	if err := waitall(iface, typed); err != nil { // nil interface and typed nil both trivially complete
		t.Errorf("Waitall of nil requests: %v", err)
	}
}

// BenchmarkAllreduceLocal is one scalar allreduce on every rank of an
// all-local five-rank world.
func BenchmarkAllreduceLocal(b *testing.B) {
	const ranks = 5
	w, err := NewWorld(ranks)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.ReportAllocs()
	if err := w.Run(func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if _, err := c.AllreduceScalar(OpSum, float64(c.Rank())); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
}

// Run spawns one goroutine per rank executing body and blocks until all
// ranks return. A rank that returns an error (or panics; panics are
// recovered into errors) fails the world, so peers blocked on it unwedge
// with a *WorldError instead of deadlocking. Run returns the primary
// failure: the first rank error that is not itself a secondary
// world-failure report. Every rank must be local.
func (w *World) Run(body func(c *Comm) error) error {
	var wg sync.WaitGroup
	errs := make([]error, w.size)
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("chanmpi: rank %d panicked: %v", r, p)
				}
				if errs[r] != nil {
					w.Fail(errs[r])
				}
			}()
			errs[r] = body(&Comm{world: w, rank: r})
		}(r)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var we *WorldError
		if !errors.As(err, &we) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// send is a blocking send (trivially complete under buffered semantics).
func send(c *Comm, dst, tag int, data []float64) error {
	req, err := c.Isend(dst, tag, data)
	if err != nil {
		return err
	}
	return req.Wait()
}

// recv is a blocking receive; it returns the element count.
func recv(c *Comm, src, tag int, buf []float64) (int, error) {
	req, err := c.Irecv(src, tag, buf)
	if err != nil {
		return 0, err
	}
	if err := req.Wait(); err != nil {
		return 0, err
	}
	return req.(*request).n, nil
}
