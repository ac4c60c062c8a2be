package tcpmpi_test

// The point-to-point conformance table: every real-time transport must
// match, buffer, truncate and fail the same way through core.Comm alone.
// Each case runs on three worlds of four ranks — the in-process chan
// runtime, a tcp pair of two half-worlds ([0,2) and [2,4), so rank 0 → 1 is
// a local delivery and rank 3 → 1 a wire frame), and a tcp world in which
// one process owns every rank — and on both of the sender → receiver links
// below. Each case gets fresh worlds: several of them fail theirs.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tcpmpi"
)

// conformWorld is one transport's four-rank world as the table drives it:
// a communicator per rank and the world that owns each rank.
type conformWorld struct {
	comms []core.Comm
	owner []core.World
}

const conformSize = 4

var conformTransports = []struct {
	name string
	dial func(t *testing.T) conformWorld
}{
	{"chan", func(t *testing.T) conformWorld {
		w, err := core.ChanTransport{}.Dial(context.Background(), conformSize)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		return conformOf(t, []core.World{w})
	}},
	{"tcp-pair", func(t *testing.T) conformWorld {
		return conformOf(t, dialSplit(t, conformSize, [][2]int{{0, 2}, {2, 4}}))
	}},
	{"tcp-single", func(t *testing.T) conformWorld {
		w, err := (&tcpmpi.Transport{Addr: "127.0.0.1:0", Coordinate: true, RankLo: 0, RankHi: conformSize}).
			Dial(context.Background(), conformSize)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		return conformOf(t, []core.World{w})
	}},
}

func conformOf(t *testing.T, worlds []core.World) conformWorld {
	cw := conformWorld{comms: comms(t, worlds, conformSize), owner: make([]core.World, conformSize)}
	for _, w := range worlds {
		for _, r := range w.LocalRanks() {
			cw.owner[r] = w
		}
	}
	return cw
}

// conformLinks are the sender → receiver pairs every case runs on; on the
// tcp pair the first stays inside one process and the second crosses the
// wire.
var conformLinks = []struct {
	name     string
	src, dst int
}{{"0to1", 0, 1}, {"3to1", 3, 1}}

// conformCase checks one behaviour of the link s → d of world w; other is
// a third rank, in the other process from s on the tcp pair.
type conformCase struct {
	name string
	run  func(t *testing.T, w conformWorld, s, d, other int)
}

func TestConformanceP2P(t *testing.T) {
	for _, tr := range conformTransports {
		t.Run(tr.name, func(t *testing.T) {
			for _, cc := range conformCases {
				t.Run(cc.name, func(t *testing.T) {
					for _, l := range conformLinks {
						t.Run(l.name, func(t *testing.T) {
							cc.run(t, tr.dial(t), l.src, l.dst, 3-l.src)
						})
					}
				})
			}
		})
	}
}

// wait waits for req within a bound, so a wedge fails the test instead of
// hanging it.
func wait(t *testing.T, req interface{ Wait() error }) error {
	t.Helper()
	res := make(chan error, 1)
	go func() { res <- req.Wait() }()
	select {
	case err := <-res:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Wait hung")
		return nil
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// edgeBits is n float64s whose bit patterns a value-level copy could fold
// or lose — NaNs with payload and sign bits, ±0, subnormals, ±Inf — then
// random bit patterns.
func edgeBits(seed int64, n int) []float64 {
	v := []float64{
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff4000000000abc),
		0, math.Copysign(0, -1),
		math.Float64frombits(1), math.Float64frombits(0x800fffffffffffff),
		math.Inf(1), math.Inf(-1),
	}
	rng := rand.New(rand.NewSource(seed))
	for len(v) < n {
		v = append(v, math.Float64frombits(rng.Uint64()))
	}
	return v[:n]
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// arrived sends an empty marker s → d under tag and waits for it: frames
// from one source arrive in order, so everything s sent d before it has
// arrived too.
func arrived(t *testing.T, w conformWorld, s, d, tag int) {
	t.Helper()
	_, err := w.comms[s].Isend(d, tag, nil)
	mustOK(t, err)
	req, err := w.comms[d].Irecv(s, tag, nil)
	mustOK(t, err)
	mustOK(t, wait(t, req))
}

// failedWorld asserts that rank r's world has failed: a send refuses with
// a *core.WorldError.
func failedWorld(t *testing.T, w conformWorld, r int) {
	t.Helper()
	var we *core.WorldError
	if _, err := w.comms[r].Isend(r, 99, nil); !errors.As(err, &we) {
		t.Fatalf("rank %d's world still accepts sends (%v), want a *core.WorldError", r, err)
	}
}

var conformCases = []conformCase{
	{"fifo-oneshot-and-persistent-interleaved", func(t *testing.T, w conformWorld, s, d, _ int) {
		const tag = 7
		sc, dc := w.comms[s], w.comms[d]
		sbuf := make([]float64, 1)
		ps, err := sc.SendInit(d, tag, sbuf)
		mustOK(t, err)
		rbuf := make([]float64, 1)
		pr, err := dc.RecvInit(s, tag, rbuf)
		mustOK(t, err)
		next := 0.0
		sendOne := func(persistent bool) {
			next++
			if persistent {
				sbuf[0] = next
				mustOK(t, ps.Start())
				mustOK(t, ps.Wait())
				return
			}
			_, err := sc.Isend(d, tag, []float64{next})
			mustOK(t, err)
		}
		// Receives posted first: a one-shot, then the persistent one.
		one := make([]float64, 1)
		r1, err := dc.Irecv(s, tag, one)
		mustOK(t, err)
		mustOK(t, pr.Start())
		sendOne(true)
		sendOne(false)
		mustOK(t, wait(t, r1))
		mustOK(t, wait(t, pr))
		if one[0] != 1 || rbuf[0] != 2 {
			t.Fatalf("posted first: got %v then %v, want 1 then 2", one[0], rbuf[0])
		}
		// Messages first: four buffered, drained alternately.
		for i := 0; i < 4; i++ {
			sendOne(i%2 == 0)
		}
		arrived(t, w, s, d, tag+1)
		for i, want := range []float64{3, 4, 5, 6} {
			var got float64
			if i%2 == 0 {
				mustOK(t, pr.Start())
				mustOK(t, pr.Wait()) // the message has arrived
				got = rbuf[0]
			} else {
				r, err := dc.Irecv(s, tag, one)
				mustOK(t, err)
				mustOK(t, wait(t, r))
				got = one[0]
			}
			if got != want {
				t.Fatalf("buffered message %d: got %v, want %v", i, got, want)
			}
		}
	}},
	{"tag-and-source-selectivity", func(t *testing.T, w conformWorld, s, d, other int) {
		dc := w.comms[d]
		fromOther, tag5, tag6 := make([]float64, 1), make([]float64, 1), make([]float64, 1)
		rOther, err := dc.Irecv(other, 5, fromOther)
		mustOK(t, err)
		r6, err := dc.Irecv(s, 6, tag6)
		mustOK(t, err)
		r5, err := dc.Irecv(s, 5, tag5)
		mustOK(t, err)
		for _, m := range []struct {
			from, tag int
			v         float64
		}{{s, 5, 50}, {s, 6, 60}, {other, 5, 70}} {
			_, err := w.comms[m.from].Isend(d, m.tag, []float64{m.v})
			mustOK(t, err)
		}
		mustOK(t, wait(t, r5))
		mustOK(t, wait(t, r6))
		mustOK(t, wait(t, rOther))
		if tag5[0] != 50 || tag6[0] != 60 || fromOther[0] != 70 {
			t.Fatalf("got (src, 5)=%v (src, 6)=%v (other, 5)=%v, want 50 60 70", tag5[0], tag6[0], fromOther[0])
		}
	}},
	{"both-posting-orders-bit-for-bit", func(t *testing.T, w conformWorld, s, d, _ int) {
		sc, dc := w.comms[s], w.comms[d]
		for _, n := range []int{1, 8, 511, 3000} {
			want := edgeBits(int64(n), n)
			got := make([]float64, n)
			req, err := dc.Irecv(s, 1, got)
			mustOK(t, err)
			_, err = sc.Isend(d, 1, want)
			mustOK(t, err)
			mustOK(t, wait(t, req))
			if !bitsEqual(got, want) {
				t.Fatalf("n=%d, receive posted first: bits differ", n)
			}

			_, err = sc.Isend(d, 2, want)
			mustOK(t, err)
			arrived(t, w, s, d, 3)
			got = make([]float64, n)
			req, err = dc.Irecv(s, 2, got)
			mustOK(t, err)
			mustOK(t, wait(t, req))
			if !bitsEqual(got, want) {
				t.Fatalf("n=%d, receive posted after arrival: bits differ", n)
			}
		}
	}},
	{"truncation-receive-posted-first", func(t *testing.T, w conformWorld, s, d, _ int) {
		buf := []float64{-7, -7}
		req, err := w.comms[d].Irecv(s, 5, buf)
		mustOK(t, err)
		// A local delivery finds the truncation in the send, a wire frame
		// in the receiver; either way the receive reports it.
		_, serr := w.comms[s].Isend(d, 5, []float64{1, 2, 3, 4})
		var trunc *core.TruncationError
		if serr != nil && !errors.As(serr, &trunc) {
			t.Fatalf("send got %v, want nil or a *core.TruncationError", serr)
		}
		if err := wait(t, req); !errors.As(err, &trunc) || trunc.Len != 4 || trunc.Cap != 2 {
			t.Fatalf("receive got %v, want a 4-into-2 *core.TruncationError", err)
		}
		if buf[0] != -7 || buf[1] != -7 {
			t.Fatalf("short buffer overwritten: %v", buf)
		}
		failedWorld(t, w, d)
	}},
	{"truncation-message-first", func(t *testing.T, w conformWorld, s, d, _ int) {
		_, err := w.comms[s].Isend(d, 5, []float64{1, 2, 3, 4})
		mustOK(t, err)
		arrived(t, w, s, d, 6)
		buf := []float64{-7, -7}
		req, err := w.comms[d].Irecv(s, 5, buf)
		var trunc *core.TruncationError
		if !errors.As(err, &trunc) || trunc.Len != 4 || trunc.Cap != 2 {
			t.Fatalf("receive got %v, want a 4-into-2 *core.TruncationError", err)
		}
		if req != nil {
			if err := wait(t, req); !errors.As(err, &trunc) {
				t.Fatalf("the truncated request's Wait got %v", err)
			}
		}
		if buf[0] != -7 || buf[1] != -7 {
			t.Fatalf("short buffer overwritten: %v", buf)
		}
		failedWorld(t, w, d)
	}},
	{"in-flight-persistent-receive-refuses-restart", func(t *testing.T, w conformWorld, s, d, _ int) {
		buf := make([]float64, 3)
		pr, err := w.comms[d].RecvInit(s, 4, buf)
		mustOK(t, err)
		mustOK(t, pr.Start())
		//reprolint:ignore persistwait the second Start is the misuse under test
		if err := pr.Start(); err == nil {
			t.Fatal("Start restarted a receive still in flight")
		}
		_, err = w.comms[s].Isend(d, 4, []float64{1, 2, 3})
		mustOK(t, err)
		mustOK(t, pr.Wait())
		if buf[0] != 1 || buf[2] != 3 {
			t.Fatalf("receive after the refused restart got %v", buf)
		}
		// Completed, it restarts.
		mustOK(t, pr.Start())
		_, err = w.comms[s].Isend(d, 4, []float64{4, 5, 6})
		mustOK(t, err)
		mustOK(t, wait(t, pr))
		if buf[0] != 4 {
			t.Fatalf("restarted receive got %v", buf)
		}
	}},
	{"world-failure-wakes-pending-wait", func(t *testing.T, w conformWorld, s, d, _ int) {
		cause := errors.New("conformance: injected failure")
		oneShot, err := w.comms[d].Irecv(s, 8, make([]float64, 1))
		mustOK(t, err)
		pr, err := w.comms[d].RecvInit(s, 9, make([]float64, 1))
		mustOK(t, err)
		mustOK(t, pr.Start())
		waits := make(chan error, 2)
		for _, req := range []interface{ Wait() error }{oneShot, pr} {
			go func() { waits <- req.Wait() }()
		}
		w.owner[d].Fail(cause)
		for range 2 {
			select {
			case err := <-waits:
				var we *core.WorldError
				if !errors.As(err, &we) || !errors.Is(err, cause) {
					t.Fatalf("pending Wait got %v, want a *core.WorldError wrapping the cause", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("world failure left a Wait blocked")
			}
		}
	}},
	{"send-buffer-reusable-on-return", func(t *testing.T, w conformWorld, s, d, _ int) {
		sc, dc := w.comms[s], w.comms[d]
		data := []float64{1, 2}
		_, err := sc.Isend(d, 3, data)
		mustOK(t, err)
		data[0], data[1] = -1, -1
		sbuf := []float64{3, 4}
		ps, err := sc.SendInit(d, 3, sbuf)
		mustOK(t, err)
		mustOK(t, ps.Start())
		mustOK(t, ps.Wait())
		sbuf[0], sbuf[1] = -1, -1
		for _, want := range [][]float64{{1, 2}, {3, 4}} {
			got := make([]float64, 2)
			req, err := dc.Irecv(s, 3, got)
			mustOK(t, err)
			mustOK(t, wait(t, req))
			if got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("got %v, want %v: the sender's later write reached the message", got, want)
			}
		}
	}},
	{"closed-world-reports-ErrWorldClosed", func(t *testing.T, w conformWorld, s, d, _ int) {
		dc := w.comms[d]
		pending, err := dc.Irecv(s, 8, make([]float64, 1))
		mustOK(t, err)
		mustOK(t, w.owner[d].Close())
		if err := wait(t, pending); !errors.Is(err, core.ErrWorldClosed) {
			t.Errorf("pending Wait got %v, want ErrWorldClosed", err)
		}
		if _, err := dc.Isend(s, 8, []float64{1}); !errors.Is(err, core.ErrWorldClosed) {
			t.Errorf("Isend got %v, want ErrWorldClosed", err)
		}
		if _, err := dc.Irecv(s, 8, make([]float64, 1)); !errors.Is(err, core.ErrWorldClosed) {
			t.Errorf("Irecv got %v, want ErrWorldClosed", err)
		}
	}},
}
