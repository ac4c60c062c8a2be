package tcpmpi

// Tests of the read path: a frame's payload goes from the socket straight
// into the receive that will own it — a posted receive claimed under the
// mailbox lock, or a recycled carrier — and every ordering of posts and
// arrivals still delivers the same bits in the same order.

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/core"
)

// rawFrame encodes one frame the way the wire carries it, independently
// of writeFrame.
func rawFrame(kind byte, src, dst, tag int, payload []float64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(src)))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(dst)))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(tag)))
	for _, v := range payload {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// twoProcs is the roster of a two-rank world, one rank per process.
var twoProcs = []procInfo{{RankLo: 0, RankHi: 1}, {RankLo: 1, RankHi: 2}}

// pipeWorld is the endpoint owning rank 1 of a two-rank world whose
// connection to process 0 (rank 0) is one end of a net.Pipe; the test
// plays process 0 on the returned end, byte by byte. A pipe Write returns
// only once the reader has taken every byte, so the test knows how far
// the reader has got.
func pipeWorld(t *testing.T) (*world, core.Comm, net.Conn) {
	t.Helper()
	w, err := newWorld(2, 1, 2, twoProcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	local, peer := net.Pipe()
	p := newPeerConn(local, nil)
	w.conns[0] = p
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.readLoop(0, p)
	}()
	t.Cleanup(func() {
		peer.Close()
		w.Close()
		<-done
	})
	c, err := w.Comm(1)
	if err != nil {
		t.Fatal(err)
	}
	return w, c, peer
}

// send writes b on the test's end of a pipe world.
func send(t *testing.T, peer net.Conn, b []byte) {
	t.Helper()
	if _, err := peer.Write(b); err != nil {
		t.Fatal(err)
	}
}

// awaitErr waits for req and returns its error, failing the test if the
// wait does not end promptly.
func awaitErr(t *testing.T, req interface{ Wait() error }) error {
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

// bitPatterns is n float64s with the bit patterns a value-level copy could
// fold or lose — NaNs with payload and sign bits, ±0, subnormals, ±Inf —
// followed by random bit patterns.
func bitPatterns(seed int64, n int) []float64 {
	v := []float64{
		math.Float64frombits(0x7ff8000000000001),
		math.Float64frombits(0xfff4000000000abc),
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

func sameBits(a, b []float64) bool {
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

// pairComms returns the communicators of the two ranks of a dialPair
// world.
func pairComms(t *testing.T) (c0, c1 core.Comm) {
	t.Helper()
	worlds := dialPair(t, nil)
	c0, err := worlds[0].Comm(0)
	if err != nil {
		t.Fatal(err)
	}
	if c1, err = worlds[1].Comm(1); err != nil {
		t.Fatal(err)
	}
	return c0, c1
}

// TestBothPostingOrdersDeliverBitForBit sends the same payloads over a
// real loopback pair to a receive posted before the frame arrives (read
// straight into it) and to one posted after (read into a carrier, copied
// at the post), at lengths inside and beyond the reader's 4 KB buffer.
func TestBothPostingOrdersDeliverBitForBit(t *testing.T) {
	c0, c1 := pairComms(t)
	for _, n := range []int{1, 8, 511, 3000} {
		want := bitPatterns(int64(n), n)

		got := make([]float64, n)
		req, err := c1.Irecv(0, 1, got)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c0.Isend(1, 1, want); err != nil {
			t.Fatal(err)
		}
		if err := awaitErr(t, req); err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("n=%d, receive posted first: bits differ", n)
		}

		// A marker behind the payload on the same connection: once it is
		// in, the payload has been read into a carrier.
		if _, err := c0.Isend(1, 2, want); err != nil {
			t.Fatal(err)
		}
		if _, err := c0.Isend(1, 3, nil); err != nil {
			t.Fatal(err)
		}
		marker, err := c1.Irecv(0, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := awaitErr(t, marker); err != nil {
			t.Fatal(err)
		}
		got = make([]float64, n)
		req, err = c1.Irecv(0, 2, got)
		if err != nil {
			t.Fatal(err)
		}
		if err := awaitErr(t, req); err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("n=%d, receive posted after arrival: bits differ", n)
		}
	}
}

// TestTruncationInBothPostingOrders: a payload longer than its receive
// fails with a *core.TruncationError whether the receive was posted before
// the frame arrived (decided from the header, before any payload byte is
// read) or after (decided at the post), and the short buffer keeps its
// contents.
func TestTruncationInBothPostingOrders(t *testing.T) {
	long := []float64{1, 2, 3, 4}
	sentinel := func() []float64 { return []float64{-7, -7} }
	untouched := func(buf []float64) bool { return buf[0] == -7 && buf[1] == -7 }

	t.Run("posted first", func(t *testing.T) {
		c0, c1 := pairComms(t)
		buf := sentinel()
		req, err := c1.Irecv(0, 5, buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c0.Isend(1, 5, long); err != nil {
			t.Fatal(err)
		}
		var trunc *core.TruncationError
		if err := awaitErr(t, req); !errors.As(err, &trunc) {
			t.Fatalf("got %v, want a *core.TruncationError", err)
		}
		if !untouched(buf) {
			t.Fatalf("short buffer overwritten: %v", buf)
		}
	})
	t.Run("posted after", func(t *testing.T) {
		c0, c1 := pairComms(t)
		if _, err := c0.Isend(1, 5, long); err != nil {
			t.Fatal(err)
		}
		if _, err := c0.Isend(1, 6, nil); err != nil {
			t.Fatal(err)
		}
		marker, err := c1.Irecv(0, 6, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := awaitErr(t, marker); err != nil {
			t.Fatal(err)
		}
		buf := sentinel()
		_, err = c1.Irecv(0, 5, buf)
		var trunc *core.TruncationError
		if !errors.As(err, &trunc) {
			t.Fatalf("got %v, want a *core.TruncationError", err)
		}
		if !untouched(buf) {
			t.Fatalf("short buffer overwritten: %v", buf)
		}
	})
}

// TestClaimedReceiveCannotRestart stops a frame half way through its
// payload while the reader is reading it into a posted persistent
// receive: Start must refuse to restart the claimed receive, and once the
// rest arrives the receive completes with the payload, bit for bit.
func TestClaimedReceiveCannotRestart(t *testing.T) {
	_, c, peer := pipeWorld(t)
	want := bitPatterns(1, 1000)
	buf := make([]float64, len(want))
	pr, err := c.RecvInit(0, 4, buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.Start(); err != nil {
		t.Fatal(err)
	}
	frame := rawFrame(kindUser, 0, 1, 4, want)
	send(t, peer, frame[:frameHeaderLen])
	send(t, peer, frame[frameHeaderLen:4000])
	//reprolint:ignore persistwait the second Start is the misuse under test
	if err := pr.Start(); err == nil {
		t.Fatal("Start restarted a receive the reader was filling")
	}
	send(t, peer, frame[4000:])
	if err := awaitErr(t, pr); err != nil {
		t.Fatal(err)
	}
	if !sameBits(buf, want) {
		t.Fatal("claimed receive: bits differ")
	}
}

// TestReceivePostedDuringCarrierReadKeepsFIFO: the first of two frames
// with the same (src, tag) arrives with no receive posted and is being
// read into a carrier when a receive is posted. That receive must get the
// first frame and the next receive the second.
func TestReceivePostedDuringCarrierReadKeepsFIFO(t *testing.T) {
	_, c, peer := pipeWorld(t)
	first, second := bitPatterns(2, 700), bitPatterns(3, 700)
	frame := rawFrame(kindUser, 0, 1, 5, first)
	send(t, peer, frame[:frameHeaderLen])
	send(t, peer, frame[frameHeaderLen:3000]) // the reader is in the carrier now
	got1 := make([]float64, 700)
	r1, err := c.Irecv(0, 5, got1)
	if err != nil {
		t.Fatal(err)
	}
	send(t, peer, frame[3000:])
	got2 := make([]float64, 700)
	r2, err := c.Irecv(0, 5, got2)
	if err != nil {
		t.Fatal(err)
	}
	send(t, peer, rawFrame(kindUser, 0, 1, 5, second))
	if err := awaitErr(t, r1); err != nil {
		t.Fatal(err)
	}
	if err := awaitErr(t, r2); err != nil {
		t.Fatal(err)
	}
	if !sameBits(got1, first) || !sameBits(got2, second) {
		t.Fatal("frames with the same (src, tag) overtook each other")
	}
}

// TestPeerClosesMidPayload: a peer whose connection ends half way through
// a payload fails the world with a frame-read *core.PeerError naming it —
// promptly, with no hang — whether the payload was going into a posted
// receive or into a carrier.
func TestPeerClosesMidPayload(t *testing.T) {
	wantPeer := func(t *testing.T, err error) {
		t.Helper()
		var pe *core.PeerError
		if !errors.As(err, &pe) || pe.Phase != core.PhaseFrameRead || pe.RankLo != 0 || pe.RankHi != 1 {
			t.Fatalf("got %v, want a frame-read *core.PeerError naming ranks [0,1)", err)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("got %v, want the short read as its cause", err)
		}
	}
	frame := rawFrame(kindUser, 0, 1, 5, bitPatterns(4, 600))
	t.Run("posted", func(t *testing.T) {
		_, c, peer := pipeWorld(t)
		req, err := c.Irecv(0, 5, make([]float64, 600))
		if err != nil {
			t.Fatal(err)
		}
		send(t, peer, frame[:frameHeaderLen+2000])
		peer.Close()
		wantPeer(t, awaitErr(t, req))
	})
	t.Run("carrier", func(t *testing.T) {
		w, c, peer := pipeWorld(t)
		send(t, peer, frame[:frameHeaderLen+2000])
		peer.Close()
		for deadline := time.Now().Add(10 * time.Second); w.eng.Err() == nil; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("world did not fail")
			}
		}
		_, err := c.Irecv(0, 5, make([]float64, 600))
		wantPeer(t, err)
	})
}
