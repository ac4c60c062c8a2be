package tcpmpi

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"testing"

	"repro/internal/core"
)

// fuzzMaxElems bounds the payloads a FuzzFrameRead input may claim. A
// count up to maxFrameElems is honest, and a carrier that size is
// allocated before its payload is read; the fuzzer must not do that
// thousands of times a second. Counts above the cap are still fuzzed.
const fuzzMaxElems = 1 << 12

// readFrames drives one connection's read path over data, as process 0
// of a two-rank world talking to the endpoint that owns rank 1, where a
// user receive (from 0, tag 1, four elements) is posted. It serves frames
// until
// receiveFrame returns an error — data always ends — and returns that
// error.
func readFrames(t testing.TB, data []byte) error {
	w, err := newWorld(2, 1, 2, twoProcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.eng.Comm(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Irecv(0, 1, make([]float64, 4)); err != nil {
		t.Fatal(err)
	}
	local, peer := net.Pipe()
	p := newPeerConn(local, nil)
	w.conns[0] = p
	wrote, drained := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(wrote)
		peer.Write(data) // ends early, with an error, once the reader stops
		peer.Close()
	}()
	go func() {
		defer close(drained)
		io.Copy(io.Discard, peer) // the pongs a ping asks for
	}()
	for {
		if err = w.receiveFrame(0, p); err != nil {
			break
		}
	}
	local.Close()
	<-wrote
	<-drained
	return err
}

// claimedElems walks data header by header the way the reader does and
// sums the payload elements the headers claim, up to the first header
// over the cap or the first payload that is cut short. ok is false when a
// header claims more than fuzzMaxElems but no more than the cap.
func claimedElems(data []byte) (elems int, ok bool) {
	for len(data) >= frameHeaderLen {
		n := int(binary.LittleEndian.Uint32(data))
		if n > maxFrameElems {
			break
		}
		if n > fuzzMaxElems {
			return 0, false
		}
		elems += n
		if 8*n > len(data)-frameHeaderLen {
			break
		}
		data = data[frameHeaderLen+8*n:]
	}
	return elems, true
}

// FuzzFrameRead feeds arbitrary bytes to one connection's read path: the
// header, then the payload into a posted receive or a carrier. It must
// never panic, must end in a typed error (a *core.PeerError for anything
// the peer got wrong, a *core.TruncationError for a payload too long for
// its posted receive), and must allocate no more than the payloads the
// headers claim — never anything a header over the cap asks for.
func FuzzFrameRead(f *testing.F) {
	f.Add(rawFrame(kindUser, 0, 1, 1, []float64{math.NaN(), math.Inf(-1), 0, math.Copysign(0, -1)}))
	f.Add(append(rawFrame(kindColl, 0, 1, 0, []float64{1, 2}), rawFrame(kindUser, 0, 1, 7, []float64{3})...))
	f.Add(append(rawFrame(kindPing, 0, 0, 0, nil), rawFrame(kindBye, 0, 0, 0, nil)...))
	// The malformed seeds are in testdata/fuzz.

	f.Fuzz(func(t *testing.T, data []byte) {
		elems, ok := claimedElems(data)
		if !ok {
			t.Skip()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := readFrames(t, data)
		runtime.ReadMemStats(&after)
		var pe *core.PeerError
		var trunc *core.TruncationError
		if !errors.As(err, &pe) && !errors.As(err, &trunc) {
			t.Fatalf("untyped error %T: %v", err, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(8*elems)+1<<20 {
			t.Fatalf("allocated %d bytes for headers claiming %d elements", grew, elems)
		}
	})
}

// TestFrameReadRejects: everything a peer can get wrong in one frame ends
// the read path with an error at that frame, not at the end of the input.
func TestFrameReadRejects(t *testing.T) {
	header := func(count uint32, kind byte, src, dst, tag int) []byte {
		b := rawFrame(kind, src, dst, tag, nil)
		binary.LittleEndian.PutUint32(b, count)
		return b
	}
	isPeer := func(err error) bool {
		var pe *core.PeerError
		return errors.As(err, &pe) && pe.RankLo == 0 && pe.RankHi == 1 && pe.Phase == core.PhaseFrameRead &&
			!errors.Is(err, io.EOF)
	}
	// Each case but the short payloads has a well-formed frame behind it:
	// the read must stop at the bad one.
	for _, tc := range []struct {
		name   string
		data   []byte
		want   func(error) bool
		isLast bool
	}{
		{"count over the cap", header(maxFrameElems+1, kindUser, 0, 1, 7), isPeer, false},
		{"count at uint32 max", header(math.MaxUint32, kindUser, 0, 1, 7), isPeer, false},
		{"unknown kind", header(0, kindPong+1, 0, 1, 7), isPeer, false},
		{"ping with a payload", rawFrame(kindPing, 0, 0, 0, []float64{1}), isPeer, false},
		{"bye with a payload", header(1, kindBye, 0, 0, 0), isPeer, false},
		{"foreign dst", rawFrame(kindUser, 0, 0, 7, []float64{1}), isPeer, false},
		{"dst beyond the world", rawFrame(kindUser, 0, 2, 7, []float64{1}), isPeer, false},
		{"foreign src", rawFrame(kindUser, 1, 1, 7, []float64{1}), isPeer, false},
		{"negative src", rawFrame(kindUser, -1, 1, 7, []float64{1}), isPeer, false},
		{"short payload into a carrier", rawFrame(kindUser, 0, 1, 7, []float64{1, 2, 3})[:frameHeaderLen+10], func(err error) bool {
			return isPeer(err) && errors.Is(err, io.ErrUnexpectedEOF)
		}, true},
		{"short payload into a posted receive", rawFrame(kindUser, 0, 1, 1, []float64{1, 2})[:frameHeaderLen+5], func(err error) bool {
			return isPeer(err) && errors.Is(err, io.ErrUnexpectedEOF)
		}, true},
		{"payload too long for the posted receive", rawFrame(kindUser, 0, 1, 1, make([]float64, 5)), func(err error) bool {
			var trunc *core.TruncationError
			return errors.As(err, &trunc) && trunc.Len == 5 && trunc.Cap == 4
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.data
			if !tc.isLast {
				data = append(append([]byte(nil), data...), rawFrame(kindUser, 0, 1, 7, []float64{1})...)
			}
			if err := readFrames(t, data); !tc.want(err) {
				t.Fatalf("got %v", err)
			}
		})
	}
	// A clean input ends at its EOF.
	err := readFrames(t, rawFrame(kindUser, 0, 1, 7, []float64{1}))
	var pe *core.PeerError
	if !errors.As(err, &pe) || !errors.Is(err, io.EOF) {
		t.Fatalf("well-formed input ended with %v, want the peer's EOF", err)
	}
}
