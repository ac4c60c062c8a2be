package f64le

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
)

// specials are the float64 bit patterns a value-level round trip would
// lose or fold: NaNs with payload and sign bits, both zeros, subnormals,
// both infinities and the extremes of the finite range.
var specials = []uint64{
	0x7ff8000000000001, // quiet NaN, payload 1
	0xfff4000000000abc, // negative signalling NaN with payload
	0x0000000000000000, // +0
	0x8000000000000000, // -0
	0x0000000000000001, // smallest subnormal
	0x800fffffffffffff, // largest negative subnormal
	0x7ff0000000000000, // +Inf
	0xfff0000000000000, // -Inf
	0x7fefffffffffffff, // largest finite
	0x3ff0000000000001, // 1 + ulp
}

// randomVector is specials followed by n random bit patterns.
func randomVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, 0, len(specials)+n)
	for _, b := range specials {
		v = append(v, math.Float64frombits(b))
	}
	for i := 0; i < n; i++ {
		v = append(v, math.Float64frombits(rng.Uint64()))
	}
	return v
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

// TestBytesMatchPortableLoop holds the view (on this host) to the portable
// encode loop on random bit patterns of every length up to 40.
func TestBytesMatchPortableLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 40; n++ {
		v := randomVector(rng, n)
		if got, want := Bytes(v), appendPortable(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: Bytes = %x, portable loop = %x", n, got, want)
		}
	}
	if got := Bytes(nil); len(got) != 0 {
		t.Fatalf("Bytes(nil) has %d bytes", len(got))
	}
}

// TestReadFullMatchesPortableLoop decodes the portable loop's bytes with
// ReadFull, through a reader that hands them out a few at a time, so reads
// land part way through a float64.
func TestReadFullMatchesPortableLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 40; n++ {
		want := randomVector(rng, n)
		raw := appendPortable(nil, want)
		got := make([]float64, len(want))
		if err := ReadFull(&trickle{b: raw, step: 3}, got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !sameBits(got, want) {
			t.Fatalf("n=%d: ReadFull = %v, want %v", n, got, want)
		}
		back := make([]float64, len(want))
		decodePortable(back, raw)
		if !sameBits(back, want) {
			t.Fatalf("n=%d: portable decode = %v, want %v", n, back, want)
		}
	}
}

// TestViewAliasesVector pins what "view" means on a little-endian host:
// a byte written through the view is the vector's byte.
func TestViewAliasesVector(t *testing.T) {
	if !hostLE {
		t.Skip("big-endian host: Bytes is a copy")
	}
	v := []float64{1, 2}
	b := Bytes(v)
	b[15] ^= 0x80 // sign bit of v[1]
	if v[1] != -2 {
		t.Fatalf("v[1] = %v after flipping its sign byte through the view, want -2", v[1])
	}
}

func TestReadFullShortInput(t *testing.T) {
	v := make([]float64, 2)
	if err := ReadFull(bytes.NewReader(nil), v); !errors.Is(err, io.EOF) {
		t.Fatalf("empty input: %v, want io.EOF", err)
	}
	if err := ReadFull(bytes.NewReader(make([]byte, 12)), v); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("12 of 16 bytes: %v, want io.ErrUnexpectedEOF", err)
	}
	if err := ReadFull(bytes.NewReader(nil), nil); err != nil {
		t.Fatalf("empty vector: %v", err)
	}
}

// trickle is a reader returning at most step bytes per Read.
type trickle struct {
	b    []byte
	step int
}

func (r *trickle) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.step)], r.b)
	r.b = r.b[n:]
	return n, nil
}
