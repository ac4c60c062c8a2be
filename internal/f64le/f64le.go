// Package f64le owns the one decision both binary wires of the repo make:
// how a []float64 becomes IEEE-754 bits in little-endian byte order and
// back. The tcpmpi frames and serve's application/x-spmv-f64 bodies both
// carry vectors in that order, which is the order a little-endian host
// already stores them in, so on such a host the wire bytes ARE the
// vector's memory: Bytes returns a view of it (unsafe.Slice over its
// data, nothing copied) and ReadFull reads straight into it. Only the
// kernel copies the bytes. On a big-endian host the portable
// binary.LittleEndian loop below does the work instead; the platform
// picks the path, nothing else can, and the tests hold the view to that
// loop bit for bit.
package f64le

import (
	"encoding/binary"
	"io"
	"math"
	"unsafe"
)

// hostLE reports whether this host stores a float64 in wire byte order.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Bytes returns the wire bytes of v, 8·len(v) of them. On a little-endian
// host the result aliases v's memory — writing to one writes to the other
// — and is valid as long as v is; elsewhere it is a fresh encoded copy.
func Bytes(v []float64) []byte {
	if hostLE {
		return view(v)
	}
	return appendPortable(make([]byte, 0, 8*len(v)), v)
}

// ReadFull reads exactly 8·len(v) wire bytes from r into v, with
// io.ReadFull's errors: io.EOF if nothing was read, io.ErrUnexpectedEOF
// if r ended part way. On a little-endian host the bytes land in v's
// memory directly. After an error, v's contents are undefined.
func ReadFull(r io.Reader, v []float64) error {
	if hostLE {
		_, err := io.ReadFull(r, view(v))
		return err
	}
	raw := make([]byte, 8*len(v))
	if _, err := io.ReadFull(r, raw); err != nil {
		return err
	}
	decodePortable(v, raw)
	return nil
}

// view is v's memory as bytes.
func view(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// appendPortable appends v's wire bytes to dst on any host.
func appendPortable(dst []byte, v []float64) []byte {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// decodePortable fills v from its wire bytes raw (8·len(v) of them) on any
// host.
func decodePortable(v []float64, raw []byte) {
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
}
