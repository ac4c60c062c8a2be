package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// The two body encodings of POST /v1/mul and /v1/solve. JSON is the
// curl-able form; ContentTypeF64 is what Client speaks, because printing
// and parsing a few thousand float64s as decimals costs ten times the
// multiplication they carry.
//
// A ContentTypeF64 body is one frame, all integers little-endian:
//
//	u32 metaLen | meta | u32 n | n × float64
//
// meta is the OpRequest (request) or Response (response) marshalled as
// JSON with its vector field left nil, so the structs stay the only
// definition of the fields; the vector — X, Y — travels as raw IEEE-754
// bits, non-finite values included.
const (
	ContentTypeJSON = "application/json"
	ContentTypeF64  = "application/x-spmv-f64"
)

const (
	// maxBodyBytes bounds every POST body the handler reads.
	maxBodyBytes = 64 << 20
	// maxMetaLen bounds a frame's JSON header; a real one is under 200 bytes.
	maxMetaLen = 4096
	// maxFrameElems is the longest vector a frame inside maxBodyBytes holds.
	maxFrameElems = (maxBodyBytes - 8) / 8
)

// framePool recycles the byte buffers frames are staged in, on both sides
// of the wire. A buffer is returned only after its bytes have been decoded
// into a fresh []float64 or handed to a Write that has returned.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// appendFrame appends the frame of (meta, vec) to dst. meta must marshal
// to at most maxMetaLen bytes of JSON.
func appendFrame(dst []byte, meta any, vec []float64) ([]byte, error) {
	m, err := json.Marshal(meta)
	if err != nil {
		return dst, fmt.Errorf("serve: frame meta: %w", err)
	}
	if len(m) > maxMetaLen {
		return dst, fmt.Errorf("serve: frame meta is %d bytes, the cap is %d", len(m), maxMetaLen)
	}
	if len(vec) > maxFrameElems {
		return dst, fmt.Errorf("serve: frame of %d elements exceeds the %d-element cap", len(vec), maxFrameElems)
	}
	dst = slices.Grow(dst, 8+len(m)+8*len(vec))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m)))
	dst = append(dst, m...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vec)))
	off := len(dst)
	dst = dst[:off+8*len(vec)]
	for i, v := range vec {
		binary.LittleEndian.PutUint64(dst[off+8*i:], math.Float64bits(v))
	}
	return dst, nil
}

// vecPool recycles the two row-count-sized vectors a binary op needs on the
// server: the x its frame is decoded into and the y its result is computed
// in. Together they are most of what a served multiplication allocates, and
// on a heap as small as a registered plan's that alone sets how often the
// collector runs. A vector comes back zeroed (a solve starts from y = 0).
type vecPool struct {
	pool sync.Pool
	puts atomic.Uint64 // vectors handed back
}

func (p *vecPool) get(n int) *[]float64 {
	vp, _ := p.pool.Get().(*[]float64)
	if vp == nil {
		vp = new([]float64)
	}
	if cap(*vp) < n {
		*vp = make([]float64, n)
	} else {
		*vp = (*vp)[:n]
		clear(*vp)
	}
	return vp
}

func (p *vecPool) put(vp *[]float64) {
	p.puts.Add(1)
	p.pool.Put(vp)
}

// readFrame decodes exactly one frame from r: the JSON header into meta,
// then the vector. vecFor, if not nil, sees the element count — with meta
// already filled in — before anything of that size is allocated; its error
// is returned as is, and a vector of that length it returns is decoded
// into in place of a fresh one. Every structural defect (short frame,
// oversized or non-JSON meta, trailing bytes) is a *ValidationError.
func readFrame(r io.Reader, meta any, vecFor func(n int) ([]float64, error)) ([]float64, error) {
	bp := framePool.Get().(*[]byte)
	defer framePool.Put(bp)

	buf, err := readInto(r, bp, 4, "header")
	if err != nil {
		return nil, err
	}
	metaLen := binary.LittleEndian.Uint32(buf)
	if metaLen > maxMetaLen {
		return nil, &ValidationError{Msg: fmt.Sprintf("bad frame: meta length %d exceeds the %d-byte cap", metaLen, maxMetaLen)}
	}
	if buf, err = readInto(r, bp, int(metaLen), "meta"); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(buf, meta); err != nil {
		return nil, &ValidationError{Msg: "bad frame: meta is not valid JSON: " + err.Error()}
	}
	if buf, err = readInto(r, bp, 4, "element count"); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint32(buf)
	if count > maxFrameElems {
		return nil, &ValidationError{Msg: fmt.Sprintf("bad frame: %d elements exceed the %d-element cap", count, maxFrameElems)}
	}
	n := int(count)
	var vec []float64
	if vecFor != nil {
		if vec, err = vecFor(n); err != nil {
			return nil, err
		}
	}
	if n > 0 {
		if buf, err = readInto(r, bp, 8*n, "payload"); err != nil {
			return nil, err
		}
		if len(vec) != n {
			vec = make([]float64, n)
		}
		for i := range vec {
			vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
	}
	// The buffer has held the 4-byte header, so it has room for one byte.
	switch _, err := io.ReadFull(r, (*bp)[:1]); err {
	case io.EOF:
		return vec, nil
	case nil:
		return nil, &ValidationError{Msg: "bad frame: trailing bytes after the payload"}
	default:
		return nil, frameReadError("end of frame", err)
	}
}

// readInto reads exactly n bytes of the named frame part into the pooled
// buffer, growing it if it must.
func readInto(r io.Reader, bp *[]byte, n int, part string) ([]byte, error) {
	*bp = slices.Grow((*bp)[:0], n)
	buf := (*bp)[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, frameReadError(part, err)
	}
	return buf, nil
}

// frameReadError types a failed read of a frame part the way bodyError
// types any body read; a frame that simply ends early is an unexpected EOF.
func frameReadError(part string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return bodyError("frame", fmt.Errorf("reading %s: %w", part, err))
}
