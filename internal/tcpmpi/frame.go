package tcpmpi

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Wire framing: every message between two processes is one length-prefixed
// binary frame (little-endian):
//
//	offset  0  uint32  count — number of float64 payload elements
//	offset  4  uint8   kind  — kindUser or kindColl (matching namespace)
//	offset  5  int32   src   — sending rank
//	offset  9  int32   dst   — receiving rank (must be local to the reader)
//	offset 13  int32   tag
//	offset 17  payload — count IEEE-754 float64 values, little-endian
//
// Frames of user point-to-point traffic and of the internal collectives
// share the connection but live in separate matching namespaces via kind,
// so a collective can never steal a user message with a colliding tag (or
// vice versa). kindBye is the graceful-shutdown
// announcement: the last frame a closing process writes on each
// connection, telling the peer its ranks have departed (src/dst/tag and
// payload empty). kindPing is the heartbeat: an empty frame written on a
// connection that has been send-idle for a heartbeat interval, proving
// the writing process is alive; the reader consumes it silently (every
// successfully read frame, ping or not, refreshes the connection's
// last-heard clock). kindPong is the ping's echo, written by the reader
// that consumed the ping; the originator stamps each ping it writes, so
// the echo yields one round-trip latency sample per idle interval — the
// raw material of slow-peer suspicion (see slow.go).
const (
	kindUser byte = 0
	kindColl byte = 1
	kindBye  byte = 2
	kindPing byte = 3
	kindPong byte = 4
)

const frameHeaderLen = 17

// maxFrameElems bounds a frame's payload (2^27 float64 = 1 GiB), so a
// corrupt or hostile length prefix cannot drive an arbitrary allocation.
const maxFrameElems = 1 << 27

// peerConn is one established connection to a peer process: a buffered
// reader owned by the world's reader goroutine and a mutex-serialized
// buffered writer shared by every local rank sending to that process.
type peerConn struct {
	c  net.Conn
	br *bufio.Reader
	// rscratch is the raw payload buffer and rhdr the header buffer, owned
	// by the single reader goroutine and reused across frames; the mailbox
	// decodes out of rscratch (into a posted receive's buffer or a
	// recycled carrier) before the next frame is read, so nothing escapes
	// and the steady-state read path allocates nothing.
	rscratch []byte
	rhdr     [frameHeaderLen]byte

	wmu     sync.Mutex
	bw      *bufio.Writer
	scratch []byte

	// lastSent / lastHeard are UnixNano stamps of the most recent
	// successful frame write / read on this connection, maintained
	// unconditionally (the stores are two atomic ops per frame) so the
	// optional heartbeat monitor needs no per-frame hooks: it pings a
	// connection whose lastSent is stale and declares the peer suspect
	// when lastHeard exceeds the timeout.
	lastSent  atomic.Int64
	lastHeard atomic.Int64

	// pingSentNs is the UnixNano stamp of the oldest unanswered ping (0:
	// none outstanding). The heartbeat monitor CASes it from 0 when it
	// writes a ping, the reader swaps it back to 0 on the kindPong echo,
	// and the difference is one round-trip sample for rtt. At most one
	// ping is ever measured at a time, so the pairing cannot skew.
	pingSentNs atomic.Int64
	// rtt is the link's ping round-trip EWMA (see slow.go).
	rtt latEwma
}

func newPeerConn(c net.Conn, br *bufio.Reader) *peerConn {
	if br == nil {
		br = bufio.NewReader(c)
	}
	p := &peerConn{c: c, br: br, bw: bufio.NewWriter(c)}
	now := time.Now().UnixNano()
	p.lastSent.Store(now)
	p.lastHeard.Store(now)
	return p
}

// writeFrame sends one frame, flushing it onto the wire before returning —
// buffered-send semantics: once writeFrame returns, the payload is owned
// by the kernel's socket buffer and the caller may reuse data.
//
//repro:noalloc
func (p *peerConn) writeFrame(kind byte, src, dst, tag int, data []float64) error {
	if len(data) > maxFrameElems {
		return fmt.Errorf("tcpmpi: frame of %d elements exceeds the %d-element cap", len(data), maxFrameElems)
	}
	p.wmu.Lock()
	defer p.wmu.Unlock()
	need := frameHeaderLen + 8*len(data)
	if cap(p.scratch) < need {
		p.scratch = make([]byte, need) //repro:alloc-ok grow-once resident buffer
	}
	b := p.scratch[:need]
	binary.LittleEndian.PutUint32(b[0:], uint32(len(data)))
	b[4] = kind
	binary.LittleEndian.PutUint32(b[5:], uint32(int32(src)))
	binary.LittleEndian.PutUint32(b[9:], uint32(int32(dst)))
	binary.LittleEndian.PutUint32(b[13:], uint32(int32(tag)))
	for i, v := range data {
		binary.LittleEndian.PutUint64(b[frameHeaderLen+8*i:], math.Float64bits(v))
	}
	if _, err := p.bw.Write(b); err != nil {
		return err
	}
	if err := p.bw.Flush(); err != nil {
		return err
	}
	p.lastSent.Store(time.Now().UnixNano())
	return nil
}

// readFrame reads one frame from the peer into the connection's resident
// raw byte buffer and returns it UNDECODED. The reader goroutine passes
// the raw payload to the mailbox, which decodes it directly into a posted
// receive's user buffer when one is waiting (the posted-receive fast path
// — zero allocations per frame) or into a recycled buffered-arrival
// carrier otherwise. raw is valid until the next readFrame (readFrame is
// only called from the connection's single reader goroutine).
//
//repro:noalloc
func (p *peerConn) readFrame() (kind byte, src, dst, tag int, raw []byte, err error) {
	hdr := p.rhdr[:]
	if _, err = io.ReadFull(p.br, hdr); err != nil {
		return
	}
	count := binary.LittleEndian.Uint32(hdr[0:])
	kind = hdr[4]
	src = int(int32(binary.LittleEndian.Uint32(hdr[5:])))
	dst = int(int32(binary.LittleEndian.Uint32(hdr[9:])))
	tag = int(int32(binary.LittleEndian.Uint32(hdr[13:])))
	if count > maxFrameElems {
		err = fmt.Errorf("tcpmpi: frame length prefix %d exceeds the %d-element cap", count, maxFrameElems)
		return
	}
	if kind > kindPong {
		err = fmt.Errorf("tcpmpi: unknown frame kind %d", kind)
		return
	}
	if count == 0 {
		return
	}
	if cap(p.rscratch) < int(8*count) {
		p.rscratch = make([]byte, 8*count) //repro:alloc-ok grow-once resident buffer
	}
	raw = p.rscratch[:8*count]
	_, err = io.ReadFull(p.br, raw)
	return
}

// decodeInto decodes a raw little-endian float64 payload into dst, which
// must hold exactly len(raw)/8 elements.
//
//repro:noalloc
func decodeInto(dst []float64, raw []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
}
