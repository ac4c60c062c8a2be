package tcpmpi

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/f64le"
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
// raw material of slow-peer suspicion (see slow.go). The control kinds
// (bye, ping, pong) carry no payload; a reader rejects one that claims any.
//
// Neither side encodes or decodes a payload: on a little-endian host its
// bytes are the float64s' own memory (internal/f64le), so the writer hands
// the kernel the header and the caller's vector in one writev, and the
// reader reads the payload straight into the receive that will own it (see
// world.receiveFrame).
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
// writer shared by every local rank sending to that process.
type peerConn struct {
	c  net.Conn
	br *bufio.Reader
	// rhdr is the reader goroutine's resident header buffer.
	rhdr [frameHeaderLen]byte

	// wmu serializes frames on the connection and guards the resident
	// write state: the header, and the header + payload pair of one writev
	// (wvec is its backing array; WriteTo consumes wbufs, so each frame
	// re-slices it).
	wmu   sync.Mutex
	whdr  [frameHeaderLen]byte
	wvec  [2][]byte
	wbufs net.Buffers

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
	p := &peerConn{c: c, br: br}
	now := time.Now().UnixNano()
	p.lastSent.Store(now)
	p.lastHeard.Store(now)
	return p
}

// writeFrame sends one frame before returning — buffered-send semantics:
// once writeFrame returns, the payload is in the kernel's socket buffer and
// the caller may reuse data. A frame with a payload is one writev of the
// header and the payload's wire bytes, which on a little-endian host are
// data's own memory; a header-only frame is one Write.
//
//repro:noalloc
func (p *peerConn) writeFrame(kind byte, src, dst, tag int, data []float64) error {
	if len(data) > maxFrameElems {
		return fmt.Errorf("tcpmpi: frame of %d elements exceeds the %d-element cap", len(data), maxFrameElems)
	}
	p.wmu.Lock()
	defer p.wmu.Unlock()
	h := p.whdr[:]
	binary.LittleEndian.PutUint32(h[0:], uint32(len(data)))
	h[4] = kind
	binary.LittleEndian.PutUint32(h[5:], uint32(int32(src)))
	binary.LittleEndian.PutUint32(h[9:], uint32(int32(dst)))
	binary.LittleEndian.PutUint32(h[13:], uint32(int32(tag)))
	var err error
	if len(data) == 0 {
		_, err = p.c.Write(h)
	} else {
		p.wvec[0], p.wvec[1] = h, f64le.Bytes(data)
		p.wbufs = p.wvec[:]
		_, err = p.wbufs.WriteTo(p.c)
	}
	if err != nil {
		return err
	}
	p.lastSent.Store(time.Now().UnixNano())
	return nil
}

// readFrame reads and checks one frame header from the peer; the payload,
// count float64s, is still on the wire when it returns. The reader
// goroutine reads it straight into the receive that will own it (see
// world.receiveFrame). Only the connection's single reader goroutine calls
// readFrame.
//
//repro:noalloc
func (p *peerConn) readFrame() (kind byte, src, dst, tag, count int, err error) {
	hdr := p.rhdr[:]
	if _, err = io.ReadFull(p.br, hdr); err != nil {
		return
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	kind = hdr[4]
	src = int(int32(binary.LittleEndian.Uint32(hdr[5:])))
	dst = int(int32(binary.LittleEndian.Uint32(hdr[9:])))
	tag = int(int32(binary.LittleEndian.Uint32(hdr[13:])))
	if n > maxFrameElems {
		err = fmt.Errorf("tcpmpi: frame length prefix %d exceeds the %d-element cap", n, maxFrameElems)
		return
	}
	if kind > kindPong {
		err = fmt.Errorf("tcpmpi: unknown frame kind %d", kind)
		return
	}
	if kind >= kindBye && n != 0 {
		err = fmt.Errorf("tcpmpi: control frame of kind %d claims a %d-element payload", kind, n)
		return
	}
	count = int(n)
	return
}
