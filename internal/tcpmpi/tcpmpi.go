// Package tcpmpi is the multi-process TCP backend of the core.Comm
// transport contract: several OS processes, each owning a contiguous rank
// range, rendezvous at a coordinator address and assemble one
// message-passing world over length-prefixed binary frames. A process's
// ranks live in a chanmpi range world, so point-to-point traffic, local or
// framed, is matched per (source, tag) in posting order by the same engine
// as the in-process runtime, and that engine runs the collectives too: a
// process's ranks combine in shared memory, and one rank per process runs
// a dissemination allgather in ⌈log₂Q⌉ rounds over the Q processes, leader
// to leader, before canonical rank-order combining — so distributed solves
// are bit-identical to their in-process counterparts. tcpmpi supplies the
// wire and the policy that bounds collective waits.
//
// Bring-up: the coordinator process listens on Addr; every worker process
// dials it and announces its rank range, the coordinator validates that
// the ranges tile [0, size), broadcasts the roster, and the workers
// complete a full mesh among themselves (the join connections double as
// the coordinator's mesh edges). See README.md for the wire format and
// the failure and progress semantics.
package tcpmpi

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"time"

	"repro/internal/core"
)

// protoVersion guards against mismatched binaries rendezvousing.
// Version 2 added the kindPing heartbeat frame; version 3 its kindPong
// echo (a v2 peer would fail a pong as an unknown frame kind).
const protoVersion = 3

// Transport joins (or coordinates) a multi-process world over TCP. It
// implements core.Transport: Dial blocks until every process has joined
// and the mesh is connected, then returns a core.World owning the ranks
// [RankLo, RankHi) locally.
type Transport struct {
	// Addr is the rendezvous address (host:port). The coordinator listens
	// on it; workers dial it, retrying until the context expires, so the
	// processes may start in any order.
	Addr string
	// Coordinate marks this process the rendezvous coordinator. Exactly
	// one process of a world must coordinate.
	Coordinate bool
	// RankLo, RankHi delimit the contiguous rank range [RankLo, RankHi)
	// this process owns. The ranges of all processes must tile [0, size).
	RankLo, RankHi int
	// ListenAddr is where a worker process accepts mesh connections from
	// other workers (default "127.0.0.1:0", an ephemeral loopback port).
	// Unused by the coordinator and in two-process worlds.
	ListenAddr string
	// RetryInterval paces a worker's rendezvous dial attempts while the
	// coordinator is still coming up (default 50ms).
	RetryInterval time.Duration
	// HeartbeatInterval, when positive, enables the heartbeat monitor: an
	// empty kindPing frame is written on every peer connection that has
	// been send-idle for an interval, and a peer whose connection stays
	// silent past HeartbeatTimeout fails the world with a
	// *core.PeerError naming its rank range. All processes of a world
	// should agree on the interval (the detector tolerates skew up to the
	// timeout).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the silence span after which a peer is declared
	// suspect (default 4 × HeartbeatInterval). It must comfortably exceed
	// the interval, or healthy peers' ping cadence will trip it.
	HeartbeatTimeout time.Duration
	// CollectiveTimeout, when positive, bounds each wait inside the
	// collectives: a round edge between process leaders (round k receives
	// from the leader of the process 2ᵏ ahead), and a rank's wait for the
	// other ranks of its process to enter. A contribution that does not
	// arrive within the deadline fails the world with a *core.PeerError
	// naming the hung ranks — the edge's source process, or the first
	// local rank that never entered — instead of the collective blocking
	// forever. It is the complement of the heartbeat: heartbeats catch
	// dead or frozen PROCESSES, the deadline catches a live process whose
	// RANK never enters the collective. Set it above the slowest
	// legitimate inter-collective compute span.
	CollectiveTimeout time.Duration
	// SlowFactor, when positive, enables slow-peer suspicion — the
	// gray-failure detector for peers that are alive but degraded (see
	// slow.go). Every link keeps an EWMA of its ping round-trips and of
	// its collective round edge's receive wait; a sample exceeding
	// SlowFactor × the link's prior EWMA (and at least SlowFloor, after
	// SlowMinSamples of warm-up) declares the peer suspect with a
	// *core.PeerError in phase "slow" — distinct from every dead-peer
	// phase, so policy can differ. Typical values are 3–10: the factor is
	// relative to the link's own history, not an absolute bound.
	SlowFactor float64
	// SlowFloor is the absolute latency below which a sample never raises
	// suspicion, whatever the factor says — sub-millisecond jitter on a
	// fast link is noise, not degradation (default 10ms).
	SlowFloor time.Duration
	// SlowMinSamples is the EWMA warm-up: suspicion is withheld until a
	// link has this many samples of history (default 8).
	SlowMinSamples int
	// FailOnSlow selects the restart policy: a suspect peer fails the
	// world with the phase-"slow" PeerError (recoverable — a Supervisor
	// redials a fresh world, leaving the degraded peer behind). When
	// false, suspicion is advisory: OnSlow observes it and the world
	// keeps running (ride it out).
	FailOnSlow bool
	// OnSlow, when non-nil, observes each transition into suspicion —
	// once per degradation episode per peer process, from a transport
	// goroutine (it must be concurrency-safe and must not block).
	OnSlow func(*core.PeerError)
}

var _ core.Transport = (*Transport)(nil)

// Handshake messages, one JSON object per line; after the handshake the
// connection switches to binary frames (see frame.go).
type joinMsg struct {
	Proto  int    `json:"proto"`
	Size   int    `json:"size"`
	RankLo int    `json:"rank_lo"`
	RankHi int    `json:"rank_hi"`
	Addr   string `json:"addr"` // the worker's mesh listener
}

type procInfo struct {
	RankLo int    `json:"rank_lo"`
	RankHi int    `json:"rank_hi"`
	Addr   string `json:"addr"`
}

type rosterMsg struct {
	Proto int        `json:"proto"`
	Procs []procInfo `json:"procs"` // ascending by RankLo; index is the process id
	Coord int        `json:"coord"` // the coordinator's process id
	You   int        `json:"you"`   // the receiving worker's process id
	Err   string     `json:"err,omitempty"`
}

type helloMsg struct {
	Proto int `json:"proto"`
	Proc  int `json:"proc"` // the dialing worker's process id
}

func writeJSONLine(c net.Conn, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = c.Write(append(b, '\n'))
	return err
}

func readJSONLine(br *bufio.Reader, v any) error {
	line, err := br.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// applyDeadline bounds a handshake connection by the context's deadline,
// if any. clearDeadline lifts it once the connection switches to frames.
func applyDeadline(ctx context.Context, c net.Conn) {
	if dl, ok := ctx.Deadline(); ok {
		c.SetDeadline(dl)
	}
}

func clearDeadline(c net.Conn) { c.SetDeadline(time.Time{}) }

// closeOnDone closes the connection when ctx fires, so a handshake read
// blocked on a stalled peer aborts even under a cancel-only context
// (which applyDeadline cannot bound). The returned stop releases the
// hook once the handshake step is over.
func closeOnDone(ctx context.Context, c net.Conn) func() bool {
	return context.AfterFunc(ctx, func() { c.Close() })
}

// Dial establishes the world. The context bounds the whole bring-up: the
// rendezvous dial-retry loop, the coordinator's wait for joiners, and the
// mesh completion all abort when it expires.
func (t *Transport) Dial(ctx context.Context, size int) (core.World, error) {
	if size < 1 {
		return nil, fmt.Errorf("tcpmpi: world size %d < 1", size)
	}
	if t.RankLo < 0 || t.RankHi <= t.RankLo || t.RankHi > size {
		return nil, fmt.Errorf("tcpmpi: rank range [%d,%d) invalid for world size %d", t.RankLo, t.RankHi, size)
	}
	if t.Addr == "" {
		return nil, fmt.Errorf("tcpmpi: no rendezvous address")
	}
	if t.Coordinate {
		return t.dialCoordinator(ctx, size)
	}
	return t.dialWorker(ctx, size)
}

// finishWorld applies the transport's detection options to a fully meshed
// world and starts the heartbeat monitor if enabled. Both dial paths call
// it last, after every connection's reader is running.
func (t *Transport) finishWorld(w *world) *world {
	if t.CollectiveTimeout > 0 {
		w.collTimeout = t.CollectiveTimeout
		w.deadlines = make([]*time.Timer, w.hi-w.lo)
		for i := range w.deadlines {
			w.deadlines[i] = time.NewTimer(t.CollectiveTimeout)
			w.deadlines[i].Stop()
		}
	}
	if t.SlowFactor > 0 {
		w.slow = slowConfig{
			factor:     t.SlowFactor,
			floor:      t.SlowFloor,
			minSamples: t.SlowMinSamples,
			failOnSlow: t.FailOnSlow,
			onSlow:     t.OnSlow,
		}
		if w.slow.floor <= 0 {
			w.slow.floor = 10 * time.Millisecond
		}
		if w.slow.minSamples <= 0 {
			w.slow.minSamples = 8
		}
	}
	if t.HeartbeatInterval > 0 {
		w.hbInterval = t.HeartbeatInterval
		w.hbTimeout = t.HeartbeatTimeout
		if w.hbTimeout <= 0 {
			w.hbTimeout = 4 * t.HeartbeatInterval
		}
		w.startHeartbeat()
	}
	return w
}

// dialCoordinator listens on Addr, collects joiners until their ranges
// (plus its own) tile [0, size), broadcasts the roster, and brings the
// world up with the join connections as its mesh edges.
func (t *Transport) dialCoordinator(ctx context.Context, size int) (core.World, error) {
	type joiner struct {
		conn net.Conn
		br   *bufio.Reader
		info procInfo
	}
	var joiners []joiner
	abort := func(err error) (core.World, error) {
		for _, j := range joiners {
			j.conn.Close()
		}
		return nil, err
	}

	if t.RankHi-t.RankLo < size {
		ln, err := (&net.ListenConfig{}).Listen(ctx, "tcp", t.Addr)
		if err != nil {
			return nil, fmt.Errorf("tcpmpi: coordinator listen: %w", err)
		}
		stop := context.AfterFunc(ctx, func() { ln.Close() })
		covered := t.RankHi - t.RankLo
		for covered < size {
			conn, err := ln.Accept()
			if err != nil {
				ln.Close()
				stop()
				if ctx.Err() != nil {
					err = fmt.Errorf("tcpmpi: rendezvous aborted with %d of %d ranks joined: %w", covered, size, ctx.Err())
				}
				return abort(err)
			}
			applyDeadline(ctx, conn)
			br := bufio.NewReader(conn)
			var jm joinMsg
			stopConn := closeOnDone(ctx, conn)
			err = readJSONLine(br, &jm)
			stopConn()
			if err != nil {
				ln.Close()
				stop()
				conn.Close()
				return abort(fmt.Errorf("tcpmpi: reading join: %w", err))
			}
			if jm.Proto != protoVersion || jm.Size != size ||
				jm.RankLo < 0 || jm.RankHi <= jm.RankLo || jm.RankHi > size {
				ln.Close()
				stop()
				conn.Close()
				return abort(fmt.Errorf("tcpmpi: bad join (proto %d, size %d, ranks [%d,%d)) for a %d-rank world",
					jm.Proto, jm.Size, jm.RankLo, jm.RankHi, size))
			}
			joiners = append(joiners, joiner{conn: conn, br: br, info: procInfo{RankLo: jm.RankLo, RankHi: jm.RankHi, Addr: jm.Addr}})
			covered += jm.RankHi - jm.RankLo
		}
		ln.Close()
		stop()
	}

	// Assemble and validate the roster: process ids ascend by rank range,
	// and the ranges must tile [0, size) exactly.
	procs := []procInfo{{RankLo: t.RankLo, RankHi: t.RankHi, Addr: t.Addr}}
	for _, j := range joiners {
		procs = append(procs, j.info)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].RankLo < procs[j].RankLo })
	expect := 0
	for _, p := range procs {
		if p.RankLo != expect {
			err := fmt.Errorf("tcpmpi: rank ranges do not tile [0,%d): gap or overlap at rank %d", size, expect)
			for _, j := range joiners {
				writeJSONLine(j.conn, rosterMsg{Proto: protoVersion, Err: err.Error()})
			}
			return abort(err)
		}
		expect = p.RankHi
	}
	me, coordIdx := 0, 0
	for i, p := range procs {
		if p.RankLo == t.RankLo {
			me, coordIdx = i, i
		}
	}

	w, err := newWorld(size, t.RankLo, t.RankHi, procs, me)
	if err != nil {
		return abort(err)
	}
	for _, j := range joiners {
		idx := sort.Search(len(procs), func(i int) bool { return procs[i].RankLo >= j.info.RankLo })
		if err := writeJSONLine(j.conn, rosterMsg{Proto: protoVersion, Procs: procs, Coord: coordIdx, You: idx}); err != nil {
			return abort(fmt.Errorf("tcpmpi: sending roster: %w", err))
		}
		clearDeadline(j.conn)
		pc := newPeerConn(j.conn, j.br)
		w.conns[idx] = pc
		go w.readLoop(idx, pc)
	}
	return t.finishWorld(w), nil
}

// dialWorker opens a mesh listener, rendezvouses with the coordinator
// (retrying while it comes up), and completes the mesh with its fellow
// workers: it dials every lower-id worker and accepts a hello from every
// higher-id one.
func (t *Transport) dialWorker(ctx context.Context, size int) (core.World, error) {
	listenAddr := t.ListenAddr
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	retry := t.RetryInterval
	if retry <= 0 {
		retry = 50 * time.Millisecond
	}
	ln, err := (&net.ListenConfig{}).Listen(ctx, "tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpmpi: worker mesh listen: %w", err)
	}
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()

	var conn net.Conn
	d := net.Dialer{}
	for {
		conn, err = d.DialContext(ctx, "tcp", t.Addr)
		if err == nil {
			break
		}
		select {
		case <-ctx.Done():
			ln.Close()
			return nil, fmt.Errorf("tcpmpi: rendezvous with %s: %w (last: %v)", t.Addr, ctx.Err(), err)
		case <-time.After(retry):
		}
	}
	applyDeadline(ctx, conn)
	fail := func(err error) (core.World, error) {
		ln.Close()
		conn.Close()
		return nil, err
	}
	if err := writeJSONLine(conn, joinMsg{Proto: protoVersion, Size: size, RankLo: t.RankLo, RankHi: t.RankHi, Addr: ln.Addr().String()}); err != nil {
		return fail(fmt.Errorf("tcpmpi: sending join: %w", err))
	}
	br := bufio.NewReader(conn)
	var rm rosterMsg
	stopConn := closeOnDone(ctx, conn)
	err = readJSONLine(br, &rm)
	stopConn()
	if err != nil {
		return fail(fmt.Errorf("tcpmpi: reading roster: %w", err))
	}
	if rm.Err != "" {
		return fail(fmt.Errorf("tcpmpi: coordinator rejected the world: %s", rm.Err))
	}
	if rm.Proto != protoVersion || rm.You < 0 || rm.You >= len(rm.Procs) || rm.Coord < 0 || rm.Coord >= len(rm.Procs) {
		return fail(fmt.Errorf("tcpmpi: malformed roster"))
	}
	clearDeadline(conn)

	w, err := newWorld(size, t.RankLo, t.RankHi, rm.Procs, rm.You)
	if err != nil {
		return fail(err)
	}
	w.listener = ln
	pc := newPeerConn(conn, br)
	w.conns[rm.Coord] = pc
	go w.readLoop(rm.Coord, pc)

	// Mesh with the other workers: dial the lower ids, accept the higher.
	expectInbound := 0
	for p := range rm.Procs {
		if p == rm.You || p == rm.Coord {
			continue
		}
		if p > rm.You {
			expectInbound++
			continue
		}
		mc, err := d.DialContext(ctx, "tcp", rm.Procs[p].Addr)
		if err != nil {
			w.Close()
			return nil, &core.PeerError{
				RankLo: rm.Procs[p].RankLo, RankHi: rm.Procs[p].RankHi, Phase: core.PhaseHandshake,
				Err: fmt.Errorf("tcpmpi: meshing with process %d at %s: %w", p, rm.Procs[p].Addr, err),
			}
		}
		applyDeadline(ctx, mc)
		if err := writeJSONLine(mc, helloMsg{Proto: protoVersion, Proc: rm.You}); err != nil {
			mc.Close()
			w.Close()
			return nil, &core.PeerError{
				RankLo: rm.Procs[p].RankLo, RankHi: rm.Procs[p].RankHi, Phase: core.PhaseHandshake,
				Err: fmt.Errorf("tcpmpi: hello to process %d: %w", p, err),
			}
		}
		clearDeadline(mc)
		mpc := newPeerConn(mc, nil)
		w.conns[p] = mpc
		go w.readLoop(p, mpc)
	}
	for i := 0; i < expectInbound; i++ {
		mc, err := ln.Accept()
		if err != nil {
			w.Close()
			if ctx.Err() != nil {
				err = fmt.Errorf("tcpmpi: mesh accept: %w", ctx.Err())
			}
			return nil, err
		}
		applyDeadline(ctx, mc)
		mbr := bufio.NewReader(mc)
		var hm helloMsg
		stopMesh := closeOnDone(ctx, mc)
		err = readJSONLine(mbr, &hm)
		stopMesh()
		if err != nil {
			mc.Close()
			w.Close()
			return nil, fmt.Errorf("tcpmpi: reading hello: %w", err)
		}
		if hm.Proto != protoVersion || hm.Proc <= rm.You || hm.Proc >= len(rm.Procs) || hm.Proc == rm.Coord || w.conns[hm.Proc] != nil {
			mc.Close()
			w.Close()
			return nil, fmt.Errorf("tcpmpi: unexpected hello from process %d", hm.Proc)
		}
		clearDeadline(mc)
		mpc := newPeerConn(mc, mbr)
		w.conns[hm.Proc] = mpc
		go w.readLoop(hm.Proc, mpc)
	}
	return t.finishWorld(w), nil
}
