// Package simnet is the DES-backed simulated transport: a third
// core.Transport (after chanmpi and tcpmpi) whose Dial returns a
// virtual-time world. Every rank is local, and every communication
// operation — Isend/Irecv/Wait, persistent halo channels, barriers,
// reductions — is costed on the des event loop with the latency, bandwidth
// and eager/rendezvous semantics of the machine description, fluid-flow
// link contention from netmodel, and the paper's §3 rule that a rendezvous
// transfer progresses only while both endpoints are inside MPI calls.
//
// Payload data still moves for real — receive buffers are filled with the
// sender's bytes, reductions combine in canonical rank order — so results
// are bit-identical to the chan transport and testable as such. Only TIME
// is simulated: the same resident core.Cluster / Supervisor / solver code
// runs unchanged at thousands of virtual ranks.
//
// Two driving disciplines share one engine:
//
//   - Foreign mode (Transport.Dial): the cluster's own rank goroutines call
//     into the world. All simulation state lives under one mutex; a rank
//     whose operation cannot complete yet becomes the DRIVER and pops DES
//     events one at a time until its completion signal fires, then hands
//     the event loop to a parked peer. Exactly one goroutine advances
//     virtual time at any instant, so the simulation is race-free; payload
//     results are deterministic (matching is per-channel FIFO and
//     reductions combine in rank order), while event interleaving may vary
//     run to run with goroutine scheduling.
//
//   - Session mode (NewSession): ranks are des.Procs — coroutines the
//     kernel resumes one at a time — and a single Run drains the heap.
//     This is strictly deterministic event-for-event (Sim.Events is a run
//     fingerprint) and is what cmd/spmv-sim uses for capacity planning. A
//     rank body's panic surfaces at Run's caller.
//
// If every rank is blocked and no event remains, the world fails itself
// with a *core.PeerError naming the most likely culprit (the source of the
// oldest unmatched receive) — this is what unwedges fault-injection tests
// that drop frames, mirroring tcpmpi's peer-death detection.
//
// This package is virtual-time pure: the reprolint wallclock analyzer
// forbids package time here. The one sanctioned wall-clock source is
// WallBudget, which bounds PLANNING time (how long we let the simulator
// itself run), not simulated time.
//
//repro:virtualtime
package simnet

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/chanmpi"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/fluid"
	"repro/internal/machine"
	"repro/internal/netmodel"
)

// Config describes the simulated machine and rank placement.
type Config struct {
	// Machine is the cluster description (zero value: machine.WestmereCluster).
	Machine machine.ClusterSpec
	// RanksPerNode places ranks onto nodes round-robin-free: rank r lives
	// on node r/RanksPerNode. 0 defaults to one rank per NUMA locality
	// domain (the paper's best-practice hybrid layout).
	RanksPerNode int
	// AsyncProgress models an MPI library with a working progress thread:
	// rendezvous transfers start without both endpoints being inside MPI
	// (the §5 ablation).
	AsyncProgress bool
	// TorusOccupancy (torus networks only) is the fraction of the machine
	// the job owns; values in (0,1) scatter the job's nodes over a
	// proportionally larger torus, modeling fragmented allocations. 0 or 1
	// means a dedicated, exactly-fitting torus.
	TorusOccupancy float64
	// PlacementSeed seeds the scattered placement.
	PlacementSeed uint64
}

// Kill schedules a rank's death at a virtual-time offset: when the
// simulation clock reaches At, the world fails with a *core.PeerError for
// that rank — deterministic chaos for Supervisor tests.
type Kill struct {
	Rank int
	At   float64 // seconds of virtual time
}

// Slowdown degrades one rank in virtual time: every message the rank
// originates from After onward pays Extra additional seconds of latency
// before its transfer begins. This is the gray-failure counterpart of
// Kill — the rank stays alive and its payloads stay bit-identical, only
// its transfers crawl — and it is the simulator-native analogue of
// faultmpi's wall-clock Slowdown schedule (whose time.AfterFunc delivery
// would be invisible to the virtual clock and trip the deadlock detector
// here). Being an event-time perturbation, it is exactly reproducible at
// any rank count.
type Slowdown struct {
	Rank  int
	Extra float64 // seconds added to each originated message's start
	After float64 // virtual-time offset at which the degradation begins
}

// Transport implements core.Transport: Dial returns a virtual-time world
// with every rank local. The zero value simulates the Westmere cluster.
type Transport struct {
	Config
	// Kills fail the world at virtual-time offsets (deterministic fault
	// injection; see also faultmpi for operation-count-based injection).
	Kills []Kill
	// Slow degrades ranks without killing them (one entry per rank; a
	// later entry for the same rank wins). Pair with RecvDeadline to
	// exercise detection, or leave RecvDeadline zero to measure how far
	// an undetected gray failure drags the solve.
	Slow []Slowdown
	// RecvDeadline, when positive, bounds every posted point-to-point
	// receive to that many seconds of VIRTUAL time: expiry fails the
	// world with a *core.PeerError naming the receive's source rank in
	// phase "slow" — the simulator's deterministic model of tcpmpi's
	// slow-peer suspicion, with time-to-detect readable off the clock.
	RecvDeadline float64
}

var _ core.Transport = (*Transport)(nil)

// Dial builds the simulated world. It never blocks (all ranks are local);
// ctx is checked once for early cancellation.
func (t *Transport) Dial(ctx context.Context, size int) (core.World, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return newWorld(t.Config, size, t.Kills, t.Slow, t.RecvDeadline)
}

// pathEnt caches one node pair's route.
type pathEnt struct {
	res []*fluid.Resource
	lat float64
}

type pathKey struct{ a, b int }

// world is the simulated MPI world. All state is guarded by mu in foreign
// mode; in session mode the des token discipline serializes access and mu
// is uncontended.
type world struct {
	mu  sync.Mutex
	sim *des.Sim
	sys *fluid.System
	net *netmodel.Network

	size    int
	nodeOf  []int
	local   []int
	comms   []*comm
	session bool

	async   bool
	eager   int     // bytes; wire sizes strictly below use the eager protocol
	rdvLat  float64 // rendezvous handshake latency
	latency float64
	linkBW  float64
	stages  float64 // ⌈log₂ P⌉ collective stages
	barCost float64

	// slowOf (nil when no slowdowns) is indexed by rank; recvDeadline > 0
	// puts every posted receive on the deadline watchlist (deadline.go).
	// Both are the gray-failure injection/detection pair of this transport.
	slowOf       []Slowdown
	recvDeadline float64
	armed        []armedRecv // posted receives under deadline watch
	armedFloor   float64     // min live deadline (stale-low is safe)
	stuck        int         // yielded pop attempts since last real progress

	sendQ map[ckey]*queue[*msg]
	recvQ map[ckey]*queue[*rpost]

	pathCache map[pathKey]*pathEnt

	err error // first failure; write-once

	driving bool
	parked  []*gate

	bar barrier
	red reducer
	gat gatherer

	kickScratch []*msg
}

func newWorld(cfg Config, size int, kills []Kill, slow []Slowdown, recvDeadline float64) (*world, error) {
	if size < 1 {
		return nil, fmt.Errorf("simnet: world size %d < 1", size)
	}
	spec := cfg.Machine
	if spec.Name == "" {
		spec = machine.WestmereCluster()
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rpn := cfg.RanksPerNode
	if rpn == 0 {
		rpn = spec.Node.LDsPerNode()
	}
	if rpn < 1 {
		return nil, fmt.Errorf("simnet: %d ranks per node", rpn)
	}
	nodes := (size + rpn - 1) / rpn

	sim := des.New()
	sys := fluid.NewSystem(sim)
	slots := nodes
	if spec.Net.Kind == machine.Torus2D && cfg.TorusOccupancy > 0 && cfg.TorusOccupancy < 1 {
		slots = int(float64(nodes)/cfg.TorusOccupancy + 0.999)
	}
	net := netmodel.NewSized(sys, spec.Net, nodes, slots)
	if slots > nodes {
		gw, gh := net.Dims()
		net.SetPlacement(netmodel.ScatteredPlacement(nodes, gw*gh, cfg.PlacementSeed+1))
	}

	w := &world{
		sim:       sim,
		sys:       sys,
		net:       net,
		size:      size,
		async:     cfg.AsyncProgress,
		eager:     spec.Net.EagerThreshold,
		rdvLat:    spec.Net.Latency,
		latency:   spec.Net.Latency,
		linkBW:    spec.Net.LinkBW,
		sendQ:     make(map[ckey]*queue[*msg]),
		recvQ:     make(map[ckey]*queue[*rpost]),
		pathCache: make(map[pathKey]*pathEnt),
	}
	w.stages = math.Ceil(math.Log2(math.Max(float64(size), 2)))
	w.barCost = w.stages * w.latency
	w.nodeOf = make([]int, size)
	w.local = make([]int, size)
	w.comms = make([]*comm, size)
	w.bar.init(sim)
	w.red.init(sim)
	w.gat.init(sim)
	w.red.slots = make([][]float64, size)
	w.gat.slots = make([]int64, size)
	for r := 0; r < size; r++ {
		w.nodeOf[r] = r / rpn
		w.local[r] = r
		c := &comm{w: w, rank: r, node: r / rpn}
		g := &gate{w: w, ch: make(chan struct{}, 1)}
		g.wakeFn = func() {
			if g.parked {
				w.unpark(g)
				select {
				case g.ch <- struct{}{}:
				default:
				}
			}
		}
		c.g = g
		w.comms[r] = c
	}
	if recvDeadline < 0 {
		return nil, fmt.Errorf("simnet: negative receive deadline %g", recvDeadline)
	}
	w.recvDeadline = recvDeadline
	w.armedFloor = math.Inf(1)
	for _, s := range slow {
		if s.Rank < 0 || s.Rank >= size {
			return nil, &core.RankError{Op: "Slowdown", Rank: s.Rank, Size: size}
		}
		if s.Extra < 0 || s.After < 0 {
			return nil, fmt.Errorf("simnet: negative slowdown (extra %g, after %g)", s.Extra, s.After)
		}
		if w.slowOf == nil {
			w.slowOf = make([]Slowdown, size)
		}
		w.slowOf[s.Rank] = s
	}
	for _, k := range kills {
		if k.Rank < 0 || k.Rank >= size {
			return nil, &core.RankError{Op: "Kill", Rank: k.Rank, Size: size}
		}
		if k.At < 0 {
			return nil, fmt.Errorf("simnet: kill at negative time %g", k.At)
		}
		k := k
		sim.At(k.At, func() {
			w.fail(&core.PeerError{
				RankLo: k.Rank, RankHi: k.Rank + 1, Phase: core.PhaseSend,
				Err: fmt.Errorf("simnet: injected kill at t=%gs", k.At),
			})
		})
	}
	return w, nil
}

// collCost is the modeled duration of one collective on a payload of the
// given bytes: ⌈log₂ P⌉ stages of latency plus serialized wire time.
func (w *world) collCost(bytes float64) float64 {
	return w.stages * (w.latency + bytes/w.linkBW)
}

// pathFor returns the cached route between two ranks' nodes.
//
//repro:noalloc
func (w *world) pathFor(src, dst int) *pathEnt {
	k := pathKey{w.nodeOf[src], w.nodeOf[dst]}
	if e, ok := w.pathCache[k]; ok {
		return e
	}
	res, lat := w.net.Path(k.a, k.b)
	e := &pathEnt{res: res, lat: lat} //repro:alloc-ok one entry per node pair, cached forever
	w.pathCache[k] = e                //repro:alloc-ok grow-once route cache
	return e
}

// --- core.World ---

func (w *world) Size() int { return w.size }

func (w *world) LocalRanks() []int { return w.local }

func (w *world) Comm(rank int) (core.Comm, error) {
	if rank < 0 || rank >= w.size {
		return nil, &core.RankError{Op: "Comm", Rank: rank, Size: w.size}
	}
	return w.comms[rank], nil
}

// Fail poisons the world: blocked ranks wake with a *core.WorldError and
// subsequent operations refuse. First cause wins.
func (w *world) Fail(err error) {
	w.mu.Lock()
	w.fail(err)
	w.mu.Unlock()
}

// Close fails the world with ErrWorldClosed (idempotent), releasing any
// blocked ranks. It shares chanmpi's sentinel so errors.Is(err,
// chanmpi.ErrWorldClosed) is transport-neutral.
func (w *world) Close() error {
	w.Fail(chanmpi.ErrWorldClosed)
	return nil
}

// fail is the locked implementation: record the first cause and wake every
// parked gate so blocked ranks observe the failure.
func (w *world) fail(cause error) {
	if w.err != nil || cause == nil {
		return
	}
	w.err = cause
	for len(w.parked) > 0 {
		g := w.parked[len(w.parked)-1]
		w.unpark(g)
		select {
		case g.ch <- struct{}{}:
		default:
		}
	}
}

// worldErr wraps the failure cause for an operation's return.
func (w *world) worldErr() error { return &core.WorldError{Cause: w.err} }

// --- foreign-mode scheduling ---

// gate is a foreign rank's parking spot: a one-token channel its goroutine
// blocks on while another rank drives the event loop.
type gate struct {
	w      *world
	ch     chan struct{}
	parked bool
	idx    int // position in w.parked while parked
	wakeFn func()
}

// unpark removes g from the parked set (O(1) swap-remove).
//
//repro:noalloc
func (w *world) unpark(g *gate) {
	n := len(w.parked) - 1
	last := w.parked[n]
	w.parked[g.idx] = last
	last.idx = g.idx
	w.parked[n] = nil
	w.parked = w.parked[:n]
	g.parked = false
}

// await blocks the calling rank until sig fires or the world fails. Caller
// holds w.mu; await returns with it held. In session mode the rank's proc
// waits on the des kernel; in foreign mode the rank either becomes the
// driver (advancing virtual time event by event) or parks on its gate.
//
//repro:noalloc
func (c *comm) await(sig *des.Signal) {
	w := c.w
	if c.proc != nil {
		if sig.Fired() || w.err != nil {
			return
		}
		w.mu.Unlock()
		defer w.mu.Lock() // deferred: an abandoned Run unwinds Wait, and every caller unlocks by defer
		c.proc.Wait(sig)
		return
	}
	g := c.g
	for !sig.Fired() && w.err == nil {
		if !w.driving {
			w.driving = true
			for !sig.Fired() && w.err == nil && w.stepOrJudge() {
			}
			w.driving = false
			w.handoff()
			if sig.Fired() || w.err != nil {
				return
			}
		}
		w.park(g, sig)
	}
}

// park blocks the gate until a wake token arrives: its signal firing, a
// driver handoff, or world failure. The last rank to park with an empty
// event heap has proven a virtual-time deadlock and fails the world
// instead of wedging.
//
//repro:noalloc
func (w *world) park(g *gate, sig *des.Signal) {
	if !w.driving && !w.sim.Pending() && len(w.parked)+1 >= w.size {
		w.deadlock()
		return
	}
	g.parked = true
	g.idx = len(w.parked)
	w.parked = append(w.parked, g) //repro:alloc-ok parked set grows once to world size
	sig.OnFire(g.wakeFn)
	w.mu.Unlock()
	<-g.ch
	w.mu.Lock()
}

// handoff passes the event loop to a parked rank when the current driver
// stops with events still pending — otherwise virtual time would stall
// until the driver's next MPI call.
//
//repro:noalloc
func (w *world) handoff() {
	if w.err != nil || w.driving || !w.sim.Pending() || len(w.parked) == 0 {
		return
	}
	g := w.parked[len(w.parked)-1]
	w.unpark(g)
	select {
	case g.ch <- struct{}{}:
	default:
	}
}

// deadlock fails the world when every rank is blocked with no scheduled
// events. The suspect is the source of the oldest unmatched receive (a
// dropped or never-sent message), reported like a dead peer so
// core.Supervisor treats it as recoverable.
func (w *world) deadlock() {
	suspect, found := ckey{}, false
	for k, q := range w.recvQ {
		if q.len() == 0 {
			continue
		}
		if !found || k.less(suspect) {
			suspect, found = k, true
		}
	}
	lo, hi := 0, w.size
	if found {
		lo, hi = suspect.src, suspect.src+1
	}
	w.fail(&core.PeerError{
		RankLo: lo, RankHi: hi, Phase: core.PhaseFrameRead,
		Err: fmt.Errorf("simnet: virtual deadlock: all %d ranks blocked with no scheduled events", w.size),
	})
}

// --- MPI progress bookkeeping (§3) ---

// driving reports whether this rank currently makes MPI progress.
//
//repro:noalloc
func (c *comm) driving() bool { return c.inMPI > 0 || c.w.async }

// enterMPI marks the rank as inside an MPI call; on the outermost entry,
// matched rendezvous transfers stalled on this endpoint are retried.
//
//repro:noalloc
func (c *comm) enterMPI() {
	c.inMPI++
	if c.inMPI == 1 && len(c.stalled) > 0 {
		c.kickStalled()
	}
}

//repro:noalloc
func (c *comm) exitMPI() {
	c.inMPI--
	if c.inMPI == 0 {
		// The op may have scheduled events (an eager launch, a kicked
		// rendezvous) without ever blocking. If every other rank is
		// already parked, nobody is left to drive them — wake one.
		c.w.handoff()
	}
}

// kickStalled retries this endpoint's stalled rendezvous messages. The
// world-level scratch keeps the swap allocation-free; tryStart may re-park
// a still-stalled message on the (now reset) list.
//
//repro:noalloc
func (c *comm) kickStalled() {
	w := c.w
	scratch := w.kickScratch[:0]
	scratch = append(scratch, c.stalled...) //repro:alloc-ok scratch grows once to high-water mark
	c.stalled = c.stalled[:0]
	for _, m := range scratch {
		w.tryStart(m)
	}
	w.kickScratch = scratch[:0]
}
