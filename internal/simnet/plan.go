package simnet

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/fluid"
	"repro/internal/machine"
)

// This file is the capacity planner: the paper's process layouts and
// code-balance model (Eqs. 1/2, Figs. 5/6) on the simnet Session, so the
// simulated strong-scaling points exercise the SAME core.Comm
// persistent-channel surface the real runtime uses — Start/Wait halo
// exchanges, modeled barriers — instead of a parallel MPI re-enactment.
// cmd/spmv-sim drives it, and so does the figure pipeline (internal/expt,
// cmd/spmv-repro, spmv-scale, spmv-timeline).

// Layout selects how MPI processes map onto a node (the three panels of
// Figs. 5 and 6).
type Layout int

const (
	// ProcPerCore is pure MPI: one single-threaded process per physical core.
	ProcPerCore Layout = iota
	// ProcPerLD is one process per NUMA locality domain, one thread per
	// core of the domain — the paper's best-practice hybrid layout.
	ProcPerLD
	// ProcPerNode is one process per node, threads spanning all domains.
	ProcPerNode
)

func (l Layout) String() string {
	switch l {
	case ProcPerCore:
		return "proc-per-core"
	case ProcPerLD:
		return "proc-per-LD"
	case ProcPerNode:
		return "proc-per-node"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Layouts lists all process layouts in presentation order.
var Layouts = []Layout{ProcPerCore, ProcPerLD, ProcPerNode}

// layoutTokens is the single source of truth for every spelling
// ParseLayout accepts, canonical String() names first.
var layoutTokens = []struct {
	tok    string
	layout Layout
}{
	{"proc-per-core", ProcPerCore},
	{"core", ProcPerCore},
	{"proc-per-ld", ProcPerLD},
	{"ld", ProcPerLD},
	{"proc-per-node", ProcPerNode},
	{"node", ProcPerNode},
}

// LayoutTokens returns every spelling ParseLayout accepts.
func LayoutTokens() []string {
	out := make([]string, len(layoutTokens))
	for i, e := range layoutTokens {
		out[i] = e.tok
	}
	return out
}

// ParseLayout maps a layout name to its Layout value; an unknown name
// yields an error that enumerates every valid token.
func ParseLayout(s string) (Layout, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	for _, e := range layoutTokens {
		if e.tok == name {
			return e.layout, nil
		}
	}
	return 0, fmt.Errorf("simnet: unknown layout %q (valid: %s)", s, strings.Join(LayoutTokens(), ", "))
}

// RanksPerNode returns how many MPI processes this layout places on a node.
func (l Layout) RanksPerNode(node *machine.NodeSpec) int {
	switch l {
	case ProcPerCore:
		return node.CoresPerNode()
	case ProcPerLD:
		return node.LDsPerNode()
	default:
		return 1
	}
}

// CommPlacement selects where task mode's communication thread runs (§3.2).
type CommPlacement int

const (
	// CommOnSMT binds the communication thread to a virtual (SMT) core:
	// all physical cores keep computing.
	CommOnSMT CommPlacement = iota
	// CommDedicatedCore devotes one physical core to communication,
	// removing it from the compute team.
	CommDedicatedCore
)

func (c CommPlacement) String() string {
	if c == CommOnSMT {
		return "comm-on-SMT"
	}
	return "comm-on-core"
}

// haloTag is the message tag of the planner's halo exchanges (matching is
// FIFO per channel, so one tag suffices across iterations).
const haloTag = 0

// Seg is one halo segment exchanged with a peer.
type Seg struct {
	Peer  int
	Elems int
}

// Workload carries the structural quantities of a partitioned matrix —
// everything the planner needs, with no values attached.
type Workload struct {
	Name      string
	Ranks     int
	Rows      []int
	NnzLocal  []int64
	NnzRemote []int64
	Sends     [][]Seg
	Recvs     [][]Seg
	TotalNnz  int64
	Nnzr      float64
	// Kappa is the matrix's κ (extra B(:) traffic in bytes per nonzero,
	// Eq. 1), measured by the cache simulator or taken from §2.
	Kappa float64
}

// WorkloadFromPlan extracts the planner workload from a communication
// plan (values not required).
func WorkloadFromPlan(plan *core.Plan, name string, kappa float64) *Workload {
	r := plan.Part.NumRanks()
	wl := &Workload{
		Name: name, Ranks: r, Kappa: kappa,
		Rows:      make([]int, r),
		NnzLocal:  make([]int64, r),
		NnzRemote: make([]int64, r),
		Sends:     make([][]Seg, r),
		Recvs:     make([][]Seg, r),
	}
	for i, rp := range plan.Ranks {
		wl.Rows[i] = rp.NLocal
		wl.NnzLocal[i] = rp.NnzLocal
		wl.NnzRemote[i] = rp.NnzRemote
		wl.TotalNnz += rp.NnzLocal + rp.NnzRemote
		for _, tx := range rp.SendTo {
			wl.Sends[i] = append(wl.Sends[i], Seg{Peer: tx.Peer, Elems: tx.Count})
		}
		for _, rx := range rp.RecvFrom {
			wl.Recvs[i] = append(wl.Recvs[i], Seg{Peer: rx.Peer, Elems: rx.Count})
		}
	}
	if plan.Part.Rows() > 0 {
		wl.Nnzr = float64(wl.TotalNnz) / float64(plan.Part.Rows())
	}
	return wl
}

// PointConfig parameterizes one simulated strong-scaling point.
type PointConfig struct {
	Cluster machine.ClusterSpec
	Nodes   int
	Layout  Layout
	Mode    core.Mode

	// EntryBytes is the per-nonzero matrix traffic of Eq. 1 (value +
	// index). 12 for CRS (8+4); SELL-C-σ multiplies by its padding factor.
	// 0 defaults to 12.
	EntryBytes float64

	// CommPlacement applies to task mode only. Defaults to CommOnSMT when
	// the node has SMT, CommDedicatedCore otherwise.
	CommPlacement *CommPlacement

	// AsyncProgress models an MPI library with a working progress thread.
	AsyncProgress bool

	// Warmup and Iters control the measurement loop (defaults 2 and 10).
	Warmup, Iters int

	// OmpBarrier is the synchronization cost per parallel region
	// (default 1.5 µs).
	OmpBarrier float64

	// TorusOccupancy and PlacementSeed model fragmented torus allocations
	// (see Config).
	TorusOccupancy float64
	PlacementSeed  uint64

	// Trace, when non-nil, records per-rank phase intervals (the simulated
	// counterpart of the paper's Fig. 4 timelines). It adds no events.
	Trace *Trace
}

// RanksFor returns the number of MPI ranks this configuration runs.
func (c *PointConfig) RanksFor() int {
	return c.Nodes * c.Layout.RanksPerNode(&c.Cluster.Node)
}

// Result summarizes one simulated strong-scaling point.
type Result struct {
	TimePerIter float64
	GFlops      float64
	Ranks       int
	ThreadsEach int
	// Events is the DES event count of the run — a determinism fingerprint
	// (two runs of the same point must agree exactly).
	Events int64
}

// proc is the per-rank planner state: which LD memory buses the rank's
// compute threads live on, and the flows of its compute phase in flight.
type proc struct {
	lds     []*fluid.Resource
	workers []int
	totalW  int
	flows   []*fluid.Flow
}

// startCompute starts one flow per worker thread, splitting bytes evenly.
func (p *proc) startCompute(sys *fluid.System, bytes float64) {
	if p.totalW == 0 || bytes <= 0 {
		return
	}
	share := bytes / float64(p.totalW)
	for i := range p.lds {
		for w := 0; w < p.workers[i]; w++ {
			// Start keeps the slice it is given: lend it p.lds' own storage.
			p.flows = append(p.flows, sys.Start(share, p.lds[i:i+1]...))
		}
	}
}

// joinCompute waits for the flows startCompute began and returns them to
// the system's pool, like the message flows. It reports whether there were
// any.
func (p *proc) joinCompute(pr *des.Proc, sys *fluid.System) bool {
	for _, f := range p.flows {
		pr.Wait(f.Done)
	}
	for _, f := range p.flows {
		sys.Recycle(f)
	}
	ran := len(p.flows) > 0
	p.flows = p.flows[:0]
	return ran
}

// onComputeDone runs fn when the last flow in flight completes (at once if
// there is none): the team's finish as seen from outside the proc that
// joins it. fn runs inside a Done callback, so it schedules no event.
func (p *proc) onComputeDone(fn func()) {
	left := len(p.flows)
	if left == 0 {
		fn()
		return
	}
	for _, f := range p.flows {
		f.Done.OnFire(func() {
			if left--; left == 0 {
				fn()
			}
		})
	}
}

// RunPoint simulates one strong-scaling point and returns its steady-state
// performance. The halo exchange runs over real persistent core.Comm
// channels (only structure matters here, so every send and every receive
// slices one shared scratch buffer rather than owning a payload of its own;
// a delivery from it into itself moves nothing), compute phases are fluid
// flows on the LD memory buses with the byte counts of the code-balance
// model:
//
//	full kernel:  nnz·(eb+κ) + rows·24        (Eq. 1 × 2·nnz)
//	split local:  nnzLocal·(eb+κ) + rows·24
//	split remote: nnzRemote·(eb+κ) + rows·16  (result written twice, Eq. 2)
//	gather:       24 bytes per gathered element
//
// With cfg.Trace set, every rank records its gather, exchange, local,
// remote and full phases.
func RunPoint(cfg PointConfig, wl *Workload) (Result, error) {
	if err := cfg.Cluster.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Nodes < 1 {
		return Result{}, fmt.Errorf("simnet: nodes %d < 1", cfg.Nodes)
	}
	ranks := cfg.RanksFor()
	if ranks != wl.Ranks {
		return Result{}, fmt.Errorf("simnet: config needs %d ranks but workload has %d", ranks, wl.Ranks)
	}
	node := &cfg.Cluster.Node
	commPlace := CommOnSMT
	if node.SMTWays < 2 {
		commPlace = CommDedicatedCore
	}
	if cfg.CommPlacement != nil {
		commPlace = *cfg.CommPlacement
	}
	if cfg.Mode == core.TaskMode && commPlace == CommOnSMT && node.SMTWays < 2 {
		return Result{}, fmt.Errorf("simnet: %s has no SMT for the communication thread", node.Name)
	}
	warmup, iters := cfg.Warmup, cfg.Iters
	if warmup <= 0 {
		warmup = 2
	}
	if iters <= 0 {
		iters = 10
	}
	ompBarrier := cfg.OmpBarrier
	if ompBarrier == 0 {
		ompBarrier = 1.5e-6
	}
	entryB := cfg.EntryBytes
	if entryB == 0 {
		entryB = 12
	}

	procsPerNode := ranks / cfg.Nodes
	sess, err := NewSession(Config{
		Machine:        cfg.Cluster,
		RanksPerNode:   procsPerNode,
		AsyncProgress:  cfg.AsyncProgress,
		TorusOccupancy: cfg.TorusOccupancy,
		PlacementSeed:  cfg.PlacementSeed,
	}, ranks)
	if err != nil {
		return Result{}, err
	}
	sys := sess.Sys()

	// Memory resources: one per LD per node, with the spMVM-achievable
	// bandwidth curve (Fig. 3).
	ldRes := make([][]*fluid.Resource, cfg.Nodes)
	for n := range ldRes {
		ldRes[n] = make([]*fluid.Resource, node.LDsPerNode())
		for l := range ldRes[n] {
			ldRes[n][l] = sys.NewResource(
				fmt.Sprintf("mem[n%d,ld%d]", n, l),
				fluid.TableCapacity(node.SpmvBW),
			)
		}
	}

	procs := make([]*proc, ranks)
	for r := 0; r < ranks; r++ {
		p := &proc{}
		n := r / procsPerNode
		idx := r % procsPerNode
		switch cfg.Layout {
		case ProcPerCore:
			p.lds = []*fluid.Resource{ldRes[n][idx/node.CoresPerLD]}
			p.workers = []int{1}
		case ProcPerLD:
			p.lds = []*fluid.Resource{ldRes[n][idx]}
			p.workers = []int{node.CoresPerLD}
		default: // ProcPerNode
			p.lds = append([]*fluid.Resource(nil), ldRes[n]...)
			p.workers = make([]int, len(p.lds))
			for i := range p.workers {
				p.workers[i] = node.CoresPerLD
			}
		}
		// Task mode with a dedicated communication core gives up one
		// compute thread (paper: no difference beyond saturation).
		if cfg.Mode == core.TaskMode && commPlace == CommDedicatedCore {
			if p.workers[0] > 1 {
				p.workers[0]--
			} else if len(p.workers) == 1 {
				return Result{}, fmt.Errorf("simnet: task mode with a dedicated comm core leaves no compute thread in layout %v", cfg.Layout)
			}
		}
		for _, w := range p.workers {
			p.totalW += w
		}
		procs[r] = p
	}

	maxElems := 0
	for r := range procs {
		for _, seg := range wl.Sends[r] {
			maxElems = max(maxElems, seg.Elems)
		}
		for _, seg := range wl.Recvs[r] {
			maxElems = max(maxElems, seg.Elems)
		}
	}
	scratch := make([]float64, maxElems)

	kappa := wl.Kappa
	times := make([]float64, 2)
	for r := 0; r < ranks; r++ {
		r := r
		p := procs[r]
		rows := float64(wl.Rows[r])
		nl := float64(wl.NnzLocal[r])
		nr := float64(wl.NnzRemote[r])
		var sendElems int
		for _, s := range wl.Sends[r] {
			sendElems += s.Elems
		}
		gatherBytes := 24 * float64(sendElems)
		fullBytes := (nl+nr)*(entryB+kappa) + rows*24
		localBytes := nl*(entryB+kappa) + rows*24
		remoteBytes := nr*(entryB+kappa) + rows*16

		sess.Spawn(r, func(pr *des.Proc, c core.Comm) error {
			// Compile the halo schedule into persistent channels once, like
			// the resident Workers of internal/core.
			recvs := make([]core.PersistentRequest, len(wl.Recvs[r]))
			for i, rx := range wl.Recvs[r] {
				pc, err := c.RecvInit(rx.Peer, haloTag, scratch[:rx.Elems])
				if err != nil {
					return err
				}
				recvs[i] = pc
			}
			sends := make([]core.PersistentRequest, len(wl.Sends[r]))
			for i, tx := range wl.Sends[r] {
				pc, err := c.SendInit(tx.Peer, haloTag, scratch[:tx.Elems])
				if err != nil {
					return err
				}
				sends[i] = pc
			}

			// computePhase runs one barrier-synchronized parallel region and
			// traces it.
			computePhase := func(phase string, bytes float64) {
				t0 := pr.Now()
				p.startCompute(sys, bytes)
				if p.joinCompute(pr, sys) {
					pr.Sleep(ompBarrier)
				}
				cfg.Trace.add(r, phase, t0, pr.Now())
			}
			startAll := func(reqs []core.PersistentRequest) error {
				for _, q := range reqs {
					if err := q.Start(); err != nil {
						return err
					}
				}
				return nil
			}
			waitAll := func(reqs []core.PersistentRequest) error {
				var first error
				for _, q := range reqs {
					if err := q.Wait(); err != nil && first == nil {
						first = err
					}
				}
				return first
			}
			// waitHalo completes the exchange begun at t0 and traces it.
			waitHalo := func(t0 float64) error {
				if err := waitAll(recvs); err != nil {
					return err
				}
				err := waitAll(sends)
				cfg.Trace.add(r, "exchange", t0, pr.Now())
				return err
			}

			step := func() error {
				if err := startAll(recvs); err != nil {
					return err
				}
				computePhase("gather", gatherBytes)
				if err := startAll(sends); err != nil {
					return err
				}
				switch cfg.Mode {
				case core.VectorNoOverlap:
					if err := waitHalo(pr.Now()); err != nil {
						return err
					}
					computePhase("full", fullBytes)
				case core.VectorNaiveOverlap:
					// Local part first; with standard progress semantics
					// the transfers do not move until the waits.
					computePhase("local", localBytes)
					if err := waitHalo(pr.Now()); err != nil {
						return err
					}
					computePhase("remote", remoteBytes)
				default: // core.TaskMode
					// This proc doubles as the communication thread: it
					// sits inside the MPI waits, driving progress, while
					// the team's local flows compute concurrently.
					t0 := pr.Now()
					p.startCompute(sys, localBytes)
					if cfg.Trace != nil {
						p.onComputeDone(func() { cfg.Trace.add(r, "local", t0, pr.Now()) })
					}
					if err := waitHalo(t0); err != nil {
						return err
					}
					p.joinCompute(pr, sys) // the omp_barrier of Fig. 4c
					pr.Sleep(ompBarrier)
					computePhase("remote", remoteBytes)
				}
				return nil
			}

			for it := 0; it < warmup; it++ {
				if err := step(); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if r == 0 {
				times[0] = pr.Now()
			}
			for it := 0; it < iters; it++ {
				if err := step(); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if r == 0 {
				times[1] = pr.Now()
			}
			return nil
		})
	}

	if err := sess.Run(); err != nil {
		return Result{}, fmt.Errorf("simnet: %w", err)
	}
	perIter := (times[1] - times[0]) / float64(iters)
	res := Result{
		TimePerIter: perIter,
		Ranks:       ranks,
		ThreadsEach: procs[0].totalW,
		Events:      sess.Sim().Events(),
	}
	if perIter > 0 && !math.IsNaN(perIter) {
		res.GFlops = 2 * float64(wl.TotalNnz) / perIter / 1e9
	}
	return res, nil
}
