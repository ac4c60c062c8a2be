package simnet

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/machine"
	"repro/internal/matrix"
)

// uniformRing builds a synthetic workload: every rank owns the same rows
// and nonzeros and exchanges haloElems elements with each ring neighbour
// (none with itself, so a single rank does not communicate).
func uniformRing(ranks, rowsPerRank int, nnzLocal, nnzRemote int64, haloElems int) *Workload {
	wl := &Workload{
		Name: "ring", Ranks: ranks, Kappa: 2.5,
		Rows:      make([]int, ranks),
		NnzLocal:  make([]int64, ranks),
		NnzRemote: make([]int64, ranks),
		Sends:     make([][]Seg, ranks),
		Recvs:     make([][]Seg, ranks),
	}
	for r := 0; r < ranks; r++ {
		wl.Rows[r] = rowsPerRank
		wl.NnzLocal[r] = nnzLocal
		wl.NnzRemote[r] = nnzRemote
		wl.TotalNnz += nnzLocal + nnzRemote
		if ranks > 1 {
			left := (r + ranks - 1) % ranks
			right := (r + 1) % ranks
			for _, peer := range []int{left, right} {
				if peer == r {
					continue
				}
				wl.Sends[r] = append(wl.Sends[r], Seg{Peer: peer, Elems: haloElems})
				wl.Recvs[r] = append(wl.Recvs[r], Seg{Peer: peer, Elems: haloElems})
			}
		}
	}
	wl.Nnzr = float64(wl.TotalNnz) / float64(ranks*rowsPerRank)
	return wl
}

func run(t *testing.T, cfg PointConfig, wl *Workload) Result {
	t.Helper()
	res, err := RunPoint(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSingleNodeMatchesBandwidthModel: with no communication, the simulated
// node performance must equal node spMVM bandwidth / code balance.
func TestSingleNodeMatchesBandwidthModel(t *testing.T) {
	const rows = 100000
	nnz := int64(rows * 15)
	wl := uniformRing(1, rows, nnz, 0, 0)
	cfg := PointConfig{
		Cluster: machine.WestmereCluster(),
		Nodes:   1, Layout: ProcPerNode, Mode: core.VectorNoOverlap,
	}
	res := run(t, cfg, wl)
	node := cfg.Cluster.Node
	bytes := float64(nnz)*(12+wl.Kappa) + float64(rows)*24
	wantTime := bytes / node.NodeSpmvBW()
	if math.Abs(res.TimePerIter-wantTime)/wantTime > 0.02 {
		t.Errorf("time/iter %.6g, want %.6g (bandwidth model)", res.TimePerIter, wantTime)
	}
	wantGF := 2 * float64(nnz) / wantTime / 1e9
	if math.Abs(res.GFlops-wantGF)/wantGF > 0.02 {
		t.Errorf("GFlops %.3f, want %.3f", res.GFlops, wantGF)
	}
	// Sanity: a Westmere node delivers ≈ 5 GFlop/s on HMeP-like matrices.
	if res.GFlops < 4.5 || res.GFlops > 5.5 {
		t.Errorf("Westmere node = %.2f GFlop/s, expected ≈ 5", res.GFlops)
	}
}

// TestLayoutsEquivalentWithoutComm: without communication all three hybrid
// layouts saturate the same memory buses.
func TestLayoutsEquivalentWithoutComm(t *testing.T) {
	const rows = 60000
	nnz := int64(rows * 15)
	var ref float64
	for _, layout := range Layouts {
		cfg := PointConfig{
			Cluster: machine.WestmereCluster(),
			Nodes:   1, Layout: layout, Mode: core.VectorNoOverlap,
		}
		ranks := cfg.RanksFor()
		wl := uniformRing(ranks, rows/ranks, nnz/int64(ranks), 0, 0)
		res := run(t, cfg, wl)
		if ref == 0 {
			ref = res.GFlops
			continue
		}
		if math.Abs(res.GFlops-ref)/ref > 0.05 {
			t.Errorf("%v: %.3f GFlop/s, others %.3f (no-comm layouts should agree)",
				layout, res.GFlops, ref)
		}
	}
}

// TestTaskModeOverlapsNaiveDoesNot is Fig. 5's core result: with heavy
// communication, task mode beats naive overlap and no overlap; naive
// overlap is no better than no overlap (plus the split-kernel penalty).
func TestTaskModeOverlapsNaiveDoesNot(t *testing.T) {
	const ranks = 8
	rows := 40000
	nnzL := int64(rows * 12)
	nnzR := int64(rows * 3)
	halo := 120000 // ≈ 1 MB per neighbour: firmly rendezvous, substantial
	wl := uniformRing(ranks, rows, nnzL, nnzR, halo)
	base := PointConfig{
		Cluster: machine.WestmereCluster(),
		Nodes:   4, Layout: ProcPerLD,
	}
	times := map[core.Mode]float64{}
	for _, mode := range core.Modes {
		cfg := base
		cfg.Mode = mode
		times[mode] = run(t, cfg, wl).TimePerIter
	}
	if times[core.TaskMode] >= times[core.VectorNoOverlap] {
		t.Errorf("task mode (%.3g) not faster than no overlap (%.3g)",
			times[core.TaskMode], times[core.VectorNoOverlap])
	}
	if times[core.TaskMode] >= times[core.VectorNaiveOverlap] {
		t.Errorf("task mode (%.3g) not faster than naive overlap (%.3g)",
			times[core.TaskMode], times[core.VectorNaiveOverlap])
	}
	if times[core.VectorNaiveOverlap] < times[core.VectorNoOverlap] {
		t.Errorf("naive overlap (%.3g) beat no overlap (%.3g); standard MPI cannot overlap",
			times[core.VectorNaiveOverlap], times[core.VectorNoOverlap])
	}
}

// TestAsyncProgressRescuesNaiveOverlap: with an MPI progress thread, naive
// overlap gains most of task mode's advantage (the paper's §5 outlook).
func TestAsyncProgressRescuesNaiveOverlap(t *testing.T) {
	const ranks = 8
	rows := 40000
	wl := uniformRing(ranks, rows, int64(rows*12), int64(rows*3), 120000)
	base := PointConfig{
		Cluster: machine.WestmereCluster(),
		Nodes:   4, Layout: ProcPerLD, Mode: core.VectorNaiveOverlap,
	}
	plain := run(t, base, wl).TimePerIter
	async := base
	async.AsyncProgress = true
	fast := run(t, async, wl).TimePerIter
	if fast >= plain*0.98 {
		t.Errorf("async progress did not help naive overlap: %.3g vs %.3g", fast, plain)
	}
	task := base
	task.Mode = core.TaskMode
	taskTime := run(t, task, wl).TimePerIter
	if fast > taskTime*1.25 {
		t.Errorf("async naive overlap (%.3g) far from task mode (%.3g)", fast, taskTime)
	}
}

// TestCommDominatedScalingSaturates: with fixed total work, adding nodes
// beyond the communication crossover stops helping (strong scaling limit).
func TestCommDominatedScalingSaturates(t *testing.T) {
	totalRows := 1 << 20
	totalNnz := int64(totalRows * 15)
	perf := func(nodes int) float64 {
		cfg := PointConfig{
			Cluster: machine.WestmereCluster(),
			Nodes:   nodes, Layout: ProcPerLD, Mode: core.VectorNoOverlap,
		}
		ranks := cfg.RanksFor()
		rows := totalRows / ranks
		// Fixed halo per rank (HMeP-like: halo does not shrink with rank
		// count), so communication dominates at scale.
		wl := uniformRing(ranks, rows, totalNnz/int64(ranks)*4/5, totalNnz/int64(ranks)/5, 100000)
		return run(t, cfg, wl).GFlops
	}
	p1, p8, p32 := perf(1), perf(8), perf(32)
	if p8 <= p1 {
		t.Errorf("no speedup 1→8 nodes: %.2f vs %.2f", p8, p1)
	}
	eff32 := p32 / (32 * p1)
	if eff32 > 0.5 {
		t.Errorf("32-node efficiency %.2f; communication should have bitten", eff32)
	}
}

// TestDedicatedCoreVsSMTEquivalentBeyondSaturation reproduces §4: since the
// memory bus saturates at ~4 threads, giving up one of six cores for
// communication costs almost nothing.
func TestDedicatedCoreVsSMTEquivalentBeyondSaturation(t *testing.T) {
	const ranks = 4
	rows := 50000
	wl := uniformRing(ranks, rows, int64(rows*12), int64(rows*3), 60000)
	smt := CommOnSMT
	ded := CommDedicatedCore
	base := PointConfig{
		Cluster: machine.WestmereCluster(),
		Nodes:   2, Layout: ProcPerLD, Mode: core.TaskMode,
	}
	cfgSMT := base
	cfgSMT.CommPlacement = &smt
	cfgDed := base
	cfgDed.CommPlacement = &ded
	tSMT := run(t, cfgSMT, wl).TimePerIter
	tDed := run(t, cfgDed, wl).TimePerIter
	if math.Abs(tSMT-tDed)/tSMT > 0.08 {
		t.Errorf("SMT comm %.4g vs dedicated core %.4g differ by >8%%", tSMT, tDed)
	}
}

func TestTaskModeNeedsSMTOnMagnyCours(t *testing.T) {
	smt := CommOnSMT
	cfg := PointConfig{
		Cluster: machine.CrayXE6(),
		Nodes:   1, Layout: ProcPerLD, Mode: core.TaskMode,
		CommPlacement: &smt,
	}
	wl := uniformRing(cfg.RanksFor(), 1000, 15000, 0, 0)
	if _, err := RunPoint(cfg, wl); err == nil {
		t.Error("task mode on SMT accepted on a machine without SMT")
	}
}

func TestWorkloadFromPlan(t *testing.T) {
	g, err := genmat.NewRandomBand(genmat.RandomBandConfig{N: 400, Bandwidth: 80, PerRow: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Materialize(g)
	part := core.PartitionByNnz(a, 4)
	plan, err := core.BuildPlan(a, part, false)
	if err != nil {
		t.Fatal(err)
	}
	wl := WorkloadFromPlan(plan, "rb", 1.0)
	if wl.Ranks != 4 {
		t.Fatalf("ranks = %d", wl.Ranks)
	}
	if wl.TotalNnz != a.Nnz() {
		t.Errorf("TotalNnz %d != %d", wl.TotalNnz, a.Nnz())
	}
	// Sends and receives pair up globally.
	var sends, recvs int
	for r := 0; r < 4; r++ {
		for _, s := range wl.Sends[r] {
			sends += s.Elems
		}
		for _, s := range wl.Recvs[r] {
			recvs += s.Elems
		}
	}
	if sends != recvs || sends == 0 {
		t.Errorf("sends %d, recvs %d", sends, recvs)
	}
	// And the workload must actually run.
	cfg := PointConfig{
		Cluster: machine.WestmereCluster(),
		Nodes:   2, Layout: ProcPerLD, Mode: core.TaskMode,
	}
	res := run(t, cfg, wl)
	if res.GFlops <= 0 {
		t.Errorf("GFlops = %g", res.GFlops)
	}
}

func TestConfigValidation(t *testing.T) {
	wl := uniformRing(2, 100, 1000, 0, 0)
	if _, err := RunPoint(PointConfig{Cluster: machine.WestmereCluster(), Nodes: 0, Layout: ProcPerLD, Mode: core.VectorNoOverlap}, wl); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := RunPoint(PointConfig{Cluster: machine.WestmereCluster(), Nodes: 3, Layout: ProcPerLD, Mode: core.VectorNoOverlap}, wl); err == nil {
		t.Error("rank mismatch accepted")
	}
}

func TestDeterministicResults(t *testing.T) {
	wl := uniformRing(8, 5000, 60000, 15000, 20000)
	cfg := PointConfig{
		Cluster: machine.CrayXE6(),
		Nodes:   2, Layout: ProcPerLD, Mode: core.VectorNoOverlap,
	}
	a := run(t, cfg, wl)
	b := run(t, cfg, wl)
	if a.TimePerIter != b.TimePerIter {
		t.Errorf("nondeterministic: %g vs %g", a.TimePerIter, b.TimePerIter)
	}
}

// TestTorusOccupancyRange: an occupancy is a fraction of the machine. Out
// of range (or NaN) it is an error at both entry points, not a silent
// dedicated torus.
func TestTorusOccupancyRange(t *testing.T) {
	cray := machine.CrayXE6()
	for _, occ := range []float64{-0.1, 1.5, math.NaN(), 0, 0.25, 1} {
		valid := occ >= 0 && occ <= 1
		cfg := PointConfig{
			Cluster: cray, Nodes: 2, Layout: ProcPerNode, Mode: core.VectorNoOverlap,
			Iters: 1, TorusOccupancy: occ,
		}
		_, err := RunPoint(cfg, uniformRing(2, 1000, 15000, 0, 100))
		if (err == nil) != valid {
			t.Errorf("RunPoint with occupancy %g: err = %v, want valid=%v", occ, err, valid)
		}
		tr := &Transport{Config: Config{Machine: cray, TorusOccupancy: occ}}
		w, err := tr.Dial(context.Background(), 4)
		if (err == nil) != valid {
			t.Errorf("Dial with occupancy %g: err = %v, want valid=%v", occ, err, valid)
		}
		if w != nil {
			w.Close()
		}
	}
}
