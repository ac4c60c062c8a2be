package expt

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/machine"
	"repro/internal/simnet"
)

func TestParseScale(t *testing.T) {
	for _, s := range []string{"small", "medium", "full"} {
		if _, err := ParseScale(s); err != nil {
			t.Errorf("%s rejected: %v", s, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("bad scale accepted")
	}
}

func TestSourcesSmall(t *testing.T) {
	sources, err := Sources(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(sources) != 3 {
		t.Fatalf("%d sources", len(sources))
	}
	wantN := map[string]int{"HMEp": 50400, "HMeP": 50400, "sAMG": 46656}
	for _, si := range sources {
		rows, _ := si.Src.Dims()
		if rows != wantN[si.Name] {
			t.Errorf("%s: N = %d, want %d", si.Name, rows, wantN[si.Name])
		}
	}
}

func TestHolsteinFullScaleDimsWithoutMaterializing(t *testing.T) {
	h, err := HolsteinSource(genmat.HMeP, Full)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := h.Dims()
	if rows != 6201600 {
		t.Errorf("full-scale N = %d, want 6201600", rows)
	}
}

func TestFig1Renders(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig1(&buf, Small, 24); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"HMEp", "HMeP", "sAMG", "occupancy"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig1 output missing %q", want)
		}
	}
}

func TestFig2Renders(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig2(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Magny Cours") {
		t.Error("Fig2 output missing Magny Cours")
	}
}

func TestFig3PaperAnchors(t *testing.T) {
	rows := fig3(machine.NehalemEP(), 15, 2.5)
	// 1..4 cores + node row.
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	// Fig. 3a measured series: 0.91 / 1.50 / 1.95 / 2.25 GFlop/s.
	want := []float64{0.91, 1.50, 1.95, 2.25}
	for i, w := range want {
		if d := rows[i].SpmvGFlops - w; d > 0.06 || d < -0.06 {
			t.Errorf("cores=%d: %.3f GFlop/s, paper %.2f", i+1, rows[i].SpmvGFlops, w)
		}
	}
	// κ=0 ceiling at 4 cores ≈ 3.12 GFlop/s (21.2/6.8).
	if d := rows[3].ModelCeiling - 3.12; d > 0.05 || d < -0.05 {
		t.Errorf("ceiling %.3f, paper 3.12", rows[3].ModelCeiling)
	}
}

func TestKappaStudySmall(t *testing.T) {
	rows, err := KappaStudy(Small, cachesim.Config{SizeBytes: 1 << 17, Ways: 16, LineBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]KappaRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if byName["HMEp"].Kappa <= byName["HMeP"].Kappa {
		t.Errorf("κ(HMEp)=%.2f not above κ(HMeP)=%.2f", byName["HMEp"].Kappa, byName["HMeP"].Kappa)
	}
	// The paper gives no κ anchor for sAMG; require only a sane value.
	if s := byName["sAMG"].Kappa; s < 0 || s > 7 {
		t.Errorf("κ(sAMG)=%.2f outside plausible range", s)
	}
	var buf bytes.Buffer
	if err := RenderKappa(&buf, rows, cachesim.Config{SizeBytes: 1 << 17, Ways: 16, LineBytes: 64}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "κ") {
		t.Error("render missing header")
	}
}

func TestWorkloadCacheMemoizes(t *testing.T) {
	h, err := HolsteinSource(genmat.HMeP, Small)
	if err != nil {
		t.Fatal(err)
	}
	wc := NewWorkloadCache("HMeP", h, 2.5)
	a, err := wc.For(8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := wc.For(8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("workload not memoized")
	}
	if a.Ranks != 8 || a.TotalNnz == 0 {
		t.Errorf("workload malformed: %+v", a)
	}
}

// TestScalingStudySmall runs a reduced Fig. 5 and checks the headline
// qualitative claims.
func TestScalingStudySmall(t *testing.T) {
	h, err := HolsteinSource(genmat.HMeP, Small)
	if err != nil {
		t.Fatal(err)
	}
	wc := NewWorkloadCache("HMeP", h, 2.5)
	// At the reduced Small scale some halo segments drop below the eager
	// threshold and genuinely overlap; force the rendezvous regime the
	// paper's full-size messages are in.
	cluster := machine.WestmereCluster()
	cluster.Net.EagerThreshold = 0
	study := &ScalingStudy{
		Cluster:    cluster,
		NodeCounts: []int{1, 4, 8},
		Iters:      6,
	}
	points, err := study.Run(wc)
	if err != nil {
		t.Fatal(err)
	}
	get := func(nodes int, l simnet.Layout, m core.Mode) float64 {
		for _, p := range points {
			if p.Nodes == nodes && p.Layout == l && p.Mode == m {
				return p.GFlops
			}
		}
		t.Fatalf("missing point %d/%v/%v", nodes, l, m)
		return 0
	}
	// Task mode at least matches vector modes at scale (per LD panel).
	task := get(8, simnet.ProcPerLD, core.TaskMode)
	noov := get(8, simnet.ProcPerLD, core.VectorNoOverlap)
	naive := get(8, simnet.ProcPerLD, core.VectorNaiveOverlap)
	if task < noov {
		t.Errorf("task mode %.2f below no-overlap %.2f at 8 nodes", task, noov)
	}
	if naive > noov*1.05 {
		t.Errorf("naive overlap %.2f should not beat no-overlap %.2f", naive, noov)
	}
	// Efficiency normalization: single-node best has efficiency 1.
	var bestEff float64
	for _, p := range points {
		if p.Nodes == 1 && p.Efficiency > bestEff {
			bestEff = p.Efficiency
		}
	}
	if bestEff < 0.999 || bestEff > 1.001 {
		t.Errorf("best single-node efficiency %.3f, want 1", bestEff)
	}
	// Rendering.
	var buf bytes.Buffer
	if err := RenderScaling(&buf, "test", points, BestPerNodeCount(points)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pure MPI") {
		t.Error("render missing panel header")
	}
}

// TestFig5Verdicts pins the winning kernel mode per (layout, node count) of
// the Small-scale Fig. 5 sweep — HMeP on the Westmere cluster at
// spmv-repro's 8 iterations — so a model change that flips a verdict fails
// here instead of only shifting a number. A cell's verdict holds while the
// pinned mode stays within 1% of the cell's best: the per-core cells at 2
// and 4 nodes are such near-ties (task vs naive overlap, 0.02% and 0.2%).
func TestFig5Verdicts(t *testing.T) {
	const (
		novl  = core.VectorNoOverlap
		naive = core.VectorNaiveOverlap
		task  = core.TaskMode
	)
	nodeCounts := []int{1, 2, 4, 8, 16}
	want := map[simnet.Layout][]core.Mode{
		simnet.ProcPerCore: {task, task, naive, naive, naive},
		simnet.ProcPerLD:   {novl, task, task, task, naive},
		simnet.ProcPerNode: {novl, task, task, task, task},
	}
	h, err := HolsteinSource(genmat.HMeP, Small)
	if err != nil {
		t.Fatal(err)
	}
	study := &ScalingStudy{Cluster: machine.WestmereCluster(), NodeCounts: nodeCounts, Iters: 8}
	points, err := study.Run(NewWorkloadCache("HMeP", h, PaperKappa("HMeP")))
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		layout simnet.Layout
		nodes  int
	}
	gflops := map[cell]map[core.Mode]float64{}
	for _, p := range points {
		c := cell{p.Layout, p.Nodes}
		if gflops[c] == nil {
			gflops[c] = map[core.Mode]float64{}
		}
		gflops[c][p.Mode] = p.GFlops
	}
	for layout, modes := range want {
		for i, nodes := range nodeCounts {
			perf := gflops[cell{layout, nodes}]
			best := modes[i]
			for m, g := range perf {
				if g > perf[best] {
					best = m
				}
			}
			if perf[modes[i]] < 0.99*perf[best] {
				t.Errorf("%v, %d nodes: pinned %v at %.3f GFlop/s, but %v wins at %.3f",
					layout, nodes, modes[i], perf[modes[i]], best, perf[best])
			}
		}
	}
}

func TestFig4Renders(t *testing.T) {
	h, err := HolsteinSource(genmat.HMeP, Small)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Fig4(&buf, NewWorkloadCache("HMeP", h, PaperKappa("HMeP")), 2, 60); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, mode := range core.Modes {
		if !strings.Contains(out, mode.String()+" (") {
			t.Errorf("Fig4 output missing the %v panel", mode)
		}
	}
	if !strings.Contains(out, "rank  3 C") || !strings.Contains(out, "E") || !strings.Contains(out, "L") {
		t.Errorf("Fig4 output missing lanes or phases:\n%s", out)
	}
}

func TestScalingStudySkipsImpossibleCray(t *testing.T) {
	p, err := PoissonSource(Small)
	if err != nil {
		t.Fatal(err)
	}
	wc := NewWorkloadCache("sAMG", p, 0.5)
	study := &ScalingStudy{
		Cluster:    machine.CrayXE6(),
		NodeCounts: []int{1, 2},
		Iters:      4,
	}
	points, err := study.Run(wc)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		if pt.Layout == simnet.ProcPerCore && pt.Mode == core.TaskMode {
			t.Error("impossible Cray pure-MPI task mode was run")
		}
	}
	if len(points) == 0 {
		t.Error("no points produced")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("a", "bb")
	tbl.Row("x", 1)
	tbl.Row("longer", 2.5)
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d: %q", len(lines), buf.String())
	}
	var csv bytes.Buffer
	if err := tbl.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "a,bb\n") {
		t.Errorf("csv header wrong: %q", csv.String())
	}
}

func TestCSVEscaping(t *testing.T) {
	tbl := NewTable("x")
	tbl.Row(`va"l,ue`)
	var csv bytes.Buffer
	if err := tbl.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), `"va""l,ue"`) {
		t.Errorf("csv escaping wrong: %q", csv.String())
	}
}

func TestPlotRenders(t *testing.T) {
	p := Plot{
		Title: "t", XLabel: "x", YLabel: "y",
		X:      []float64{1, 2, 4},
		Series: []PlotSeries{{Name: "s", Y: []float64{1, 3, 2}, Marker: '*'}},
	}
	var buf bytes.Buffer
	if err := p.render(&buf, 32, 8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "*") {
		t.Error("plot missing markers")
	}
	if err := p.render(&buf, 4, 2); err == nil {
		t.Error("tiny grid accepted")
	}
}
