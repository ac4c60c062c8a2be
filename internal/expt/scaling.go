package expt

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/simnet"
)

// nowSeconds is time.Now in seconds, separated for testability.
func nowSeconds() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// WorkloadCache builds and memoizes simulator workloads per rank count so a
// strong-scaling sweep streams each partition of the matrix only once.
type WorkloadCache struct {
	Name  string
	Src   matrix.PatternSource
	Kappa float64
	cache map[int]*simnet.Workload
}

// NewWorkloadCache wraps a pattern source.
func NewWorkloadCache(name string, src matrix.PatternSource, kappa float64) *WorkloadCache {
	return &WorkloadCache{Name: name, Src: src, Kappa: kappa, cache: map[int]*simnet.Workload{}}
}

// For returns the workload partitioned over the given rank count.
func (c *WorkloadCache) For(ranks int) (*simnet.Workload, error) {
	if wl, ok := c.cache[ranks]; ok {
		return wl, nil
	}
	part := core.PartitionByNnz(c.Src, ranks)
	plan, err := core.BuildPlan(c.Src, part, false)
	if err != nil {
		return nil, err
	}
	wl := simnet.WorkloadFromPlan(plan, c.Name, c.Kappa)
	c.cache[ranks] = wl
	return wl, nil
}

// ScalingPoint is one strong-scaling measurement.
type ScalingPoint struct {
	Nodes      int
	Layout     simnet.Layout
	Mode       core.Mode
	GFlops     float64
	Ranks      int
	Efficiency float64 // vs best single-node × nodes
}

// ScalingStudy is the Fig. 5 / Fig. 6 runner.
type ScalingStudy struct {
	Cluster    machine.ClusterSpec
	NodeCounts []int
	Layouts    []simnet.Layout
	Modes      []core.Mode
	Iters      int
	// AsyncProgress runs the ablation with an MPI progress thread.
	AsyncProgress bool
	// TorusOccupancy < 1 scatters the job over a larger shared torus
	// (Cray runs; see simnet.PointConfig).
	TorusOccupancy float64
	// PlacementSeed seeds the scattered placement.
	PlacementSeed uint64
}

// DefaultNodeCounts mirrors the figures' x axis (1–32 nodes).
var DefaultNodeCounts = []int{1, 2, 4, 8, 16, 24, 32}

// Run sweeps the study over the workload cache and returns all valid
// points (combinations the hardware cannot run, e.g. task mode without
// SMT in a pure-MPI layout, are skipped).
func (s *ScalingStudy) Run(wc *WorkloadCache) ([]ScalingPoint, error) {
	layouts := s.Layouts
	if layouts == nil {
		layouts = simnet.Layouts
	}
	modes := s.Modes
	if modes == nil {
		modes = core.Modes
	}
	nodeCounts := s.NodeCounts
	if nodeCounts == nil {
		nodeCounts = DefaultNodeCounts
	}
	var points []ScalingPoint
	for _, nodes := range nodeCounts {
		for _, layout := range layouts {
			for _, mode := range modes {
				cfg := simnet.PointConfig{
					Cluster:        s.Cluster,
					Nodes:          nodes,
					Layout:         layout,
					Mode:           mode,
					Iters:          s.Iters,
					AsyncProgress:  s.AsyncProgress,
					TorusOccupancy: s.TorusOccupancy,
					PlacementSeed:  s.PlacementSeed,
				}
				if mode == core.TaskMode && s.Cluster.Node.SMTWays < 2 && layout == simnet.ProcPerCore {
					// No virtual core for the communication thread and no
					// spare physical core: the variant does not exist.
					continue
				}
				wl, err := wc.For(cfg.RanksFor())
				if err != nil {
					return nil, err
				}
				res, err := simnet.RunPoint(cfg, wl)
				if err != nil {
					return nil, fmt.Errorf("expt: %d nodes %v %v: %w", nodes, layout, mode, err)
				}
				points = append(points, ScalingPoint{
					Nodes: nodes, Layout: layout, Mode: mode,
					GFlops: res.GFlops, Ranks: res.Ranks,
				})
			}
		}
	}
	fillEfficiency(points)
	return points, nil
}

// fillEfficiency normalizes by the best single-node performance (the
// paper's 50%-parallel-efficiency reference).
func fillEfficiency(points []ScalingPoint) {
	var best1 float64
	for _, p := range points {
		if p.Nodes == 1 && p.GFlops > best1 {
			best1 = p.GFlops
		}
	}
	if best1 == 0 {
		return
	}
	for i := range points {
		points[i].Efficiency = points[i].GFlops / (float64(points[i].Nodes) * best1)
	}
}

// Fig4 renders the simulated counterpart of the paper's Fig. 4: the last
// iteration of each kernel mode on the given number of Westmere nodes, one
// process per LD, forced into the rendezvous regime, as per-rank phase
// timelines. Task mode shows the exchange bar (E) over the local compute
// bar (L); naive overlap shows the transfer squeezed into the wait instead.
func Fig4(w io.Writer, wc *WorkloadCache, nodes, width int) error {
	cluster := machine.WestmereCluster()
	cluster.Net.EagerThreshold = 0
	for _, mode := range core.Modes {
		tr := &simnet.Trace{}
		cfg := simnet.PointConfig{
			Cluster: cluster, Nodes: nodes, Layout: simnet.ProcPerLD,
			Mode: mode, Warmup: 2, Iters: 1, Trace: tr,
		}
		wl, err := wc.For(cfg.RanksFor())
		if err != nil {
			return err
		}
		res, err := simnet.RunPoint(cfg, wl)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%s (%.2f GFlop/s, %d ranks):\n", mode, res.GFlops, res.Ranks)
		if err := simnet.RenderGantt(w, tr.LastIteration(), width); err != nil {
			return err
		}
	}
	return nil
}

// PlacementStudy runs one torus configuration under several scattered
// placements and returns the per-seed GFlops — quantifying the paper's
// "strong influence of job topology and machine load on the communication
// performance over the 2D torus network".
func PlacementStudy(cluster machine.ClusterSpec, wc *WorkloadCache,
	nodes int, layout simnet.Layout, mode core.Mode,
	occupancy float64, seeds, iters int) ([]float64, error) {
	cfg := simnet.PointConfig{
		Cluster: cluster, Nodes: nodes, Layout: layout, Mode: mode,
		Iters: iters, TorusOccupancy: occupancy,
	}
	wl, err := wc.For(cfg.RanksFor())
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, seeds)
	for s := 0; s < seeds; s++ {
		cfg.PlacementSeed = uint64(s) * 7919
		res, err := simnet.RunPoint(cfg, wl)
		if err != nil {
			return nil, err
		}
		out = append(out, res.GFlops)
	}
	return out, nil
}

// BestPerNodeCount reduces a point set to the best GFlops per node count —
// the "best Cray XE6" reference line in Figs. 5 and 6.
func BestPerNodeCount(points []ScalingPoint) map[int]ScalingPoint {
	best := map[int]ScalingPoint{}
	for _, p := range points {
		if b, ok := best[p.Nodes]; !ok || p.GFlops > b.GFlops {
			best[p.Nodes] = p
		}
	}
	return best
}

// RenderScaling writes the three-panel table of one figure plus ASCII plots.
func RenderScaling(w io.Writer, title string, points []ScalingPoint, cray map[int]ScalingPoint) error {
	fmt.Fprintf(w, "\n%s\n", title)
	byLayout := map[simnet.Layout][]ScalingPoint{}
	for _, p := range points {
		byLayout[p.Layout] = append(byLayout[p.Layout], p)
	}
	for _, layout := range simnet.Layouts {
		pts := byLayout[layout]
		if len(pts) == 0 {
			continue
		}
		fmt.Fprintf(w, "\npanel: one MPI process %s\n", layoutPhrase(layout))
		tbl := NewTable("nodes", "ranks", "mode", "GFlop/s", "efficiency")
		for _, p := range pts {
			tbl.Row(p.Nodes, p.Ranks, p.Mode.String(),
				fmt.Sprintf("%.2f", p.GFlops),
				fmt.Sprintf("%.0f%%", 100*p.Efficiency))
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
		if err := renderScalingPlot(w, pts, cray); err != nil {
			return err
		}
	}
	return nil
}

func layoutPhrase(l simnet.Layout) string {
	switch l {
	case simnet.ProcPerCore:
		return "per physical core (pure MPI)"
	case simnet.ProcPerLD:
		return "per NUMA locality domain"
	default:
		return "per node"
	}
}

func renderScalingPlot(w io.Writer, pts []ScalingPoint, cray map[int]ScalingPoint) error {
	markers := map[core.Mode]byte{
		core.VectorNoOverlap:    'o',
		core.VectorNaiveOverlap: 'x',
		core.TaskMode:           '*',
	}
	byMode := map[core.Mode][]ScalingPoint{}
	var xs []float64
	seen := map[int]bool{}
	for _, p := range pts {
		byMode[p.Mode] = append(byMode[p.Mode], p)
		if !seen[p.Nodes] {
			seen[p.Nodes] = true
			xs = append(xs, float64(p.Nodes))
		}
	}
	plot := Plot{XLabel: "nodes", YLabel: "GFlop/s", X: xs}
	for _, mode := range core.Modes {
		mp := byMode[mode]
		if len(mp) == 0 {
			continue
		}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			for _, p := range mp {
				if p.Nodes == int(x) {
					ys[i] = p.GFlops
				}
			}
		}
		plot.Series = append(plot.Series, PlotSeries{Name: mode.String(), Y: ys, Marker: markers[mode]})
	}
	if cray != nil {
		ys := make([]float64, len(xs))
		for i, x := range xs {
			if p, ok := cray[int(x)]; ok {
				ys[i] = p.GFlops
			}
		}
		plot.Series = append(plot.Series, PlotSeries{Name: "best Cray XE6", Y: ys, Marker: '+'})
	}
	return plot.render(w, 64, 16)
}
