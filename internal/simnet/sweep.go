package simnet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
)

// This file is the capacity-planning sweep shared by cmd/spmv-sim and
// spmv-bench's -snapshot: rank counts × kernel modes simulated on a
// machine-described cluster, reduced to the Fig. 5/6 question — at which
// scale does each kernel organization win?

// SweepConfig parameterizes a strong-scaling sweep.
type SweepConfig struct {
	Cluster machine.ClusterSpec
	Layout  Layout
	// RankCounts are the MPI rank counts to simulate. Each must be a
	// multiple of the layout's ranks-per-node for the cluster's node.
	RankCounts []int
	// Modes are the kernel organizations to compare (default core.Modes).
	Modes []core.Mode
	// Format labels the points and sets the Eq. 1 per-nonzero matrix
	// traffic (EntryBytes; 0 defaults to CRS's 12).
	Format     string
	EntryBytes float64
	// AsyncProgress models an MPI library with a working progress thread.
	AsyncProgress bool
	// Warmup and Iters control each point's measurement loop. The sweep's
	// defaults (1 and 4) are tighter than RunPoint's own: a planner wants
	// many points under a wall budget more than it wants the last decimal.
	Warmup, Iters int
	// Budget, when non-nil, bounds the planner's own wall time: the sweep
	// stops with ErrBudgetExceeded once it runs out.
	Budget *WallBudget
}

// ErrBudgetExceeded reports a sweep stopped by its wall-clock budget.
var ErrBudgetExceeded = fmt.Errorf("simnet: sweep wall-clock budget exceeded")

// SweepPoint is one simulated strong-scaling measurement, shaped for the
// machine-readable crossover table (cmd/spmv-sim's JSON, BENCH_<n>.json).
type SweepPoint struct {
	Ranks       int     `json:"ranks"`
	Nodes       int     `json:"nodes"`
	ThreadsEach int     `json:"threads_each"`
	Layout      string  `json:"layout"`
	Mode        string  `json:"mode"`
	Format      string  `json:"format"`
	TimePerIter float64 `json:"time_per_iter_s"`
	GFlops      float64 `json:"gflops"`
	Events      int64   `json:"events"`
}

// Crossover marks the smallest swept rank count at which the winning
// kernel mode differs from the winner at the smallest rank count — the
// crossover the paper's Figs. 5/6 exist to locate.
type Crossover struct {
	Ranks int    `json:"ranks"`
	From  string `json:"from"`
	To    string `json:"to"`
}

// Sweep simulates every rank count × mode point. workload supplies the
// partitioned matrix structure per rank count (typically a memoized
// PartitionByNnz + WorkloadFromPlan over a pattern source).
func Sweep(cfg SweepConfig, workload func(ranks int) (*Workload, error)) ([]SweepPoint, error) {
	modes := cfg.Modes
	if len(modes) == 0 {
		modes = core.Modes
	}
	format := cfg.Format
	if format == "" {
		format = "crs"
	}
	perNode := cfg.Layout.ranksPerNode(&cfg.Cluster.Node)
	var points []SweepPoint
	for _, ranks := range cfg.RankCounts {
		if ranks <= 0 || ranks%perNode != 0 {
			return points, fmt.Errorf("simnet: rank count %d is not a multiple of %d (%s on %s)",
				ranks, perNode, cfg.Layout, cfg.Cluster.Node.Name)
		}
		wl, err := workload(ranks)
		if err != nil {
			return points, err
		}
		for _, mode := range modes {
			if cfg.Budget != nil && cfg.Budget.exceeded() {
				return points, fmt.Errorf("%w after %d of %d points",
					ErrBudgetExceeded, len(points), len(cfg.RankCounts)*len(modes))
			}
			warmup, iters := cfg.Warmup, cfg.Iters
			if warmup <= 0 {
				warmup = 1
			}
			if iters <= 0 {
				iters = 4
			}
			res, err := RunPoint(PointConfig{
				Cluster:       cfg.Cluster,
				Nodes:         ranks / perNode,
				Layout:        cfg.Layout,
				Mode:          mode,
				EntryBytes:    cfg.EntryBytes,
				AsyncProgress: cfg.AsyncProgress,
				Warmup:        warmup,
				Iters:         iters,
			}, wl)
			if err != nil {
				return points, fmt.Errorf("simnet: %d ranks, %v: %w", ranks, mode, err)
			}
			points = append(points, SweepPoint{
				Ranks:       res.Ranks,
				Nodes:       ranks / perNode,
				ThreadsEach: res.ThreadsEach,
				Layout:      cfg.Layout.String(),
				Mode:        mode.String(),
				Format:      format,
				TimePerIter: res.TimePerIter,
				GFlops:      res.GFlops,
				Events:      res.Events,
			})
		}
	}
	return points, nil
}

// FindCrossover locates the mode crossover in a sweep's points (one
// format at a time): the winner per rank count is the mode with the
// lowest time per iteration, and the crossover is the smallest rank count
// whose winner differs from the smallest rank count's. Returns false when
// one mode wins everywhere or fewer than two rank counts were swept.
func FindCrossover(points []SweepPoint) (Crossover, bool) {
	winner := map[int]SweepPoint{}
	var rankOrder []int
	for _, p := range points {
		best, ok := winner[p.Ranks]
		if !ok {
			rankOrder = append(rankOrder, p.Ranks)
		}
		if !ok || p.TimePerIter < best.TimePerIter {
			winner[p.Ranks] = p
		}
	}
	if len(rankOrder) < 2 {
		return Crossover{}, false
	}
	for i := 1; i < len(rankOrder); i++ {
		if rankOrder[i] < rankOrder[i-1] {
			return Crossover{}, false // callers sweep ascending; refuse to guess otherwise
		}
	}
	base := winner[rankOrder[0]].Mode
	for _, r := range rankOrder[1:] {
		if w := winner[r]; w.Mode != base {
			return Crossover{Ranks: r, From: base, To: w.Mode}, true
		}
	}
	return Crossover{}, false
}
