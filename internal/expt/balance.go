package expt

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/simnet"
)

// BalanceRow is one row of the load-balancing study (§5 lists "a more
// complete investigation of load balancing effects" as future work; this
// runner performs it on the simulator).
type BalanceRow struct {
	Name          string
	Nodes         int
	Ranks         int
	ImbalanceNnz  float64 // maxNnz/avgNnz under nonzero balancing
	ImbalanceRows float64 // same under naive equal-rows splitting
	GFlopsNnz     float64
	GFlopsRows    float64
}

// rowPartitionWorkload builds a simulator workload under naive equal-rows
// partitioning (the baseline the paper's footnote 2 rejects).
func rowPartitionWorkload(name string, src matrix.PatternSource, kappa float64, ranks int) (*simnet.Workload, error) {
	rows, _ := src.Dims()
	part := core.PartitionByRows(rows, ranks)
	plan, err := core.BuildPlan(src, part, false)
	if err != nil {
		return nil, err
	}
	return simnet.WorkloadFromPlan(plan, name, kappa), nil
}

// LoadBalanceStudy compares nonzero-balanced against row-balanced
// partitioning for the given matrix on the simulated cluster.
func LoadBalanceStudy(cluster machine.ClusterSpec, name string,
	src matrix.PatternSource, kappa float64, nodeCounts []int, iters int) ([]BalanceRow, error) {
	wcNnz := NewWorkloadCache(name, src, kappa)
	rows, _ := src.Dims()
	var out []BalanceRow
	for _, nodes := range nodeCounts {
		cfg := simnet.PointConfig{
			Cluster: cluster, Nodes: nodes,
			Layout: simnet.ProcPerLD, Mode: core.VectorNoOverlap, Iters: iters,
		}
		ranks := cfg.RanksFor()

		wlN, err := wcNnz.For(ranks)
		if err != nil {
			return nil, err
		}
		resN, err := simnet.RunPoint(cfg, wlN)
		if err != nil {
			return nil, err
		}
		wlR, err := rowPartitionWorkload(name, src, kappa, ranks)
		if err != nil {
			return nil, err
		}
		resR, err := simnet.RunPoint(cfg, wlR)
		if err != nil {
			return nil, err
		}
		out = append(out, BalanceRow{
			Name: name, Nodes: nodes, Ranks: ranks,
			ImbalanceNnz:  core.PartitionByNnz(src, ranks).Imbalance(src),
			ImbalanceRows: core.PartitionByRows(rows, ranks).Imbalance(src),
			GFlopsNnz:     resN.GFlops,
			GFlopsRows:    resR.GFlops,
		})
	}
	return out, nil
}

// RenderBalance writes the study as a table.
func RenderBalance(w io.Writer, rows []BalanceRow) error {
	tbl := NewTable("matrix", "nodes", "ranks",
		"imbalance (nnz)", "imbalance (rows)", "GFlop/s (nnz)", "GFlop/s (rows)", "gain")
	for _, r := range rows {
		gain := 0.0
		if r.GFlopsRows > 0 {
			gain = r.GFlopsNnz/r.GFlopsRows - 1
		}
		tbl.Row(r.Name, r.Nodes, r.Ranks,
			fmt.Sprintf("%.3f", r.ImbalanceNnz),
			fmt.Sprintf("%.3f", r.ImbalanceRows),
			fmt.Sprintf("%.2f", r.GFlopsNnz),
			fmt.Sprintf("%.2f", r.GFlopsRows),
			fmt.Sprintf("%+.1f%%", 100*gain))
	}
	return tbl.Render(w)
}
