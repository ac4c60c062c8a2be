package expt

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/cachesim"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/perfmodel"
	"repro/internal/spmv"
	"repro/internal/stream"
)

// Fig1 renders the sparsity patterns of the three test matrices as
// block-occupancy grids (the paper's Fig. 1) plus structural statistics.
func Fig1(w io.Writer, s Scale, blocks int) error {
	sources, err := Sources(s)
	if err != nil {
		return err
	}
	tbl := NewTable("matrix", "N", "Nnz", "Nnzr", "bandwidth")
	for _, si := range sources {
		st := matrix.ComputeStats(si.Src)
		tbl.Row(si.Name, st.Rows, st.Nnz, fmt.Sprintf("%.2f", st.NnzRowAvg), st.Bandwidth)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	for _, si := range sources {
		fmt.Fprintf(w, "\n%s occupancy (%dx%d blocks, log scale ' .:-=+*#%%@'):\n", si.Name, blocks, blocks)
		occ := matrix.BlockOccupancy(si.Src, blocks)
		if _, err := io.WriteString(w, matrix.RenderOccupancy(occ)); err != nil {
			return err
		}
	}
	return nil
}

// Fig2 prints the node topologies of the benchmark systems (the paper's
// Fig. 2), encoded in the machine package.
func Fig2(w io.Writer) error {
	tbl := NewTable("node", "sockets", "LDs/node", "cores/LD", "SMT",
		"LD STREAM [GB/s]", "LD spMVM [GB/s]", "node spMVM [GB/s]")
	for _, n := range []machine.NodeSpec{machine.NehalemEP(), machine.WestmereEP(), machine.MagnyCours()} {
		tbl.Row(n.Name, n.Sockets, n.LDsPerNode(), n.CoresPerLD, n.SMTWays,
			fmt.Sprintf("%.1f", n.StreamBW[len(n.StreamBW)-1]/machine.GB),
			fmt.Sprintf("%.1f", n.SpmvBW[len(n.SpmvBW)-1]/machine.GB),
			fmt.Sprintf("%.1f", n.NodeSpmvBW()/machine.GB))
	}
	return tbl.Render(w)
}

// Fig3Row is one point of the node-level performance analysis (Fig. 3).
type Fig3Row struct {
	Label        string
	Cores        int
	StreamGBs    float64
	SpmvGBs      float64
	SpmvGFlops   float64
	ModelCeiling float64 // STREAM / B_CRS(κ=0): the κ=0 roofline
}

// fig3 evaluates the calibrated node model for core counts 1..CoresPerLD
// and the full node, for a matrix with the given Nnzr and κ — reproducing
// Fig. 3's bandwidth and performance curves.
func fig3(node machine.NodeSpec, nnzr, kappa float64) []Fig3Row {
	balance := perfmodel.CodeBalance(nnzr, kappa)
	zeroK := perfmodel.CodeBalance(nnzr, 0)
	var rows []Fig3Row
	for c := 1; c <= node.CoresPerLD; c++ {
		rows = append(rows, Fig3Row{
			Label:        fmt.Sprintf("%d cores (1 LD)", c),
			Cores:        c,
			StreamGBs:    node.StreamBW[c-1] / machine.GB,
			SpmvGBs:      node.SpmvBW[c-1] / machine.GB,
			SpmvGFlops:   node.SpmvBW[c-1] / balance / 1e9,
			ModelCeiling: node.StreamBW[c-1] / zeroK / 1e9,
		})
	}
	lds := node.LDsPerNode()
	rows = append(rows, Fig3Row{
		Label:        fmt.Sprintf("1 node (%d LDs)", lds),
		Cores:        node.CoresPerNode(),
		StreamGBs:    node.NodeStreamBW() / machine.GB,
		SpmvGBs:      node.NodeSpmvBW() / machine.GB,
		SpmvGFlops:   node.NodeSpmvBW() / balance / 1e9,
		ModelCeiling: node.NodeStreamBW() / zeroK / 1e9,
	})
	return rows
}

// RenderFig3 writes the Fig. 3 analysis for the given machines.
func RenderFig3(w io.Writer, nodes []machine.NodeSpec, nnzr, kappa float64) error {
	for _, n := range nodes {
		fmt.Fprintf(w, "\n%s (Nnzr=%.1f, κ=%.2f):\n", n.Name, nnzr, kappa)
		tbl := NewTable("config", "STREAM [GB/s]", "spMVM BW [GB/s]", "spMVM [GFlop/s]", "κ=0 ceiling [GFlop/s]")
		for _, r := range fig3(n, nnzr, kappa) {
			tbl.Row(r.Label,
				fmt.Sprintf("%.1f", r.StreamGBs),
				fmt.Sprintf("%.1f", r.SpmvGBs),
				fmt.Sprintf("%.2f", r.SpmvGFlops),
				fmt.Sprintf("%.2f", r.ModelCeiling))
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// HostRow is one measured point on the machine running this reproduction.
type HostRow struct {
	Workers      int
	TriadGBs     float64
	SpmvGFlops   float64
	SpmvImplGBs  float64 // model-implied bandwidth: GFlop/s × B_CRS(κ)
	ModelCeiling float64
}

// HostNodePerf measures the actual host with the real Go kernels: STREAM
// triad and the node-parallel spMVM, for 1..maxWorkers workers. This is the
// "Fig. 3 on your machine" companion: absolute numbers differ from the 2010
// hardware, but the saturation shape and the spMVM-below-STREAM relation
// should reproduce.
func HostNodePerf(a *matrix.CSR, kappa float64, maxWorkers, reps int) []HostRow {
	if maxWorkers < 1 {
		maxWorkers = runtime.NumCPU()
	}
	nnzr := a.NnzRow()
	balance := perfmodel.CodeBalance(nnzr, kappa)
	var rows []HostRow
	x := make([]float64, a.NumCols)
	y := make([]float64, a.NumRows)
	for i := range x {
		x[i] = 1
	}
	for wk := 1; wk <= maxWorkers; wk *= 2 {
		tri := stream.Triad(1<<22, reps, wk)
		team := spmv.NewTeam(wk)
		par := spmv.NewParallel(a, wk)
		best := 0.0
		for r := 0; r < reps; r++ {
			t0 := nowSeconds()
			par.MulVec(team, y, x)
			dt := nowSeconds() - t0
			if best == 0 || dt < best {
				best = dt
			}
		}
		team.Close()
		gflops := 2 * float64(a.Nnz()) / best / 1e9
		rows = append(rows, HostRow{
			Workers:      wk,
			TriadGBs:     tri.BytesPerSec / machine.GB,
			SpmvGFlops:   gflops,
			SpmvImplGBs:  gflops * balance,
			ModelCeiling: tri.BytesPerSec / perfmodel.CodeBalance(nnzr, 0) / 1e9,
		})
	}
	return rows
}

// KappaRow is one §2 cache-simulation measurement.
type KappaRow struct {
	Name          string
	N             int
	Nnz           int64
	Kappa         float64
	RHSLoadFactor float64
	PredictedDrop float64 // performance drop vs κ=0 at equal bandwidth
}

// KappaStudy replays the spMVM access stream of the Holstein orderings and
// the Poisson matrix through the cache simulator, reproducing the §2
// comparison κ(HMEp) > κ(HMeP).
func KappaStudy(s Scale, cache cachesim.Config) ([]KappaRow, error) {
	sources, err := Sources(s)
	if err != nil {
		return nil, err
	}
	var rows []KappaRow
	for _, si := range sources {
		a := matrix.Materialize(si.Src)
		tr, err := cachesim.SpMVTraffic(a, cache)
		if err != nil {
			return nil, err
		}
		nnzr := a.NnzRow()
		drop := 1 - perfmodel.CodeBalance(nnzr, 0)/perfmodel.CodeBalance(nnzr, tr.Kappa)
		rows = append(rows, KappaRow{
			Name: si.Name, N: a.NumRows, Nnz: a.Nnz(),
			Kappa: tr.Kappa, RHSLoadFactor: tr.RHSLoadFactor, PredictedDrop: drop,
		})
	}
	return rows, nil
}

// RenderKappa writes the κ study as a table.
func RenderKappa(w io.Writer, rows []KappaRow, cache cachesim.Config) error {
	fmt.Fprintf(w, "κ measurement via cache simulation (%d KB, %d-way, %dB lines):\n",
		cache.SizeBytes>>10, cache.Ways, cache.LineBytes)
	tbl := NewTable("matrix", "N", "Nnz", "κ [B/nnz]", "B(:) loads", "perf drop vs κ=0")
	for _, r := range rows {
		tbl.Row(r.Name, r.N, r.Nnz,
			fmt.Sprintf("%.2f", r.Kappa),
			fmt.Sprintf("%.1fx", r.RHSLoadFactor),
			fmt.Sprintf("%.1f%%", 100*r.PredictedDrop))
	}
	return tbl.Render(w)
}
