// Command spmv-scale reproduces the strong-scaling studies of the paper
// (Fig. 5 for the HMeP matrix, Fig. 6 for the sAMG matrix): three hybrid
// layouts (one MPI process per core / per NUMA domain / per node) × three
// kernel modes (vector without overlap, vector with naive overlap, task
// mode) on the simulated Westmere/InfiniBand cluster, with the best
// Cray XE6 variant as reference, plus the asynchronous-progress ablation.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/genmat"
	"repro/internal/machine"
	"repro/internal/simnet"
)

func main() {
	var (
		matrixName = flag.String("matrix", "hmep", "matrix: hmep|hmeP|samg (fig5: hmep, fig6: samg)")
		scale      = flag.String("scale", "medium", "matrix scale: small|medium|full")
		nodesFlag  = flag.String("nodes", "1,2,4,8,16,24,32", "comma-separated node counts")
		iters      = flag.Int("iters", 10, "measured iterations per point")
		csvOut     = flag.String("csv", "", "also write results as CSV to this file")
		async      = flag.Bool("async", false, "also run the async-progress ablation (MPI progress thread)")
		noCray     = flag.Bool("nocray", false, "skip the Cray XE6 reference sweep")
		occupancy  = flag.Float64("cray-occupancy", 0.25, "fraction of the shared XE6 torus the job owns (fragmented allocation)")
		placements = flag.Int("placements", 0, "additionally run N scattered placements at the largest node count (torus variance study)")
	)
	flag.Parse()

	sc, err := expt.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	var nodeCounts []int
	for _, f := range strings.Split(*nodesFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fatal(fmt.Errorf("bad node count %q", f))
		}
		nodeCounts = append(nodeCounts, n)
	}

	var wc *expt.WorkloadCache
	var title string
	switch strings.ToLower(*matrixName) {
	case "hmep":
		h, err := expt.HolsteinSource(genmat.HMeP, sc)
		if err != nil {
			fatal(err)
		}
		wc = expt.NewWorkloadCache("HMeP", h, expt.PaperKappa("HMeP"))
		title = fmt.Sprintf("Fig. 5 — strong scaling, HMeP (%s scale), Westmere cluster", sc)
	case "hmEp", "hmep-bad", "hm-ep":
		h, err := expt.HolsteinSource(genmat.HMEp, sc)
		if err != nil {
			fatal(err)
		}
		wc = expt.NewWorkloadCache("HMEp", h, expt.PaperKappa("HMEp"))
		title = fmt.Sprintf("strong scaling, HMEp (%s scale), Westmere cluster", sc)
	case "samg":
		p, err := expt.PoissonSource(sc)
		if err != nil {
			fatal(err)
		}
		wc = expt.NewWorkloadCache("sAMG", p, expt.PaperKappa("sAMG"))
		title = fmt.Sprintf("Fig. 6 — strong scaling, sAMG (%s scale), Westmere cluster", sc)
	default:
		fatal(fmt.Errorf("unknown matrix %q", *matrixName))
	}

	study := &expt.ScalingStudy{
		Cluster:    machine.WestmereCluster(),
		NodeCounts: nodeCounts,
		Iters:      *iters,
	}
	fmt.Fprintln(os.Stderr, "spmv-scale: partitioning and simulating Westmere sweep...")
	points, err := study.Run(wc)
	if err != nil {
		fatal(err)
	}

	var crayBest map[int]expt.ScalingPoint
	if !*noCray {
		fmt.Fprintln(os.Stderr, "spmv-scale: simulating Cray XE6 reference sweep...")
		crayStudy := &expt.ScalingStudy{
			Cluster:        machine.CrayXE6(),
			NodeCounts:     nodeCounts,
			Iters:          *iters,
			TorusOccupancy: *occupancy,
		}
		crayPoints, err := crayStudy.Run(wc)
		if err != nil {
			fatal(err)
		}
		crayBest = expt.BestPerNodeCount(crayPoints)
	}

	if err := expt.RenderScaling(os.Stdout, title, points, crayBest); err != nil {
		fatal(err)
	}
	if crayBest != nil {
		fmt.Println("\nbest Cray XE6 variant per node count:")
		tbl := expt.NewTable("nodes", "layout", "mode", "GFlop/s")
		for _, n := range nodeCounts {
			if p, ok := crayBest[n]; ok {
				tbl.Row(n, p.Layout.String(), p.Mode.String(), fmt.Sprintf("%.2f", p.GFlops))
			}
		}
		if err := tbl.Render(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if *async {
		fmt.Println("\nablation: naive overlap with an MPI progress thread (paper §5 outlook):")
		asyncStudy := &expt.ScalingStudy{
			Cluster:       machine.WestmereCluster(),
			NodeCounts:    nodeCounts,
			Iters:         *iters,
			AsyncProgress: true,
			Modes:         []core.Mode{core.VectorNaiveOverlap},
		}
		asyncPoints, err := asyncStudy.Run(wc)
		if err != nil {
			fatal(err)
		}
		tbl := expt.NewTable("nodes", "layout", "GFlop/s (async)", "GFlop/s (std)", "task mode")
		for _, ap := range asyncPoints {
			var std, task float64
			for _, p := range points {
				if p.Nodes == ap.Nodes && p.Layout == ap.Layout {
					switch p.Mode {
					case core.VectorNaiveOverlap:
						std = p.GFlops
					case core.TaskMode:
						task = p.GFlops
					}
				}
			}
			tbl.Row(ap.Nodes, ap.Layout.String(),
				fmt.Sprintf("%.2f", ap.GFlops), fmt.Sprintf("%.2f", std), fmt.Sprintf("%.2f", task))
		}
		if err := tbl.Render(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if *placements > 0 {
		n := nodeCounts[len(nodeCounts)-1]
		fmt.Printf("\ntorus placement variance: %d scattered placements, %d nodes, occupancy %.0f%% (XE6, per-LD, no overlap):\n",
			*placements, n, 100**occupancy)
		vals, err := expt.PlacementStudy(machine.CrayXE6(), wc, n,
			simnet.ProcPerLD, core.VectorNoOverlap, *occupancy, *placements, *iters)
		if err != nil {
			fatal(err)
		}
		min, max, sum := vals[0], vals[0], 0.0
		for _, v := range vals {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
			sum += v
		}
		fmt.Printf("GFlop/s: min %.2f, mean %.2f, max %.2f (spread %.0f%%)\n",
			min, sum/float64(len(vals)), max, 100*(max-min)/min)
	}

	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tbl := expt.NewTable("nodes", "ranks", "layout", "mode", "gflops", "efficiency")
		for _, p := range points {
			tbl.Row(p.Nodes, p.Ranks, p.Layout.String(), p.Mode.String(),
				fmt.Sprintf("%.4f", p.GFlops), fmt.Sprintf("%.4f", p.Efficiency))
		}
		if err := tbl.CSV(f); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "spmv-scale: wrote %s\n", *csvOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spmv-scale:", err)
	os.Exit(1)
}
