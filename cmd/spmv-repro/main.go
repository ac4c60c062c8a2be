// Command spmv-repro runs the complete reproduction in one go — every
// figure and study of the paper's evaluation — and writes a single
// plain-text report. It is the "make all figures" entry point behind
// EXPERIMENTS.md.
//
//	spmv-repro                    # small scale, ~1 minute
//	spmv-repro -scale medium      # the EXPERIMENTS.md configuration
//	spmv-repro -out report.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/genmat"
	"repro/internal/machine"
	"repro/internal/simnet"
)

func main() {
	var (
		scale  = flag.String("scale", "small", "matrix scale: small|medium|full")
		out    = flag.String("out", "", "write the report to this file (default stdout)")
		iters  = flag.Int("iters", 8, "measured iterations per scaling point")
		blocks = flag.Int("blocks", 40, "Fig. 1 occupancy grid")
	)
	flag.Parse()
	sc, err := expt.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	start := time.Now()
	section := func(title string) {
		fmt.Fprintf(w, "\n%s\n%s\n", title, line(len(title)))
	}
	fmt.Fprintf(w, "hybrid-spmv full reproduction — scale %s — %s\n", sc, time.Now().Format(time.RFC3339))

	section("Fig. 1 — sparsity patterns")
	check(expt.Fig1(w, sc, *blocks))

	section("Fig. 2 — node topologies")
	check(expt.Fig2(w))

	section("Fig. 3a — Nehalem EP node-level analysis (HMeP, κ=2.5)")
	check(expt.RenderFig3(w, []machine.NodeSpec{machine.NehalemEP()}, 15, 2.5))

	section("Fig. 3b — Westmere EP and AMD Magny Cours")
	check(expt.RenderFig3(w, []machine.NodeSpec{machine.WestmereEP(), machine.MagnyCours()}, 15, 2.5))

	section("§2 — κ via cache simulation")
	cache := cachesim.Config{SizeBytes: 128 << 10, Ways: 16, LineBytes: 64}
	if sc != expt.Small {
		cache.SizeBytes = 2 << 20
	}
	rows, err := expt.KappaStudy(sc, cache)
	check(err)
	check(expt.RenderKappa(w, rows, cache))

	// Strong scaling.
	hmeP, err := expt.HolsteinSource(genmat.HMeP, sc)
	check(err)
	wcH := expt.NewWorkloadCache("HMeP", hmeP, expt.PaperKappa("HMeP"))
	samg, err := expt.PoissonSource(sc)
	check(err)
	wcS := expt.NewWorkloadCache("sAMG", samg, expt.PaperKappa("sAMG"))

	for _, fig := range []struct {
		title string
		wc    *expt.WorkloadCache
	}{
		{"Fig. 5 — strong scaling, HMeP, Westmere cluster", wcH},
		{"Fig. 6 — strong scaling, sAMG, Westmere cluster", wcS},
	} {
		section(fig.title)
		study := &expt.ScalingStudy{
			Cluster: machine.WestmereCluster(),
			Iters:   *iters,
		}
		points, err := study.Run(fig.wc)
		check(err)
		cray := &expt.ScalingStudy{
			Cluster:        machine.CrayXE6(),
			Iters:          *iters,
			TorusOccupancy: 0.25,
		}
		crayPoints, err := cray.Run(fig.wc)
		check(err)
		check(expt.RenderScaling(w, fig.title, points, expt.BestPerNodeCount(crayPoints)))
	}

	section("§5 ablation — asynchronous MPI progress (naive overlap)")
	async := &expt.ScalingStudy{
		Cluster:       machine.WestmereCluster(),
		NodeCounts:    []int{4, 16},
		Iters:         *iters,
		AsyncProgress: true,
		Modes:         []core.Mode{core.VectorNaiveOverlap},
	}
	asyncPts, err := async.Run(wcH)
	check(err)
	tbl := expt.NewTable("nodes", "layout", "GFlop/s (async naive overlap)")
	for _, p := range asyncPts {
		tbl.Row(p.Nodes, p.Layout.String(), fmt.Sprintf("%.2f", p.GFlops))
	}
	check(tbl.Render(w))

	section("Fig. 4 — simulated kernel timelines (2 nodes, per-LD)")
	check(expt.Fig4(w, wcH, 2, 84))

	section("§3.1 footnote 2 — load balancing")
	sources, err := expt.Sources(sc)
	check(err)
	var balRows []expt.BalanceRow
	for _, si := range sources {
		br, err := expt.LoadBalanceStudy(machine.WestmereCluster(), si.Name, si.Src,
			expt.PaperKappa(si.Name), []int{8}, *iters)
		check(err)
		balRows = append(balRows, br...)
	}
	check(expt.RenderBalance(w, balRows))

	section("torus placement variance (XE6, 16 nodes, occupancy 25%)")
	vals, err := expt.PlacementStudy(machine.CrayXE6(), wcH, 16,
		simnet.ProcPerLD, core.VectorNoOverlap, 0.25, 5, *iters)
	check(err)
	min, max := vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	fmt.Fprintf(w, "GFlop/s across placements: min %.2f, max %.2f (spread %.0f%%)\n", min, max, 100*(max-min)/min)

	fmt.Fprintf(w, "\nreport complete in %.1fs\n", time.Since(start).Seconds())
}

func line(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '='
	}
	return string(b)
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spmv-repro:", err)
	os.Exit(1)
}
