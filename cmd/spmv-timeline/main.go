// Command spmv-timeline renders the simulated counterpart of the paper's
// Fig. 4: per-rank timelines of one distributed SpMV iteration in each
// kernel organization, as simulated on the Westmere cluster. The task-mode
// panel shows the communication-thread bar (E) overlapping the local
// compute bar (L) — the explicit overlap the paper engineers; the naive
// overlap panel shows the transfer squeezed into Waitall instead.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/expt"
	"repro/internal/genmat"
)

func main() {
	var (
		nodes = flag.Int("nodes", 2, "cluster nodes")
		width = flag.Int("width", 96, "timeline width in characters")
		scale = flag.String("scale", "small", "matrix scale: small|medium")
	)
	flag.Parse()
	sc, err := expt.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	h, err := expt.HolsteinSource(genmat.HMeP, sc)
	if err != nil {
		fatal(err)
	}
	wc := expt.NewWorkloadCache("HMeP", h, expt.PaperKappa("HMeP"))
	if err := expt.Fig4(os.Stdout, wc, *nodes, *width); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spmv-timeline:", err)
	os.Exit(1)
}
