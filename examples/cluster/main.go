// Cluster study: simulate the hybrid-mode scaling of a user-defined
// workload on a user-defined cluster — the tooling equivalent of the
// paper's Figs. 5/6 for "your matrix on your machine". Demonstrates the
// simulator API end to end: describe a node, pick an interconnect,
// partition a matrix, sweep layouts and kernel modes.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/genmat"
	"repro/internal/machine"
	"repro/internal/simnet"
)

func main() {
	var (
		n       = flag.Int("n", 300000, "matrix dimension")
		perRow  = flag.Int("perrow", 14, "off-diagonal entries per row")
		band    = flag.Int("band", 30000, "matrix bandwidth")
		nodes   = flag.Int("nodes", 16, "cluster size in nodes")
		linkGBs = flag.Float64("link", 3.4, "network link bandwidth [GB/s]")
		torus   = flag.Bool("torus", false, "use a 2D torus instead of a fat tree")
		verify  = flag.Bool("verify", false, "also run the workload for real on a resident core.Cluster session")
	)
	flag.Parse()

	// A machine of your own: Westmere-like LDs, configurable network.
	cluster := machine.ClusterSpec{
		Name: "custom cluster",
		Node: machine.WestmereEP(),
		Net: machine.NetSpec{
			Kind:           machine.FatTree,
			LinkBW:         *linkGBs * machine.GB,
			Latency:        1.7e-6,
			IntraBW:        15 * machine.GB,
			IntraLatency:   0.5e-6,
			EagerThreshold: 16 << 10,
		},
	}
	if *torus {
		cluster.Net.Kind = machine.Torus2D
		cluster.Net.HopLatency = 0.1e-6
	}
	if err := cluster.Validate(); err != nil {
		log.Fatal(err)
	}

	gen, err := genmat.NewRandomBand(genmat.RandomBandConfig{
		N: *n, Bandwidth: *band, PerRow: *perRow, Seed: 99, Symmetric: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: random band matrix N=%d, ~%d entries/row, bandwidth %d\n", *n, *perRow+1, *band)
	fmt.Printf("cluster:  %d nodes of %s, %s at %.1f GB/s\n\n",
		*nodes, cluster.Node.Name, cluster.Net.Kind, cluster.Net.LinkBW/machine.GB)

	wc := expt.NewWorkloadCache("custom", gen, 1.5)
	tbl := expt.NewTable("layout", "mode", "ranks", "GFlop/s", "time/MVM [µs]")
	for _, layout := range simnet.Layouts {
		for _, mode := range core.Modes {
			cfg := simnet.PointConfig{
				Cluster: cluster, Nodes: *nodes, Layout: layout, Mode: mode, Iters: 10,
			}
			wl, err := wc.For(cfg.RanksFor())
			if err != nil {
				log.Fatal(err)
			}
			res, err := simnet.RunPoint(cfg, wl)
			if err != nil {
				log.Fatal(err)
			}
			tbl.Row(layout.String(), mode.String(), res.Ranks,
				fmt.Sprintf("%.2f", res.GFlops),
				fmt.Sprintf("%.1f", res.TimePerIter*1e6))
		}
	}
	if err := tbl.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if *verify {
		// Cross-check the simulation numerically: bring the same workload up
		// on one resident core.Cluster (in-process ranks instead of the
		// modeled network) and run every kernel mode on the session, timing
		// the resident multiplications. The session is built once; modes
		// switch live with SetMode.
		const ranks, threads, iters = 4, 2, 10
		part := core.PartitionByNnz(gen, ranks)
		plan, err := core.BuildPlan(gen, part, true)
		if err != nil {
			log.Fatal(err)
		}
		cluster, err := core.NewCluster(plan, core.WithThreads(threads))
		if err != nil {
			log.Fatal(err)
		}
		defer cluster.Close()
		var nnz int64
		for _, rp := range plan.Ranks {
			nnz += rp.NnzLocal + rp.NnzRemote
		}
		x := make([]float64, *n)
		for i := range x {
			x[i] = 1 / float64(i+1)
		}
		y := make([]float64, *n)
		fmt.Printf("\nreal run on a resident core.Cluster (%d ranks × %d threads, in-process transport):\n", ranks, threads)
		for _, mode := range core.Modes {
			if err := cluster.SetMode(mode); err != nil {
				log.Fatal(err)
			}
			t0 := time.Now()
			if err := cluster.Mul(y, x, iters); err != nil {
				log.Fatal(err)
			}
			dt := time.Since(t0).Seconds() / iters
			fmt.Printf("  %-22s %.2f GFlop/s (%.1f µs/MVM)\n", mode, 2*float64(nnz)/dt/1e9, dt*1e6)
		}
	}

	fmt.Println("\nHint: rerun with -link 1.0 to see task mode's advantage grow as the network weakens,")
	fmt.Println("or with -torus to route over a contended 2D torus (the paper's Cray XE6 effect),")
	fmt.Println("or with -verify to execute the workload for real on a resident core.Cluster session.")
}
