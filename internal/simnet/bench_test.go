package simnet_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/machine"
	"repro/internal/simnet"
)

// hmepQuick is the benchmark harness's -quick sim-sweep geometry: the HMeP
// pattern at 4 phonons (50,400 rows) on 16 Westmere nodes, one process per
// locality domain — 32 virtual ranks.
func hmepQuick(b *testing.B) (simnet.PointConfig, *simnet.Workload) {
	b.Helper()
	gc := genmat.PaperConfig(genmat.HMeP)
	gc.MaxPhonons = 4
	src, err := genmat.NewHolstein(gc)
	if err != nil {
		b.Fatal(err)
	}
	cfg := simnet.PointConfig{Cluster: machine.WestmereCluster(), Nodes: 16, Layout: simnet.ProcPerLD}
	plan, err := core.BuildPlan(src, core.PartitionByNnz(src, cfg.RanksFor()), false)
	if err != nil {
		b.Fatal(err)
	}
	return cfg, simnet.WorkloadFromPlan(plan, "HMeP", 2.5)
}

// BenchmarkRunPoint times one simulated strong-scaling point per mode;
// allocs/op is the planner's garbage per point.
func BenchmarkRunPoint(b *testing.B) {
	cfg, wl := hmepQuick(b)
	for _, mode := range core.Modes {
		cfg.Mode = mode
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			for b.Loop() {
				res, err := simnet.RunPoint(cfg, wl)
				if err != nil {
					b.Fatal(err)
				}
				events = res.Events
			}
			b.ReportMetric(float64(events), "events/op")
		})
	}
}
