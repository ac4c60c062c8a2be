package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/machine"
	"repro/internal/simnet"
)

// simWorkload measures the capacity planner: one op is a row of three
// simulated strong-scaling points — task mode, vector mode, naive overlap —
// for the HMeP pattern on the paper's Westmere cluster, one process per
// locality domain. No kernel and no socket runs; des, fluid and simnet do
// all the work, and because the simulation is deterministic its event
// counts and modeled GFlop/s must repeat exactly. The seed does not enter.
type simWorkload struct {
	sz    sizing
	nodes int

	wl      *simnet.Workload
	ref     [3]simnet.Result
	last    [3]simnet.Result
	pointMs [3][]float64 // wall time of every RunPoint, per mode
}

// simModes is the order of the points in one op and of the .task, .vector
// and .naive metric suffixes.
var (
	simModes = [3]core.Mode{core.TaskMode, core.VectorNoOverlap, core.VectorNaiveOverlap}
	simNames = [3]string{"task", "vector", "naive"}
)

// hmepKappa is the κ the paper measured for HMeP (§2).
const hmepKappa = 2.5

func newSimSweep(_ int64, sz sizing) (workload, error) {
	// Westmere has two locality domains per node, so 64 nodes are the 128
	// virtual ranks of the full size (16 nodes, 32 ranks, when quick).
	return &simWorkload{sz: sz, nodes: sz.pick(64, 16)}, nil
}

func (w *simWorkload) setup(tr *tracer) error {
	root := tr.begin("setup", -1, -1, -1)
	defer tr.end(root)
	src, err := stage(tr, root, "genmat.source", func() (*genmat.Holstein, error) {
		cfg := genmat.PaperConfig(genmat.HMeP)
		cfg.MaxPhonons = w.sz.pick(8, 4) // N = 514,800 (50,400 when quick)
		return genmat.NewHolstein(cfg)
	})
	if err != nil {
		return err
	}
	point := w.point(core.TaskMode)
	n := point.RanksFor()
	part, _ := stage(tr, root, "core.partition", func() (*core.Partition, error) { return core.PartitionByNnz(src, n), nil })
	plan, err := stage(tr, root, "core.plan_build", func() (*core.Plan, error) { return core.BuildPlan(src, part, false) })
	if err != nil {
		return err
	}
	w.wl, _ = stage(tr, root, "simnet.workload_build", func() (*simnet.Workload, error) {
		return simnet.WorkloadFromPlan(plan, "HMeP", hmepKappa), nil
	})
	_, err = stage(tr, root, "harness.first_op", func() (struct{}, error) { return struct{}{}, w.sweep(nil, -1, -1) })
	return err
}

func (w *simWorkload) teardown() { w.wl = nil }

func (w *simWorkload) point(mode core.Mode) simnet.PointConfig {
	return simnet.PointConfig{Cluster: machine.WestmereCluster(), Nodes: w.nodes, Layout: simnet.ProcPerLD, Mode: mode}
}

// sweep simulates the three points of one op.
func (w *simWorkload) sweep(tr *tracer, op, parent int) error {
	for i, mode := range simModes {
		id := tr.begin("simnet.run_point."+simNames[i], op, parent, -1)
		t0 := time.Now()
		res, err := simnet.RunPoint(w.point(mode), w.wl)
		w.pointMs[i] = append(w.pointMs[i], 1e3*time.Since(t0).Seconds())
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%v: %w", mode, err)
		}
		w.last[i] = res
	}
	return nil
}

func (w *simWorkload) reference() error {
	err := w.sweep(nil, -1, -1)
	w.ref = w.last
	return err
}

func (w *simWorkload) verify() error {
	for i := range simModes {
		if w.last[i].Events != w.ref[i].Events || w.last[i].GFlops != w.ref[i].GFlops {
			return fmt.Errorf("%s point: %d events, %v GFlop/s; first run had %d, %v",
				simNames[i], w.last[i].Events, w.last[i].GFlops, w.ref[i].Events, w.ref[i].GFlops)
		}
	}
	return nil
}

func (w *simWorkload) block(tr *tracer, ops int) blockResult {
	return serialBlock(tr, ops, w.sweep, w.verify)
}

func (w *simWorkload) facts(m metrics) {
	m.set("matrix.rows", float64(sum(w.wl.Rows)))
	m.set("matrix.nnz", float64(w.wl.TotalNnz))
	for i, name := range simNames {
		m.set("simnet.events."+name, float64(w.ref[i].Events))
		m.set("simnet.model_gflops."+name, w.ref[i].GFlops)
	}
}

func (w *simWorkload) layers(m metrics) error {
	var events, ms float64
	for i, name := range simNames {
		p50 := median(w.pointMs[i])
		m.set("simnet.point_ms."+name, p50)
		events += float64(w.ref[i].Events)
		ms += p50
	}
	m.set("simnet.events_per_s", events/(ms/1e3))
	return nil
}

func sum(v []int) int {
	t := 0
	for _, x := range v {
		t += x
	}
	return t
}
