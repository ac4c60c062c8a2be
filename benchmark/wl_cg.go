package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/matrix"
	"repro/internal/serve"
	"repro/internal/solver"
)

// cgWorkload measures one conjugate-gradient solve to a stated tolerance on
// the small Poisson matrix, over a tcp pair in vector mode without overlap.
// It drives tcpmpi and core.Worker the opposite way from hmep-mul-tcp: two
// latency-bound scalar allreduces and a small halo per iteration, the
// unsplit kernel, nothing overlapped.
type cgWorkload struct {
	sz  sizing
	cfg genmat.PoissonConfig

	b      []float64
	xs     [][]float64 // per cluster of the pair: start vector in, solution rows out
	ref    []float64
	refRes solver.CGResult
	last   []solver.CGResult

	clusterBase
}

const (
	cgTol     = 1e-8
	cgMaxIter = 2000
)

func newSamgCG(seed int64, sz sizing) (workload, error) {
	cfg := genmat.SmallPoissonConfig()
	if sz.quick {
		cfg.Nx, cfg.Ny, cfg.Nz = 16, 16, 16
	}
	rows := cfg.Nx * cfg.Ny * cfg.Nz
	w := &cgWorkload{sz: sz, cfg: cfg, b: make([]float64, rows), ref: make([]float64, rows), last: make([]solver.CGResult, ranks)}
	for range w.last {
		w.xs = append(w.xs, make([]float64, rows))
	}
	serve.FillVector(w.b, seed)
	return w, nil
}

func (w *cgWorkload) setup(tr *tracer) error {
	source := func() (matrix.ValueSource, error) { return genmat.NewPoisson(w.cfg) }
	return w.clusterBase.setup(tr, source, true, core.VectorNoOverlap, func() error { return w.solve(nil, -1, -1) })
}

// solve runs one DistCG from x = 0 on every cluster of the world.
func (w *cgWorkload) solve(tr *tracer, op, parent int) error {
	for _, x := range w.xs {
		clear(x)
	}
	return w.w.each(func(i int, cl *core.Cluster) error {
		id := tr.begin("solver.distcg", op, parent, cl.LocalRanks()[0])
		defer tr.end(id)
		res, err := solver.DistCG(cl, w.b, w.xs[i], cgTol, cgMaxIter)
		w.last[i] = res
		return err
	})
}

func (w *cgWorkload) reference() error {
	cl, err := w.referenceCluster()
	if err != nil {
		return err
	}
	defer cl.Close()
	clear(w.ref)
	w.refRes, err = solver.DistCG(cl, w.b, w.ref, cgTol, cgMaxIter)
	if err == nil && !w.refRes.Converged {
		err = fmt.Errorf("reference CG did not converge in %d iterations", cgMaxIter)
	}
	return err
}

func (w *cgWorkload) verify() error {
	for i, res := range w.last {
		if res.Iterations != w.refRes.Iterations || !res.Converged {
			return fmt.Errorf("cluster %d: %d iterations (converged %v), reference %d", i, res.Iterations, res.Converged, w.refRes.Iterations)
		}
	}
	return w.w.verify(w.ref, w.xs)
}

func (w *cgWorkload) block(tr *tracer, ops int) blockResult {
	return serialBlock(tr, ops, w.solve, w.verify)
}

func (w *cgWorkload) facts(m metrics) {
	planFacts(m, w.csr, w.part, w.w.plan)
	m.set("solver.iterations", float64(w.refRes.Iterations))
	m.set("solver.residual", w.refRes.Residual)
}

func (w *cgWorkload) layers(m metrics) error {
	if err := kernelLayers(m, w.csr, w.w.plan, w.sz); err != nil {
		return err
	}
	op := func() error { return w.solve(nil, -1, -1) }
	if err := stepLayers(m, w.w, w.b, w.sz, core.VectorNoOverlap, op); err != nil {
		return err
	}
	if err := commLayers(m, w.w, w.sz); err != nil {
		return err
	}

	// One iteration is one MVM, two scalar allreduces and the vector
	// updates; the shares come from the step and transport figures above.
	solve, err := medianSecondsErr(w.sz.pick(9, 1), op)
	if err != nil {
		return err
	}
	iterMs := 1e3 * solve / float64(w.refRes.Iterations)
	mvm := 100 * m["core.mvm_ms.vector"].Value / iterMs
	reduce := 100 * 2 * m["tcpmpi.allreduce_us"].Value / 1e3 / iterMs
	m.set("solver.iter_ms", iterMs)
	m.set("solver.mvm_share_pct", mvm)
	m.set("solver.reduce_share_pct", reduce)
	m.set("solver.vecops_share_pct", 100-mvm-reduce)

	x := make([]float64, len(w.b))
	serial, err := medianSecondsErr(w.sz.pick(3, 1), func() error {
		clear(x)
		_, err := solver.CG(solver.CSROperator{A: w.csr}, w.b, x, cgTol, cgMaxIter)
		return err
	})
	if err != nil {
		return err
	}
	m.set("solver.serial_cg_ms", 1e3*serial)
	return w.checkpointLayers(m)
}

// checkpointLayers takes a mid-solve snapshot on an in-process cluster and
// times one durable save of it.
func (w *cgWorkload) checkpointLayers(m metrics) error {
	cl, err := w.referenceCluster()
	if err != nil {
		return err
	}
	defer cl.Close()
	snap := solver.NewCGCheckpoint(cl, cgMaxIter)
	x := make([]float64, len(w.b))
	every := max(w.refRes.Iterations/2, 1)
	if _, err := solver.DistCGOpt(cl, w.b, x, solver.CGOptions{Tol: cgTol, MaxIter: cgMaxIter, CheckpointEvery: every, Checkpoint: snap}); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.sz.out, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	path, err := ckpt.SaveCG(dir, snap)
	if err != nil {
		return err
	}
	m.set("ckpt.save_ms", 1e3*time.Since(t0).Seconds())
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	m.set("ckpt.bytes", float64(info.Size()))
	return nil
}
