package main

import (
	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/matrix"
	"repro/internal/serve"
)

// mulWorkload measures Cluster.Mul on a resident two-rank world in task
// mode. samg-mul-chan and hmep-mul-tcp are its two instances: the first
// streams a matrix far larger than any cache over the in-process transport,
// the second keeps the matrix cache-resident and sends a large halo over
// sockets, so the two split kernel work from communication work.
type mulWorkload struct {
	source func() (matrix.ValueSource, error)
	tcp    bool
	iters  int // multiplications per op, batched so an op is well above scheduler noise
	sz     sizing

	x, ref []float64
	clusterBase
}

// poissonMedium is the sAMG substitute at N = 1,152,000 (nnz = 7,997,760):
// 96 MB of CSR, 24 times the L2 of the host the sizes were chosen on.
var poissonMedium = genmat.PoissonConfig{Nx: 120, Ny: 100, Nz: 96, GradingZ: 1.02, PermWindow: 64, PermSeed: 1}

func newSamgMul(seed int64, sz sizing) (workload, error) {
	cfg := poissonMedium
	if sz.quick {
		cfg = genmat.SmallPoissonConfig()
	}
	return newMul(seed, sz, false, 5, func() (matrix.ValueSource, error) { return genmat.NewPoisson(cfg) })
}

func newHmepMul(seed int64, sz sizing) (workload, error) {
	return newMul(seed, sz, true, sz.pick(20, 5), func() (matrix.ValueSource, error) {
		return genmat.NewHolstein(genmat.SmallConfig(genmat.HMeP))
	})
}

func newMul(seed int64, sz sizing, tcp bool, iters int, source func() (matrix.ValueSource, error)) (workload, error) {
	src, err := source()
	if err != nil {
		return nil, err
	}
	rows, _ := src.Dims()
	w := &mulWorkload{source: source, tcp: tcp, iters: iters, sz: sz, x: make([]float64, rows), ref: make([]float64, rows)}
	serve.FillVector(w.x, seed)
	return w, nil
}

func (w *mulWorkload) setup(tr *tracer) error {
	return w.clusterBase.setup(tr, w.source, w.tcp, core.TaskMode, func() error { return w.w.mul(w.x, w.iters) })
}

func (w *mulWorkload) reference() error {
	cl, err := w.referenceCluster()
	if err != nil {
		return err
	}
	defer cl.Close()
	return cl.Mul(w.ref, w.x, w.iters)
}

func (w *mulWorkload) block(tr *tracer, ops int) blockResult {
	return serialBlock(tr, ops, func(tr *tracer, id, root int) error {
		if tr == nil {
			return w.w.mul(w.x, w.iters)
		}
		return w.w.tracedMul(tr, id, root, w.x, w.iters, core.TaskMode)
	}, func() error { return w.w.verify(w.ref, w.w.ys) })
}

func (w *mulWorkload) facts(m metrics) {
	planFacts(m, w.csr, w.part, w.w.plan)
}

func (w *mulWorkload) layers(m metrics) error {
	if err := kernelLayers(m, w.csr, w.w.plan, w.sz); err != nil {
		return err
	}
	if err := stepLayers(m, w.w, w.x, w.sz, core.TaskMode, func() error { return w.w.mul(w.x, w.iters) }); err != nil {
		return err
	}
	return commLayers(m, w.w, w.sz)
}

// planFacts records the exact quantities of a materialised matrix and its
// two-rank plan: they repeat for a seed, so any change in them is a change
// of the program, not noise.
func planFacts(m metrics, a *matrix.CSR, part *core.Partition, plan *core.Plan) {
	m.set("matrix.rows", float64(a.NumRows))
	m.set("matrix.nnz", float64(len(a.Val)))
	m.set("core.plan_bytes", float64(plan.Bytes()))
	m.set("core.imbalance", part.Imbalance(a))
	var halo, msgs int
	for _, rp := range plan.Ranks {
		halo += rp.HaloSize()
		msgs += len(rp.SendTo)
	}
	m.set("core.halo_elems_per_step", float64(halo))
	m.set("core.msgs_per_step", float64(msgs))
	m.set("core.halo_bytes_per_step", float64(8*halo))
}
