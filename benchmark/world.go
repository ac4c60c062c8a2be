package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/tcpmpi"
)

// ranks is the geometry of every cluster the benchmark measures: two ranks
// of one thread each, the same on every workload so numbers stay comparable
// and nothing oversubscribes a two-CPU host.
const ranks = 2

// world is the message-passing world of one workload: one resident cluster
// over the in-process chan transport, or two half-world clusters joined by
// a tcpmpi loopback pair inside this process — driven concurrently, each
// blocking in collectives until the other arrives, like two MPI processes.
// All clusters share one read-only plan. ys[i] receives the result rows of
// cluster i's local ranks.
type world struct {
	plan *core.Plan
	cls  []*core.Cluster
	ys   [][]float64
}

// clusterBase is what the cluster workloads' set-up builds and their
// teardown drops: the materialised matrix, its two-rank partition and the
// world the plan runs on.
type clusterBase struct {
	csr  *matrix.CSR
	part *core.Partition
	w    *world
}

// setup is the complete set-up of a cluster workload, one span per stage:
// source → Materialize → partition → BuildPlan → world → first op.
func (b *clusterBase) setup(tr *tracer, source func() (matrix.ValueSource, error), tcp bool, mode core.Mode, firstOp func() error) error {
	root := tr.begin("setup", -1, -1, -1)
	defer tr.end(root)
	src, err := stage(tr, root, "genmat.source", source)
	if err != nil {
		return err
	}
	b.csr, _ = stage(tr, root, "matrix.materialize", func() (*matrix.CSR, error) { return matrix.Materialize(src), nil })
	b.part, _ = stage(tr, root, "core.partition", func() (*core.Partition, error) { return core.PartitionByNnz(b.csr, ranks), nil })
	plan, err := stage(tr, root, "core.plan_build", func() (*core.Plan, error) { return core.BuildPlan(b.csr, b.part, true) })
	if err != nil {
		return err
	}
	b.w, err = stage(tr, root, "core.cluster_up", func() (*world, error) { return dialWorld(plan, tcp, mode) })
	if err != nil {
		return err
	}
	_, err = stage(tr, root, "harness.first_op", func() (struct{}, error) { return struct{}{}, firstOp() })
	return err
}

func (b *clusterBase) teardown() {
	if b.w != nil {
		b.w.close()
		*b = clusterBase{}
	}
}

// referenceCluster is an in-process vector-mode cluster over the same plan:
// another transport and another kernel organisation, which must still
// produce the same bits as the world under test.
func (b *clusterBase) referenceCluster() (*core.Cluster, error) {
	return core.NewCluster(b.w.plan, core.WithMode(core.VectorNoOverlap))
}

func dialWorld(plan *core.Plan, tcp bool, mode core.Mode) (*world, error) {
	w := &world{plan: plan}
	rows := plan.Part.Rows()
	if !tcp {
		cl, err := core.NewCluster(plan, core.WithMode(mode))
		if err != nil {
			return nil, err
		}
		w.cls, w.ys = []*core.Cluster{cl}, [][]float64{make([]float64, rows)}
		return w, nil
	}
	// The rendezvous port is found by binding port 0 and letting go of it;
	// now and then somebody else has it by the time the coordinator binds
	// it again, so a failed bring-up is tried afresh on another port.
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		if err = w.dialPair(mode); err == nil {
			return w, nil
		}
	}
	return nil, fmt.Errorf("tcp pair: %w", err)
}

// dialPair brings up the two half-world clusters, one goroutine each, as
// two processes would. The first failure cancels the other half's dial.
func (w *world) dialPair(mode core.Mode) error {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rows := w.plan.Part.Rows()
	w.cls = make([]*core.Cluster, ranks)
	w.ys = make([][]float64, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		w.ys[r] = make([]float64, rows)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// The default 50 ms between a worker's rendezvous attempts would
			// make set-up time a coin flip on who gets to the address first.
			tr := &tcpmpi.Transport{Addr: addr, Coordinate: r == 0, RankLo: r, RankHi: r + 1, RetryInterval: time.Millisecond}
			w.cls[r], errs[r] = core.NewCluster(w.plan, core.WithMode(mode),
				core.WithTransport(tr), core.WithDialContext(ctx))
			if errs[r] != nil {
				cancel()
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			w.close()
			return err
		}
	}
	return nil
}

// freeLoopbackAddr reserves an ephemeral loopback port for the rendezvous.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

func (w *world) close() {
	for _, cl := range w.cls {
		if cl != nil {
			cl.Close()
		}
	}
}

// each runs f on every cluster — directly on a one-cluster world,
// concurrently on a tcp pair — and returns the first error.
func (w *world) each(f func(i int, cl *core.Cluster) error) error {
	if len(w.cls) == 1 {
		return f(0, w.cls[0])
	}
	errs := make([]error, len(w.cls))
	var wg sync.WaitGroup
	for i, cl := range w.cls {
		wg.Add(1)
		go func(i int, cl *core.Cluster) {
			defer wg.Done()
			errs[i] = f(i, cl)
		}(i, cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mul is one distributed y = A^iters·x on the whole world.
func (w *world) mul(x []float64, iters int) error {
	return w.each(func(i int, cl *core.Cluster) error { return cl.Mul(w.ys[i], x, iters) })
}

// run submits body to every rank of the world.
func (w *world) run(body func(wk *core.Worker) error) error {
	return w.each(func(_ int, cl *core.Cluster) error { return cl.Run(body) })
}

func (w *world) setMode(m core.Mode) error {
	return w.each(func(_ int, cl *core.Cluster) error { return cl.SetMode(m) })
}

// tracedMul does what Cluster.Mul does from a Run body, so that every
// Worker.Step of every rank gets its own span under the Run that carried it.
func (w *world) tracedMul(tr *tracer, op, parent int, x []float64, iters int, mode core.Mode) error {
	return w.each(func(i int, cl *core.Cluster) error {
		rank := -1
		if len(w.cls) > 1 {
			rank = cl.LocalRanks()[0]
		}
		run := tr.begin("core.run", op, parent, rank)
		defer tr.end(run)
		return cl.Run(func(wk *core.Worker) error {
			rp := wk.Plan
			copy(wk.X[:rp.NLocal], x[rp.Rows.Lo:rp.Rows.Hi])
			for it := 0; it < iters; it++ {
				step := tr.begin("core.step", op, run, rp.Rank)
				err := wk.Step(mode)
				tr.end(step)
				if err != nil {
					return err
				}
				if it < iters-1 {
					copy(wk.X[:rp.NLocal], wk.Y)
				}
			}
			copy(w.ys[i][rp.Rows.Lo:rp.Rows.Hi], wk.Y)
			return nil
		})
	})
}

// verify compares the rows each cluster owns bit for bit with the reference.
func (w *world) verify(ref []float64, got [][]float64) error {
	for i, cl := range w.cls {
		for _, r := range cl.LocalRanks() {
			rows := w.plan.Ranks[r].Rows
			if at := firstDiff(ref[rows.Lo:rows.Hi], got[i][rows.Lo:rows.Hi]); at >= 0 {
				return fmt.Errorf("rank %d: row %d differs from the reference (got %x want %x)", r, rows.Lo+at,
					math.Float64bits(got[i][rows.Lo+at]), math.Float64bits(ref[rows.Lo+at]))
			}
		}
	}
	return nil
}

// firstDiff returns the first index at which two equally long vectors
// differ in any bit, or -1.
func firstDiff(want, got []float64) int {
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return i
		}
	}
	return -1
}
