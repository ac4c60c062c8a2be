package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/chanmpi"
)

// runFresh runs body once per rank on a throwaway Cluster over plan.
func runFresh(t *testing.T, plan *Plan, threads int, body func(w *Worker) error) {
	t.Helper()
	c, err := NewCluster(plan, WithThreads(threads))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Run(body); err != nil {
		t.Fatal(err)
	}
}

func TestRunBasics(t *testing.T) {
	a := randomSquare(21, 200, 60, 5)
	part := PartitionByNnz(a, 4)
	plan, err := BuildPlan(a, part, true)
	if err != nil {
		t.Fatal(err)
	}
	var visited int64
	runFresh(t, plan, 2, func(w *Worker) error {
		atomic.AddInt64(&visited, 1)
		if w.Comm.Size() != 4 {
			t.Errorf("world size %d", w.Comm.Size())
		}
		if w.Plan.Rank != w.Comm.Rank() {
			t.Errorf("plan rank %d != comm rank %d", w.Plan.Rank, w.Comm.Rank())
		}
		if len(w.X) != w.Plan.VectorLen() || len(w.Y) != w.Plan.NLocal {
			t.Error("worker buffers missized")
		}
		// Collective round trip inside the SPMD body.
		sum, err := w.Comm.AllreduceScalar(chanmpi.OpSum, 1)
		if err != nil {
			t.Errorf("allreduce: %v", err)
		} else if sum != 4 {
			t.Errorf("allreduce = %g", sum)
		}
		return nil
	})
	if visited != 4 {
		t.Fatalf("body ran on %d ranks, want 4", visited)
	}
}

func TestRunMultiplicationSequence(t *testing.T) {
	// Three consecutive multiplications inside one SPMD job must match
	// three serial multiplications (state is carried correctly between
	// Steps, including halo refreshes).
	a := randomSquare(23, 300, 100, 5)
	for i := range a.Val {
		a.Val[i] *= 0.05
	}
	x := randVec(24, 300)
	want := append([]float64(nil), x...)
	tmp := make([]float64, 300)
	for k := 0; k < 3; k++ {
		a.MulVec(tmp, want)
		copy(want, tmp)
	}

	part := PartitionByNnz(a, 5)
	plan, err := BuildPlan(a, part, true)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 300)
	for _, mode := range Modes {
		runFresh(t, plan, 2, func(w *Worker) error {
			lo, hi := w.Plan.Rows.Lo, w.Plan.Rows.Hi
			copy(w.X[:w.Plan.NLocal], x[lo:hi])
			for k := 0; k < 3; k++ {
				if err := w.Step(mode); err != nil {
					return err
				}
				copy(w.X[:w.Plan.NLocal], w.Y)
			}
			copy(got[lo:hi], w.Y)
			return nil
		})
		if d := maxAbsDiff(want, got); d > 1e-12 {
			t.Errorf("mode %v: A³x differs by %g", mode, d)
		}
	}
}
