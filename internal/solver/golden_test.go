package solver

import (
	"testing"

	"repro/internal/core"
	"repro/internal/formats"
	"repro/internal/genmat"
	"repro/internal/matrix"
	"repro/internal/matrix/matrixtest"
)

// The golden tests pin result bits across builds, not only within one: a
// multiplication in every mode and format, a DistCG solve and a
// DistLanczos sweep must hash (matrixtest.Digest) to the literals below.
// Every mode and format must give the same bits, so one literal covers a
// whole row of runs. A change that reorders a floating-point sum changes
// these bits on purpose: it updates the literal in its own diff and says
// why there.

func TestGoldenClusterMul(t *testing.T) {
	const golden = 0x63c562431ea431b8
	_, plan := poissonPlan(t, 4)
	x := make([]float64, plan.Part.Rows())
	rngFill(x, 11)
	y := make([]float64, len(x))
	for _, f := range []matrix.FormatBuilder{matrix.CSRBuilder{}, formats.SELLBuilder{C: 32, Sigma: 256}} {
		cl, err := core.NewCluster(plan, core.WithThreads(2), core.WithFormat(f))
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range core.Modes {
			if err := cl.SetMode(mode); err != nil {
				t.Fatal(err)
			}
			if err := cl.Mul(y, x, 3); err != nil {
				t.Fatal(err)
			}
			if got := matrixtest.Digest(y); got != golden {
				t.Errorf("%T, %v: Mul digest %#x, golden %#x", f, mode, got, uint64(golden))
			}
		}
		cl.Close()
	}
}

func TestGoldenDistCG(t *testing.T) {
	const golden, iterations = 0xea732f6e9c2bd6f, 57
	a, cl := poissonCluster(t, 4, core.WithThreads(2))
	xTrue := make([]float64, a.NumRows)
	rngFill(xTrue, 12)
	b := make([]float64, a.NumRows)
	a.MulVec(b, xTrue)
	for _, mode := range core.Modes {
		if err := cl.SetMode(mode); err != nil {
			t.Fatal(err)
		}
		x := make([]float64, a.NumRows)
		res, err := DistCG(cl, b, x, 1e-10, 500)
		if err != nil {
			t.Fatal(err)
		}
		if got := matrixtest.Digest(x); got != golden || res.Iterations != iterations {
			t.Errorf("%v: x digest %#x after %d iterations, golden %#x after %d", mode, got, res.Iterations, uint64(golden), iterations)
		}
	}
}

func TestGoldenDistLanczos(t *testing.T) {
	const golden = 0xf7e6076b4fbdc1e2
	h, err := genmat.NewHolstein(genmat.HolsteinConfig{
		Sites: 4, NumUp: 2, NumDown: 2, MaxPhonons: 3,
		T: 1, U: 4, Omega: 1, G: 1, Ordering: genmat.HMeP,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.BuildPlan(h, core.PartitionByNnz(h, 4), true)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewCluster(plan, core.WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, mode := range core.Modes {
		if err := cl.SetMode(mode); err != nil {
			t.Fatal(err)
		}
		res, err := DistLanczos(cl, 40, 5)
		if err != nil {
			t.Fatal(err)
		}
		if got := matrixtest.Digest(res.Eigenvalues); got != golden {
			t.Errorf("%v: eigenvalue digest %#x (%d values), golden %#x", mode, got, len(res.Eigenvalues), uint64(golden))
		}
	}
}
