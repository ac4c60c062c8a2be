package solver

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/formats"
	"repro/internal/genmat"
	"repro/internal/matrix"
	"repro/internal/matrix/matrixtest"
	"repro/internal/spmv"
)

// laplacian1D returns the n×n tridiagonal [-1, 2, -1] matrix with known
// eigenvalues 2 - 2cos(kπ/(n+1)).
func laplacian1D(n int) *matrix.CSR {
	var entries []matrixtest.Coord
	for i := 0; i < n; i++ {
		entries = append(entries, matrixtest.Coord{Row: int32(i), Col: int32(i), Val: 2})
		if i > 0 {
			entries = append(entries, matrixtest.Coord{Row: int32(i), Col: int32(i - 1), Val: -1})
		}
		if i < n-1 {
			entries = append(entries, matrixtest.Coord{Row: int32(i), Col: int32(i + 1), Val: -1})
		}
	}
	a, err := matrixtest.NewCSRFromCOO(n, n, entries)
	if err != nil {
		panic(err)
	}
	return a
}

func TestSymTridiagEigenvaluesKnown(t *testing.T) {
	// Laplacian tridiagonal: analytic spectrum.
	n := 12
	diag := make([]float64, n)
	off := make([]float64, n-1)
	for i := range diag {
		diag[i] = 2
	}
	for i := range off {
		off[i] = -1
	}
	eigs, err := symTridiagEigenvalues(diag, off)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		want := 2 - 2*math.Cos(float64(k+1)*math.Pi/float64(n+1))
		if math.Abs(eigs[k]-want) > 1e-10 {
			t.Errorf("λ[%d] = %.12f, want %.12f", k, eigs[k], want)
		}
	}
}

func TestSymTridiagDiagonalOnly(t *testing.T) {
	eigs, err := symTridiagEigenvalues([]float64{3, 1, 2}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(eigs[i]-want[i]) > 1e-14 {
			t.Errorf("eigs = %v, want %v", eigs, want)
		}
	}
}

func TestLanczosGroundStateLaplacianExact(t *testing.T) {
	// m = n spans the full Krylov space: the Ritz values are the exact
	// spectrum (up to round-off).
	n := 100
	a := laplacian1D(n)
	want := 2 - 2*math.Cos(math.Pi/float64(n+1))
	e0, err := GroundState(CSROperator{a}, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e0-want) > 1e-8 {
		t.Errorf("E₀ = %.12f, want %.12f", e0, want)
	}
}

func TestLanczosConvergesMonotonically(t *testing.T) {
	// More steps give a lower (better) ground-state estimate — the
	// variational property of the Lanczos subspace.
	n := 400
	a := laplacian1D(n)
	var prev float64 = math.Inf(1)
	for _, m := range []int{20, 60, 150} {
		e0, err := GroundState(CSROperator{a}, m, 1)
		if err != nil {
			t.Fatal(err)
		}
		if e0 > prev+1e-12 {
			t.Errorf("E₀(m=%d) = %.9g above previous %.9g", m, e0, prev)
		}
		prev = e0
	}
	// The Laplacian's clustered low end converges slowly; require the
	// estimate to be within the right order of magnitude by m = 150.
	want := 2 - 2*math.Cos(math.Pi/float64(n+1))
	if prev > want*10 || prev < want-1e-12 {
		t.Errorf("E₀(m=150) = %.9g, want near %.9g (variational from above)", prev, want)
	}
}

func TestLanczosExtremalEigsBothEnds(t *testing.T) {
	n := 100
	a := laplacian1D(n)
	r, err := Lanczos(CSROperator{a}, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	top := r.Eigenvalues[len(r.Eigenvalues)-1]
	wantTop := 2 - 2*math.Cos(float64(n)*math.Pi/float64(n+1))
	if math.Abs(top-wantTop) > 1e-8 {
		t.Errorf("λ_max = %.12f, want %.12f", top, wantTop)
	}
	if r.MVMs != r.Steps {
		t.Errorf("MVMs %d != steps %d", r.MVMs, r.Steps)
	}
}

func TestLanczosOnHolsteinMatchesDense(t *testing.T) {
	h, err := genmat.NewHolstein(genmat.HolsteinConfig{
		Sites: 4, NumUp: 1, NumDown: 1, MaxPhonons: 2,
		T: 1, U: 3, Omega: 1, G: 0.7, Ordering: genmat.HMeP,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Materialize(h)
	// Reference: power iteration on the shifted operator (dimension 160).
	n := a.NumRows
	shift := 60.0
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n))
	}
	for it := 0; it < 3000; it++ {
		a.MulVec(y, x)
		for i := range y {
			y[i] = shift*x[i] - y[i]
		}
		scale(1/norm2(y), y)
		copy(x, y)
	}
	a.MulVec(y, x)
	want := dot(x, y)

	e0, err := GroundState(CSROperator{a}, 70, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e0-want) > 1e-7 {
		t.Errorf("Lanczos E₀ = %.10f, power iteration %.10f", e0, want)
	}
}

func TestLanczosDistributedOperatorAgrees(t *testing.T) {
	h, err := genmat.NewHolstein(genmat.HolsteinConfig{
		Sites: 4, NumUp: 2, NumDown: 2, MaxPhonons: 2,
		T: 1, U: 4, Omega: 1, G: 1, Ordering: genmat.HMeP,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Materialize(h)
	serial, err := GroundState(CSROperator{a}, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	part := core.PartitionByNnz(h, 4)
	plan, err := core.BuildPlan(h, part, true)
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
		dist, err := GroundState(clusterOperator{t, cl}, 50, 7)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dist-serial) > 1e-9 {
			t.Errorf("mode %v: distributed E₀ %.12f != serial %.12f", mode, dist, serial)
		}
	}
}

// clusterOperator drives a serial solver through the distributed kernel:
// one Cluster.Mul per Apply, a failure fails the test.
type clusterOperator struct {
	t  *testing.T
	cl *core.Cluster
}

func (o clusterOperator) Dim() int { return o.cl.Rows() }

func (o clusterOperator) Apply(y, x []float64) {
	if err := o.cl.Mul(y, x, 1); err != nil {
		o.t.Fatal(err)
	}
}

func TestCGSolvesPoisson(t *testing.T) {
	p, err := genmat.NewPoisson(genmat.PoissonConfig{Nx: 10, Ny: 10, Nz: 10, GradingZ: 1.05})
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Materialize(p)
	n := a.NumRows
	rng := rand.New(rand.NewSource(4))
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(b, xTrue)
	x := make([]float64, n)
	res, err := CG(CSROperator{a}, b, x, 1e-10, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge: residual %g after %d iterations", res.Residual, res.Iterations)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-6 {
			t.Fatalf("x[%d] = %.9f, want %.9f", i, x[i], xTrue[i])
		}
	}
	// Residual history is monotone-ish and recorded each iteration.
	if len(res.History) != res.Iterations {
		t.Errorf("history length %d != iterations %d", len(res.History), res.Iterations)
	}
}

func TestCGWithTeamOperator(t *testing.T) {
	p, _ := genmat.NewPoisson(genmat.PoissonConfig{Nx: 8, Ny: 8, Nz: 8})
	a := matrix.Materialize(p)
	n := a.NumRows
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	team := spmv.NewTeam(4)
	defer team.Close()
	x := make([]float64, n)
	res, err := CG(NewTeamOperator(a, team), b, x, 1e-8, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("team CG did not converge (res %g)", res.Residual)
	}
	// Check the residual independently with the serial kernel.
	r := make([]float64, n)
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	if norm2(r)/norm2(b) > 1e-7 {
		t.Errorf("true residual %g too large", norm2(r)/norm2(b))
	}
}

func TestCGRejectsNonSPD(t *testing.T) {
	a := matrixtest.NewCSRFromDense([][]float64{{-1, 0}, {0, -1}})
	b := []float64{1, 1}
	x := make([]float64, 2)
	if _, err := CG(CSROperator{a}, b, x, 1e-8, 10); err == nil {
		t.Error("CG accepted a negative definite operator")
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := laplacian1D(10)
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	res, err := CG(CSROperator{a}, make([]float64, 10), x, 1e-10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("zero RHS should converge instantly")
	}
	for i := range x {
		if x[i] != 0 {
			t.Error("zero RHS should produce zero solution")
		}
	}
}

func TestKPMDOSNormalization(t *testing.T) {
	// The DOS integrates to ≈ 1 (per state).
	a := laplacian1D(200)
	res, err := KPMDOS(CSROperator{a}, -0.5, 4.5, 64, 8, 256, 5)
	if err != nil {
		t.Fatal(err)
	}
	var integral float64
	for k := 1; k < len(res.Energies); k++ {
		dx := res.Energies[k] - res.Energies[k-1]
		integral += 0.5 * (res.Density[k] + res.Density[k-1]) * dx
	}
	if math.Abs(integral-1) > 0.05 {
		t.Errorf("DOS integral = %.4f, want ≈ 1", integral)
	}
	if res.Moments[0] <= 0.9 || res.Moments[0] > 1.01 {
		t.Errorf("μ₀ = %.4f, want ≈ 1", res.Moments[0])
	}
}

func TestKPMDOSLocatesSpectrum(t *testing.T) {
	// Density must be concentrated where the Laplacian spectrum lives
	// ([0, 4]) and near zero outside.
	a := laplacian1D(300)
	res, err := KPMDOS(CSROperator{a}, -2, 6, 128, 8, 512, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Integrate (trapezoid) the density inside and outside the true
	// spectrum [0, 4]: outside weight must be a small Gibbs remnant.
	var inside, outside float64
	for k := 1; k < len(res.Energies); k++ {
		dx := res.Energies[k] - res.Energies[k-1]
		d := 0.5 * (math.Abs(res.Density[k]) + math.Abs(res.Density[k-1])) * dx
		mid := 0.5 * (res.Energies[k] + res.Energies[k-1])
		switch {
		case mid > -0.1 && mid < 4.1:
			inside += d
		case mid < -0.5 || mid > 4.5:
			outside += d
		}
	}
	if outside > inside*0.05 {
		t.Errorf("spectral weight outside the spectrum: %.4g vs %.4g inside", outside, inside)
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{3, 4}
	if norm2(x) != 5 {
		t.Errorf("Norm2 = %g", norm2(x))
	}
	y := []float64{1, 1}
	axpy(2, x, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("Axpy = %v", y)
	}
	scale(0.5, y)
	if y[0] != 3.5 || y[1] != 4.5 {
		t.Errorf("Scale = %v", y)
	}
	if dot(x, x) != 25 {
		t.Errorf("Dot = %g", dot(x, x))
	}
}

func TestLanczosInvalidInputs(t *testing.T) {
	a := laplacian1D(5)
	if _, err := Lanczos(CSROperator{a}, 0, 1); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := KPMDOS(CSROperator{a}, 3, 3, 16, 1, 16, 1); err == nil {
		t.Error("empty interval accepted")
	}
	if _, err := CG(CSROperator{a}, make([]float64, 4), make([]float64, 5), 1e-8, 10); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestCGWithFormatOperator(t *testing.T) {
	p, _ := genmat.NewPoisson(genmat.PoissonConfig{Nx: 8, Ny: 8, Nz: 8})
	a := matrix.Materialize(p)
	n := a.NumRows
	sell, err := formats.NewSELLCSigma(a, 32, 128)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	team := spmv.NewTeam(4)
	defer team.Close()
	x := make([]float64, n)
	res, err := CG(&TeamOperator{P: spmv.NewParallelFormat(sell, team.Size()), Team: team}, b, x, 1e-8, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("SELL-C-σ CG did not converge (res %g)", res.Residual)
	}
	r := make([]float64, n)
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	if norm2(r)/norm2(b) > 1e-7 {
		t.Errorf("true residual %g too large", norm2(r)/norm2(b))
	}
}

func TestLanczosWithFormatOperatorMatchesCSR(t *testing.T) {
	a := laplacian1D(300)
	sell, err := formats.NewSELLCSigma(a, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	want, err := GroundState(CSROperator{A: a}, 80, 5)
	if err != nil {
		t.Fatal(err)
	}
	team := spmv.NewTeam(2)
	defer team.Close()
	got, err := GroundState(&TeamOperator{P: spmv.NewParallelFormat(sell, team.Size()), Team: team}, 80, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("SELL-C-σ ground state %g differs from CSR %g", got, want)
	}
}
