package genmat

import (
	"math"
	"testing"

	"repro/internal/matrix"
	"repro/internal/matrix/matrixtest"
)

func tinyPoisson(t *testing.T, cfg PoissonConfig) *Poisson {
	t.Helper()
	p, err := NewPoisson(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoissonDims(t *testing.T) {
	p := tinyPoisson(t, PoissonConfig{Nx: 3, Ny: 4, Nz: 5})
	rows, cols := p.Dims()
	if rows != 60 || cols != 60 {
		t.Errorf("dims = %dx%d, want 60x60", rows, cols)
	}
}

func TestPoissonSymmetricAndValid(t *testing.T) {
	for _, cfg := range []PoissonConfig{
		{Nx: 4, Ny: 4, Nz: 4},
		{Nx: 4, Ny: 4, Nz: 4, GradingZ: 1.3},
		{Nx: 5, Ny: 3, Nz: 4, GradingZ: 1.1, PermWindow: 8, PermSeed: 9},
		{Nx: 1, Ny: 1, Nz: 1},
		{Nx: 7, Ny: 1, Nz: 1},
	} {
		a := matrix.Materialize(tinyPoisson(t, cfg))
		if err := a.Validate(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if !matrixtest.IsSymmetric(a, 1e-12) {
			t.Errorf("%+v: not symmetric", cfg)
		}
	}
}

func TestPoissonNnzrNear7(t *testing.T) {
	// Interior-dominated grid: Nnzr approaches 7, matching the sAMG matrix.
	p := tinyPoisson(t, PoissonConfig{Nx: 20, Ny: 20, Nz: 20})
	s := matrix.ComputeStats(p)
	if s.NnzRowAvg < 6 || s.NnzRowAvg > 7 {
		t.Errorf("Nnzr = %.3f, want ≈ 7 (6..7 for a bounded grid)", s.NnzRowAvg)
	}
	if s.NnzRowMax != 7 {
		t.Errorf("max row nnz = %d, want 7", s.NnzRowMax)
	}
	if s.NnzRowMin != 4 {
		t.Errorf("min row nnz = %d, want 4 (corner cell)", s.NnzRowMin)
	}
}

func TestPoissonPositiveDefiniteByDominance(t *testing.T) {
	// Dirichlet closure makes the operator strictly diagonally dominant.
	a := matrix.Materialize(tinyPoisson(t, PoissonConfig{Nx: 5, Ny: 5, Nz: 5, GradingZ: 1.2}))
	for i := 0; i < a.NumRows; i++ {
		cols, vals := a.Row(i)
		var diag, off float64
		for k, c := range cols {
			if int(c) == i {
				diag = vals[k]
			} else {
				off += math.Abs(vals[k])
			}
		}
		if diag < off-1e-12 {
			t.Fatalf("row %d not diagonally dominant: %g < %g", i, diag, off)
		}
		if diag <= 0 {
			t.Fatalf("row %d nonpositive diagonal %g", i, diag)
		}
	}
}

func TestPoissonPermutationIsBijective(t *testing.T) {
	p := tinyPoisson(t, PoissonConfig{Nx: 6, Ny: 5, Nz: 4, PermWindow: 16, PermSeed: 3})
	n, _ := p.Dims()
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		j := p.perm(i)
		if j < 0 || j >= n {
			t.Fatalf("perm(%d) = %d out of range", i, j)
		}
		if seen[j] {
			t.Fatalf("perm not injective at %d", j)
		}
		seen[j] = true
		if p.permInv(j) != i {
			t.Fatalf("permInv(perm(%d)) = %d", i, p.permInv(j))
		}
	}
}

func TestPoissonPermutationPreservesOperator(t *testing.T) {
	// Permuted and unpermuted operators are similar: same Frobenius norm,
	// same trace, same row-value multiset sizes.
	base := matrix.Materialize(tinyPoisson(t, PoissonConfig{Nx: 4, Ny: 4, Nz: 4, GradingZ: 1.1}))
	perm := matrix.Materialize(tinyPoisson(t, PoissonConfig{Nx: 4, Ny: 4, Nz: 4, GradingZ: 1.1, PermWindow: 8, PermSeed: 5}))
	if base.Nnz() != perm.Nnz() {
		t.Fatalf("nnz differ: %d vs %d", base.Nnz(), perm.Nnz())
	}
	sum := func(m *matrix.CSR) (tr, fr float64) {
		for i := 0; i < m.NumRows; i++ {
			cols, vals := m.Row(i)
			for k, c := range cols {
				if int(c) == i {
					tr += vals[k]
				}
				fr += vals[k] * vals[k]
			}
		}
		return
	}
	tb, fb := sum(base)
	tp, fp := sum(perm)
	if math.Abs(tb-tp) > 1e-9 || math.Abs(fb-fp) > 1e-9 {
		t.Errorf("permutation changed invariants: trace %g vs %g, frob² %g vs %g", tb, tp, fb, fp)
	}
}

func TestPoissonNullVectorLaplacian(t *testing.T) {
	// Applying the operator to the constant vector measures only the
	// boundary closure: result must be strictly positive at boundary-coupled
	// cells and zero in the interior.
	p := tinyPoisson(t, PoissonConfig{Nx: 5, Ny: 5, Nz: 5})
	a := matrix.Materialize(p)
	n := a.NumRows
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, n)
	a.MulVec(y, x)
	for cell := 0; cell < n; cell++ {
		cx := cell % 5
		cy := (cell / 5) % 5
		cz := cell / 25
		interior := cx > 0 && cx < 4 && cy > 0 && cy < 4 && cz > 0 && cz < 4
		if interior && math.Abs(y[cell]) > 1e-12 {
			t.Errorf("interior cell %d: A·1 = %g, want 0", cell, y[cell])
		}
		if !interior && y[cell] <= 0 {
			t.Errorf("boundary cell %d: A·1 = %g, want > 0", cell, y[cell])
		}
	}
}

func TestPoissonInvalid(t *testing.T) {
	if _, err := NewPoisson(PoissonConfig{Nx: 0, Ny: 1, Nz: 1}); err == nil {
		t.Error("zero-extent grid accepted")
	}
	if _, err := NewPoisson(PoissonConfig{Nx: 1, Ny: 1, Nz: 1, PermWindow: -1}); err == nil {
		t.Error("negative window accepted")
	}
}

func TestRandomBandSymmetricSPD(t *testing.T) {
	g, err := NewRandomBand(RandomBandConfig{N: 200, Bandwidth: 10, PerRow: 6, Seed: 1, Symmetric: true, SPD: true})
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Materialize(g)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !matrixtest.IsSymmetric(a, 0) {
		t.Error("symmetric random band not symmetric")
	}
	for i := 0; i < a.NumRows; i++ {
		cols, vals := a.Row(i)
		var diag, off float64
		for k, c := range cols {
			if int(c) == i {
				diag = vals[k]
			} else {
				off += math.Abs(vals[k])
			}
		}
		if diag <= off {
			t.Fatalf("row %d not strictly dominant", i)
		}
	}
}

func TestRandomBandDeterministic(t *testing.T) {
	cfg := RandomBandConfig{N: 100, Bandwidth: 8, PerRow: 4, Seed: 77}
	g1, _ := NewRandomBand(cfg)
	g2, _ := NewRandomBand(cfg)
	a := matrix.Materialize(g1)
	b := matrix.Materialize(g2)
	if !matrixtest.Equal(a, b) {
		t.Error("same seed produced different matrices")
	}
	cfg.Seed = 78
	g3, _ := NewRandomBand(cfg)
	if matrixtest.Equal(a, matrix.Materialize(g3)) {
		t.Error("different seeds produced identical matrices")
	}
}

func TestRandomBandRespectsBandwidth(t *testing.T) {
	g, _ := NewRandomBand(RandomBandConfig{N: 300, Bandwidth: 5, PerRow: 4, Seed: 3})
	s := matrix.ComputeStats(g)
	if s.Bandwidth > 5 {
		t.Errorf("bandwidth %d exceeds configured 5", s.Bandwidth)
	}
	if s.Diagonal != 300 {
		t.Errorf("diagonal entries %d, want 300", s.Diagonal)
	}
}
