package matrix

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestRowNnzCounts(t *testing.T) {
	a := testMatrix()
	counts := RowNnzCounts(a)
	want := []int64{2, 1, 0, 3}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("row %d count = %d, want %d", i, counts[i], want[i])
		}
	}
}

func TestComputeStats(t *testing.T) {
	a := NewCSRFromDense([][]float64{
		{2, -1, 0, 0},
		{-1, 2, -1, 0},
		{0, -1, 2, -1},
		{0, 0, -1, 2},
	})
	s := ComputeStats(a)
	if s.Rows != 4 || s.Cols != 4 {
		t.Errorf("dims %dx%d", s.Rows, s.Cols)
	}
	if s.Nnz != 10 {
		t.Errorf("nnz = %d, want 10", s.Nnz)
	}
	if s.NnzRowMin != 2 || s.NnzRowMax != 3 {
		t.Errorf("min/max = %d/%d, want 2/3", s.NnzRowMin, s.NnzRowMax)
	}
	if s.Bandwidth != 1 {
		t.Errorf("bandwidth = %d, want 1", s.Bandwidth)
	}
	if s.Diagonal != 4 {
		t.Errorf("diagonal = %d, want 4", s.Diagonal)
	}
	if math.Abs(s.NnzRowAvg-2.5) > 1e-15 {
		t.Errorf("Nnzr = %g, want 2.5", s.NnzRowAvg)
	}
}

func TestMaterializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := RandomCSR(rng, 37, 23, 6)
	b := Materialize(a)
	if !a.Equal(b) {
		t.Error("Materialize(CSR) != CSR")
	}
}

func TestBlockOccupancyDiagonal(t *testing.T) {
	// Identity matrix: occupancy concentrated on the block diagonal.
	n := 64
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		d[i][i] = 1
	}
	a := NewCSRFromDense(d)
	occ := BlockOccupancy(a, 8)
	for bi := 0; bi < 8; bi++ {
		for bj := 0; bj < 8; bj++ {
			if bi == bj {
				if occ[bi][bj] <= 0 {
					t.Errorf("diagonal block (%d,%d) empty", bi, bj)
				}
			} else if occ[bi][bj] != 0 {
				t.Errorf("off-diagonal block (%d,%d) = %g, want 0", bi, bj, occ[bi][bj])
			}
		}
	}
	// Diagonal block of size 8x8 holds 8 of 64 positions.
	if math.Abs(occ[0][0]-0.125) > 1e-12 {
		t.Errorf("occ[0][0] = %g, want 0.125", occ[0][0])
	}
}

func TestBlockOccupancyUnevenDivision(t *testing.T) {
	// 10 rows, 3 blocks: block sizes 3/3/4 must still normalize correctly.
	d := make([][]float64, 10)
	for i := range d {
		d[i] = make([]float64, 10)
		for j := range d[i] {
			d[i][j] = 1
		}
	}
	a := NewCSRFromDense(d)
	occ := BlockOccupancy(a, 3)
	for bi := range occ {
		for bj := range occ[bi] {
			if math.Abs(occ[bi][bj]-1) > 1e-12 {
				t.Errorf("dense matrix block (%d,%d) occupancy = %g, want 1", bi, bj, occ[bi][bj])
			}
		}
	}
}

func TestRenderOccupancy(t *testing.T) {
	occ := [][]float64{{0, 0.5}, {1e-7, 1e-3}}
	s := RenderOccupancy(occ)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 2 || len(lines[0]) != 2 {
		t.Fatalf("render shape wrong: %q", s)
	}
	if lines[0][0] != ' ' {
		t.Errorf("zero block rendered as %q, want space", lines[0][0])
	}
	if lines[0][1] == ' ' {
		t.Errorf("half-full block rendered as space")
	}
}
