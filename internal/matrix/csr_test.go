package matrix_test

import (
	"math"
	"math/rand"
	"reflect"
	"repro/internal/matrix"
	"repro/internal/matrix/matrixtest"
	"testing"
	"testing/quick"
)

func testMatrix() *matrix.CSR {
	// 4x5:
	// [1 0 2 0 0]
	// [0 3 0 0 0]
	// [0 0 0 0 0]
	// [4 0 0 5 6]
	return matrixtest.NewCSRFromDense([][]float64{
		{1, 0, 2, 0, 0},
		{0, 3, 0, 0, 0},
		{0, 0, 0, 0, 0},
		{4, 0, 0, 5, 6},
	})
}

func TestNewCSRFromDense(t *testing.T) {
	a := testMatrix()
	if a.NumRows != 4 || a.NumCols != 5 {
		t.Fatalf("dims = %dx%d, want 4x5", a.NumRows, a.NumCols)
	}
	if a.Nnz() != 6 {
		t.Fatalf("nnz = %d, want 6", a.Nnz())
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	wantPtr := []int64{0, 2, 3, 3, 6}
	if !reflect.DeepEqual(a.RowPtr, wantPtr) {
		t.Errorf("RowPtr = %v, want %v", a.RowPtr, wantPtr)
	}
	wantCols := []int32{0, 2, 1, 0, 3, 4}
	if !reflect.DeepEqual(a.ColIdx, wantCols) {
		t.Errorf("ColIdx = %v, want %v", a.ColIdx, wantCols)
	}
}

func TestMulVec(t *testing.T) {
	a := testMatrix()
	x := []float64{1, 2, 3, 4, 5}
	y := make([]float64, 4)
	a.MulVec(y, x)
	want := []float64{7, 6, 0, 54}
	if !reflect.DeepEqual(y, want) {
		t.Errorf("A*x = %v, want %v", y, want)
	}
}

func TestMulVecDimensionPanic(t *testing.T) {
	a := testMatrix()
	defer func() {
		if recover() == nil {
			t.Error("MulVec with wrong dims did not panic")
		}
	}()
	a.MulVec(make([]float64, 4), make([]float64, 3))
}

func TestNnzRow(t *testing.T) {
	a := testMatrix()
	if got := a.NnzRow(); got != 1.5 {
		t.Errorf("NnzRow = %g, want 1.5", got)
	}
	empty := &matrix.CSR{RowPtr: []int64{0}}
	if got := empty.NnzRow(); got != 0 {
		t.Errorf("empty NnzRow = %g, want 0", got)
	}
}

func TestTranspose(t *testing.T) {
	a := testMatrix()
	at := matrixtest.Transpose(a)
	if err := at.Validate(); err != nil {
		t.Fatalf("transpose Validate: %v", err)
	}
	d := matrixtest.Dense(a)
	dt := matrixtest.Dense(at)
	for i := range d {
		for j := range d[i] {
			if d[i][j] != dt[j][i] {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	// Double transpose is the identity.
	if !matrixtest.Equal(a, matrixtest.Transpose(at)) {
		t.Error("(Aᵀ)ᵀ != A")
	}
}

func TestSymmetry(t *testing.T) {
	sym := matrixtest.NewCSRFromDense([][]float64{
		{2, -1, 0},
		{-1, 2, -1},
		{0, -1, 2},
	})
	if !matrixtest.IsStructurallySymmetric(sym) {
		t.Error("tridiagonal Laplacian reported structurally asymmetric")
	}
	if !matrixtest.IsSymmetric(sym, 0) {
		t.Error("tridiagonal Laplacian reported numerically asymmetric")
	}
	asym := matrixtest.NewCSRFromDense([][]float64{
		{2, -1, 0},
		{0, 2, -1},
		{0, -1, 2},
	})
	if matrixtest.IsStructurallySymmetric(asym) {
		t.Error("asymmetric pattern reported symmetric")
	}
	numAsym := matrixtest.NewCSRFromDense([][]float64{
		{2, -1},
		{1, 2},
	})
	if matrixtest.IsSymmetric(numAsym, 0) {
		t.Error("numerically asymmetric matrix reported symmetric")
	}
	if !matrixtest.IsStructurallySymmetric(numAsym) {
		t.Error("structurally symmetric matrix reported asymmetric")
	}
	rect := testMatrix()
	if matrixtest.IsStructurallySymmetric(rect) {
		t.Error("rectangular matrix reported symmetric")
	}
}

func TestExtractRows(t *testing.T) {
	a := testMatrix()
	sub := matrixtest.ExtractRows(a, 1, 4)
	if sub.NumRows != 3 || sub.NumCols != 5 {
		t.Fatalf("sub dims = %dx%d, want 3x5", sub.NumRows, sub.NumCols)
	}
	if err := sub.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	want := matrixtest.Dense(a)[1:]
	if !reflect.DeepEqual(matrixtest.Dense(sub), want) {
		t.Errorf("ExtractRows dense mismatch")
	}
}

func TestRestrictCols(t *testing.T) {
	a := testMatrix()
	sub := a.RestrictCols(1, 4)
	if sub.NumRows != 4 || sub.NumCols != 5 {
		t.Fatalf("sub dims = %dx%d, want unchanged 4x5", sub.NumRows, sub.NumCols)
	}
	if err := sub.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	want := matrixtest.NewCSRFromDense([][]float64{
		{0, 0, 2, 0, 0},
		{0, 3, 0, 0, 0},
		{0, 0, 0, 0, 0},
		{0, 0, 0, 5, 0},
	})
	if !matrixtest.Equal(sub, want) {
		t.Errorf("RestrictCols(1,4) mismatch:\n%v", matrixtest.Dense(sub))
	}
	if !matrixtest.Equal(a.RestrictCols(0, 5), a) {
		t.Error("full-range restriction changed the matrix")
	}
	if a.RestrictCols(2, 2).Nnz() != 0 {
		t.Error("empty-range restriction kept entries")
	}
	for _, rg := range [][2]int{{-1, 3}, {0, 6}, {4, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RestrictCols(%d,%d) did not panic", rg[0], rg[1])
				}
			}()
			a.RestrictCols(rg[0], rg[1])
		}()
	}
}

func TestCSRBuilder(t *testing.T) {
	b := matrix.CSRBuilder{}
	if b.Name() != "crs" {
		t.Errorf("Name() = %q", b.Name())
	}
	a := testMatrix()
	full, err := b.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	if full.(*matrix.CSR) != a {
		t.Error("Build must return the matrix itself")
	}
	part, err := b.BuildColRange(a, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !matrixtest.Equal(part.(*matrix.CSR), a.RestrictCols(1, 4)) {
		t.Error("BuildColRange differs from RestrictCols")
	}
	// Same failure contract as the other builders: an error, not a panic.
	if _, err := b.BuildColRange(a, 4, 2); err == nil {
		t.Error("BuildColRange accepted an inverted range")
	}
}

func TestCooDuplicatesSummed(t *testing.T) {
	entries := []matrixtest.Coord{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 0, Val: 2}, {Row: 1, Col: 1, Val: 3}, {Row: 0, Col: 1, Val: -1}, {Row: 0, Col: 1, Val: 1},
	}
	a, err := matrixtest.NewCSRFromCOO(2, 2, entries)
	if err != nil {
		t.Fatal(err)
	}
	d := matrixtest.Dense(a)
	if d[0][0] != 3 {
		t.Errorf("duplicate (0,0) sum = %g, want 3", d[0][0])
	}
	if d[0][1] != 0 {
		t.Errorf("duplicate (0,1) sum = %g, want 0 (explicit zero kept)", d[0][1])
	}
	// Explicit zeros remain stored entries.
	if a.Nnz() != 3 {
		t.Errorf("nnz = %d, want 3", a.Nnz())
	}
}

func TestCooOutOfRange(t *testing.T) {
	if _, err := matrixtest.NewCSRFromCOO(2, 2, []matrixtest.Coord{{Row: 2, Col: 0, Val: 1}}); err == nil {
		t.Error("out-of-range row accepted")
	}
	if _, err := matrixtest.NewCSRFromCOO(2, 2, []matrixtest.Coord{{Row: 0, Col: -1, Val: 1}}); err == nil {
		t.Error("negative column accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	a := testMatrix()
	a.ColIdx[0] = 99
	if err := a.Validate(); err == nil {
		t.Error("out-of-range column not caught")
	}
	a = testMatrix()
	a.RowPtr[1] = 5
	a.RowPtr[2] = 2
	if err := a.Validate(); err == nil {
		t.Error("non-monotone RowPtr not caught")
	}
	a = testMatrix()
	a.ColIdx[0], a.ColIdx[1] = a.ColIdx[1], a.ColIdx[0]
	if err := a.Validate(); err == nil {
		t.Error("descending columns not caught")
	}
}

// RandomCSR builds a random sparse matrix for tests: each row gets between
// 1 and maxPerRow entries at distinct random columns.
func RandomCSR(rng *rand.Rand, rows, cols, maxPerRow int) *matrix.CSR {
	entries := make([]matrixtest.Coord, 0, rows*maxPerRow)
	for i := 0; i < rows; i++ {
		n := 1 + rng.Intn(maxPerRow)
		seen := map[int32]bool{}
		for len(seen) < n && len(seen) < cols {
			c := int32(rng.Intn(cols))
			if !seen[c] {
				seen[c] = true
				entries = append(entries, matrixtest.Coord{Row: int32(i), Col: c, Val: rng.NormFloat64()})
			}
		}
	}
	a, err := matrixtest.NewCSRFromCOO(rows, cols, entries)
	if err != nil {
		panic(err)
	}
	return a
}

func TestMulVecMatchesDenseProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(40)
		a := RandomCSR(rng, rows, cols, min(cols, 8))
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, rows)
		a.MulVec(y, x)
		d := matrixtest.Dense(a)
		for i := 0; i < rows; i++ {
			var want float64
			for j := 0; j < cols; j++ {
				want += d[i][j] * x[j]
			}
			if math.Abs(want-y[i]) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandomCSR(rng, 1+rng.Intn(30), 1+rng.Intn(30), 5)
		return matrixtest.Equal(a, matrixtest.Transpose(matrixtest.Transpose(a)))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSortRows(t *testing.T) {
	a := &matrix.CSR{
		NumRows: 2, NumCols: 4,
		RowPtr: []int64{0, 3, 4},
		ColIdx: []int32{2, 0, 1, 3},
		Val:    []float64{20, 0.5, 10, 30},
	}
	a.SortRows()
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate after SortRows: %v", err)
	}
	if a.ColIdx[0] != 0 || a.Val[0] != 0.5 || a.ColIdx[2] != 2 || a.Val[2] != 20 {
		t.Errorf("SortRows did not keep values attached: cols=%v vals=%v", a.ColIdx, a.Val)
	}
}

func TestClone(t *testing.T) {
	a := testMatrix()
	b := matrixtest.Clone(a)
	if !matrixtest.Equal(a, b) {
		t.Fatal("clone not equal")
	}
	b.Val[0] = 99
	if a.Val[0] == 99 {
		t.Error("clone shares storage")
	}
}
