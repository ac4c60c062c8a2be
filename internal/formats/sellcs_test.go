package formats

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/matrix/matrixtest"
	"repro/internal/spmv"
)

func TestSELLCSigmaBitIdenticalToCSR(t *testing.T) {
	a := randomCSR(41, 500, 7)
	x := randVec(42, 500)
	want := make([]float64, 500)
	a.MulVec(want, x)
	for _, cfg := range []struct{ c, sigma int }{
		{1, 1}, {4, 4}, {8, 64}, {32, 128}, {32, 500}, {64, 500}, {3, 10},
	} {
		s, err := NewSELLCSigma(a, cfg.c, cfg.sigma)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, 500)
		s.MulVec(got, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("C=%d σ=%d: not bit-identical to CSR at row %d: %v != %v",
					cfg.c, cfg.sigma, i, got[i], want[i])
			}
		}
	}
}

func TestSELLCSigmaBlocksAdd(t *testing.T) {
	a := randomCSR(43, 300, 5)
	x := randVec(44, 300)
	y0 := randVec(45, 300)
	s, err := NewSELLCSigma(a, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), y0...)
	a.MulVecBlocksAdd(want, x, 0, a.NumRows)
	got := append([]float64(nil), y0...)
	s.MulVecBlocksAdd(got, x, 0, s.NumBlocks())
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Add kernel differs from CSR at row %d", i)
		}
	}
}

func TestSELLCSigmaParallel(t *testing.T) {
	a := randomCSR(46, 700, 6)
	x := randVec(47, 700)
	want := make([]float64, 700)
	a.MulVec(want, x)
	s, err := NewSELLCSigma(a, 32, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 5} {
		team := spmv.NewTeam(workers)
		p := spmv.NewParallelFormat(s, workers)
		got := make([]float64, 700)
		p.MulVec(team, got, x)
		team.Close()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: parallel SELL-C-σ differs from serial CSR at row %d", workers, i)
			}
		}
	}
}

func TestSELLCSigmaSortingReducesPadding(t *testing.T) {
	// Strongly skewed row lengths: one long row per 64-row stretch. With
	// σ = 1 (no sorting) the long row pads its whole chunk; a σ spanning
	// several chunks groups long rows together.
	n := 512
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		d[i][i] = 1
		if i%64 == 0 {
			for j := 0; j < 32; j++ {
				d[i][(i+j)%n] = 1
			}
		}
	}
	a := matrixtest.NewCSRFromDense(d)
	unsorted, err := NewSELLCSigma(a, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := NewSELLCSigma(a, 32, 256)
	if err != nil {
		t.Fatal(err)
	}
	if sorted.PaddingRatio() >= unsorted.PaddingRatio() {
		t.Errorf("σ-sorting did not reduce padding: %.2f >= %.2f",
			sorted.PaddingRatio(), unsorted.PaddingRatio())
	}
	// Both still multiply correctly.
	x := randVec(48, n)
	want := make([]float64, n)
	a.MulVec(want, x)
	for _, s := range []*SELLCSigma{unsorted, sorted} {
		got := make([]float64, n)
		s.MulVec(got, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("σ=%d: mismatch at row %d", s.Sigma, i)
			}
		}
	}
}

func TestSELLCSigmaColRangeMatchesRestrictedCSR(t *testing.T) {
	a := randomCSR(61, 400, 6)
	x := randVec(62, 400)
	for _, rg := range []struct{ lo, hi int }{
		{0, 400}, {0, 250}, {130, 270}, {399, 400}, {200, 200},
	} {
		restricted := a.RestrictCols(rg.lo, rg.hi)
		want := make([]float64, 400)
		restricted.MulVec(want, x)
		for _, cfg := range []struct{ c, sigma int }{{1, 1}, {8, 32}, {32, 256}} {
			s, err := NewSELLCSigmaColRange(a, cfg.c, cfg.sigma, rg.lo, rg.hi)
			if err != nil {
				t.Fatal(err)
			}
			if s.Nnz() != restricted.Nnz() {
				t.Fatalf("[%d,%d) C=%d: nnz %d, want %d", rg.lo, rg.hi, cfg.c, s.Nnz(), restricted.Nnz())
			}
			if rows, cols := s.Dims(); rows != a.NumRows || cols != a.NumCols {
				t.Fatalf("[%d,%d): dims %dx%d, want full %dx%d", rg.lo, rg.hi, rows, cols, a.NumRows, a.NumCols)
			}
			got := make([]float64, 400)
			s.MulVec(got, x)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("[%d,%d) C=%d σ=%d: differs from restricted CSR at row %d: %v != %v",
						rg.lo, rg.hi, cfg.c, cfg.sigma, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSELLCSigmaColRangeRejectsBadRange(t *testing.T) {
	a := randomCSR(63, 50, 4)
	for _, rg := range []struct{ lo, hi int }{{-1, 10}, {0, 51}, {30, 20}} {
		if _, err := NewSELLCSigmaColRange(a, 4, 4, rg.lo, rg.hi); err == nil {
			t.Errorf("column range [%d,%d) accepted", rg.lo, rg.hi)
		}
	}
}

func TestSELLBuilder(t *testing.T) {
	b := SELLBuilder{C: 8, Sigma: 32}
	if b.Name() != "sell-8-32" {
		t.Errorf("Name() = %q", b.Name())
	}
	a := randomCSR(65, 200, 5)
	x := randVec(66, 200)
	full, err := b.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 200)
	a.MulVec(want, x)
	got := make([]float64, 200)
	full.MulVecBlocks(got, x, 0, full.NumBlocks())
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Build product differs at row %d", i)
		}
	}
	if _, err := b.BuildColRange(a, 10, 5); err == nil {
		t.Error("BuildColRange accepted an inverted range")
	}
	if _, err := (SELLBuilder{C: 0, Sigma: 1}).Build(a); err == nil {
		t.Error("C=0 accepted")
	}
}

func TestFormatSplitWithSELL(t *testing.T) {
	// The format-generic split with a SELL-C-σ local half: two-pass product
	// bit-identical to the serial CSR kernel, local chunking in the SELL
	// chunk (block) space.
	a := randomCSR(67, 350, 6)
	const boundary = 220
	fs, err := spmv.NewFormatSplit(a, boundary, SELLBuilder{C: 16, Sigma: 64})
	if err != nil {
		t.Fatal(err)
	}
	s, ok := fs.Local.(*SELLCSigma)
	if !ok {
		t.Fatalf("local half is %T, want *SELLCSigma", fs.Local)
	}
	if s.NumBlocks() != (350+15)/16 {
		t.Fatalf("local half has %d blocks", s.NumBlocks())
	}
	x := randVec(68, 350)
	want := make([]float64, 350)
	a.MulVec(want, x)
	team := spmv.NewTeam(3)
	defer team.Close()
	got := make([]float64, 350)
	fs.MulVecLocal(team, fs.LocalChunks(3), got, x)
	fs.MulVecRemoteAdd(team, fs.RemoteChunks(3), got, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SELL format split differs from serial at row %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestSELLCSigmaRejectsBadParams(t *testing.T) {
	a := randomCSR(49, 50, 3)
	if _, err := NewSELLCSigma(a, 0, 1); err == nil {
		t.Error("C=0 accepted")
	}
	if _, err := NewSELLCSigma(a, MaxChunkHeight+1, 1); err == nil {
		t.Error("C beyond MaxChunkHeight accepted")
	}
	if _, err := NewSELLCSigma(a, 4, 0); err == nil {
		t.Error("σ=0 accepted")
	}
}

func TestSELLCSigmaEmptyAndTiny(t *testing.T) {
	empty := &matrix.CSR{NumRows: 0, NumCols: 0, RowPtr: []int64{0}}
	s, err := NewSELLCSigma(empty, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumBlocks() != 0 || s.Nnz() != 0 {
		t.Errorf("empty matrix: %d blocks, %d nnz", s.NumBlocks(), s.Nnz())
	}
	s.MulVec(nil, nil)

	// 5 rows with C=4: the trailing partial chunk must still be correct.
	tiny := matrixtest.NewCSRFromDense([][]float64{
		{1, 0, 2}, {0, 3, 0}, {4, 0, 0}, {0, 5, 6}, {7, 0, 8},
	})
	st, err := NewSELLCSigma(tiny, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3}
	want := make([]float64, 5)
	tiny.MulVec(want, x)
	got := make([]float64, 5)
	st.MulVec(got, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("partial trailing chunk wrong at row %d: %v != %v", i, got[i], want[i])
		}
	}
}
