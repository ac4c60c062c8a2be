package formats

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/genmat"
	"repro/internal/matrix"
)

func randomCSR(seed int64, n, perRow int) *matrix.CSR {
	g, err := genmat.NewRandomBand(genmat.RandomBandConfig{
		N: n, Bandwidth: n / 2, PerRow: perRow, Seed: uint64(seed),
	})
	if err != nil {
		panic(err)
	}
	return matrix.Materialize(g)
}

func randVec(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// sellMatchesCSR reports whether SELL-C-σ with the given geometry
// reproduces the serial CSR product of a bit for bit.
func sellMatchesCSR(t *testing.T, a *matrix.CSR, x []float64, c, sigma int) bool {
	t.Helper()
	s, err := NewSELLCSigma(a, c, sigma)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, a.NumRows)
	a.MulVec(want, x)
	got := make([]float64, a.NumRows)
	s.MulVec(got, x)
	for i := range want {
		if got[i] != want[i] {
			t.Logf("C=%d σ=%d row %d: %v != CSR %v", c, sigma, i, got[i], want[i])
			return false
		}
	}
	return true
}

func TestFormatsOnHolstein(t *testing.T) {
	h, err := genmat.NewHolstein(genmat.HolsteinConfig{
		Sites: 4, NumUp: 2, NumDown: 2, MaxPhonons: 3,
		T: 1, U: 4, Omega: 1, G: 1, Ordering: genmat.HMeP,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Materialize(h)
	x := randVec(7, a.NumRows)
	for _, cfg := range []struct{ c, sigma int }{{1, 1}, {8, 1}, {32, 256}, {64, a.NumRows}} {
		if !sellMatchesCSR(t, a, x, cfg.c, cfg.sigma) {
			t.Errorf("SELL-%d-%d wrong on Hamiltonian", cfg.c, cfg.sigma)
		}
	}
}

func TestFormatsProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(150)
		a := randomCSR(seed, n, 1+rng.Intn(6))
		x := randVec(seed+1, n)
		return sellMatchesCSR(t, a, x, 1+rng.Intn(MaxChunkHeight), 1+rng.Intn(n))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestEmptyMatrix(t *testing.T) {
	// Rows, but every one of them empty: zero-width chunks, the trailing
	// one partial.
	a := &matrix.CSR{NumRows: 3, NumCols: 3, RowPtr: []int64{0, 0, 0, 0}}
	s, err := NewSELLCSigma(a, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumBlocks() != 2 || s.Nnz() != 0 || s.PaddingRatio() != 1 {
		t.Errorf("empty rows: %d blocks, %d nnz, padding %g", s.NumBlocks(), s.Nnz(), s.PaddingRatio())
	}
	y := []float64{1, 2, 3}
	s.MulVec(y, []float64{1, 1, 1})
	for _, v := range y {
		if v != 0 {
			t.Error("empty SELL-C-σ produced nonzero")
		}
	}
}
