package spmv

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// edgeValues draws ±0, subnormals, ±1 (and ±1e300 when huge) half the time
// and a normal variate otherwise: with huge and unit terms in one row, any
// reordering of the additions changes the bits of the sum.
func edgeValues(rng *rand.Rand, huge bool) func() float64 {
	pool := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1, -1}
	if huge {
		pool = append(pool, 1e300, -1e300)
	}
	return func() float64 {
		if rng.Intn(2) == 0 {
			return pool[rng.Intn(len(pool))]
		}
		return rng.NormFloat64()
	}
}

func fill(n int, v func() float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v()
	}
	return out
}

// rowLengthCSR returns a rows×cols matrix whose row i holds i%10 entries at
// distinct ascending columns, so every remainder of the 4-way unroll is met.
func rowLengthCSR(rng *rand.Rand, rows, cols int, val func() float64) *matrix.CSR {
	a := &matrix.CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int64, rows+1)}
	for i := 0; i < rows; i++ {
		in := make([]bool, cols)
		for _, c := range rng.Perm(cols)[:i%10] {
			in[c] = true
		}
		for c, ok := range in {
			if ok {
				a.ColIdx = append(a.ColIdx, int32(c))
				a.Val = append(a.Val, val())
			}
		}
		a.RowPtr[i+1] = int64(len(a.ColIdx))
	}
	return a
}

// checkRows compares y against y0 outside [lo, hi) and against
// want(i) inside it, bit for bit.
func checkRows(t *testing.T, what string, y, y0 []float64, lo, hi int, want func(i int) float64) {
	t.Helper()
	for i := range y {
		w := y0[i]
		if lo <= i && i < hi {
			w = want(i)
		}
		if math.Float64bits(y[i]) != math.Float64bits(w) {
			t.Fatalf("%s rows [%d,%d): row %d = %v, RowDot gives %v", what, lo, hi, i, y[i], w)
		}
	}
}

// LocalView's row loops restate matrix.RowDot inline. With Mid at every
// offset of every row (lengths 0–9) and x holding ±0, subnormals and huge
// values, both the = and the += loop must give RowDot's bits over
// [RowPtr[i], Mid[i]) from the same start value, on any row range.
func TestLocalViewKernelsMatchRowDot(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const rows, cols = 60, 40
	a := rowLengthCSR(rng, rows, cols, edgeValues(rng, false))
	for off := int64(0); off <= 9; off++ {
		mid := make([]int64, rows)
		for i := range mid {
			mid[i] = min(a.RowPtr[i]+off, a.RowPtr[i+1])
		}
		v, err := NewLocalView(a, mid)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 4; trial++ {
			x := fill(cols, edgeValues(rng, true))
			y0 := fill(rows, edgeValues(rng, true))
			lo := rng.Intn(rows)
			hi := lo + rng.Intn(rows-lo+1)
			y := append([]float64(nil), y0...)
			v.MulVecBlocks(y, x, lo, hi)
			checkRows(t, "LocalView =", y, y0, lo, hi, func(i int) float64 {
				return matrix.RowDot(0, a.Val, a.ColIdx, x, a.RowPtr[i], mid[i])
			})
			y = append(y[:0], y0...)
			v.MulVecBlocksAdd(y, x, lo, hi)
			checkRows(t, "LocalView +=", y, y0, lo, hi, func(i int) float64 {
				return matrix.RowDot(y0[i], a.Val, a.ColIdx, x, a.RowPtr[i], mid[i])
			})
		}
	}
}

// CompactCSR.MulStoredRowsAdd restates matrix.RowDot inline. With gaps in
// Rows and stored-row lengths 1–9, every stored row in the chunk must get
// RowDot's bits from y[i], and every other row must stay as it was.
func TestCompactCSRKernelMatchesRowDot(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const rows, cols = 90, 40
	val := edgeValues(rng, false)
	c := &CompactCSR{NumRows: rows, NumCols: cols, RowPtr: []int64{0}}
	for i := 0; i < rows; i++ {
		if rng.Intn(3) == 0 {
			continue // a gap: row i stores nothing
		}
		n := 1 + len(c.Rows)%9
		for _, col := range rng.Perm(cols)[:n] {
			c.ColIdx = append(c.ColIdx, int32(col))
			c.Val = append(c.Val, val())
		}
		c.Rows = append(c.Rows, int32(i))
		c.RowPtr = append(c.RowPtr, int64(len(c.ColIdx)))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	stored := make([]int, rows) // stored-row index of row i, or -1
	for i := range stored {
		stored[i] = -1
	}
	for p, i := range c.Rows {
		stored[i] = p
	}
	for trial := 0; trial < 20; trial++ {
		x := fill(cols, edgeValues(rng, true))
		y0 := fill(rows, edgeValues(rng, true))
		plo := rng.Intn(len(c.Rows))
		phi := plo + rng.Intn(len(c.Rows)-plo+1)
		y := append([]float64(nil), y0...)
		c.MulStoredRowsAdd(y, x, plo, phi)
		checkRows(t, "CompactCSR +=", y, y0, 0, rows, func(i int) float64 {
			if p := stored[i]; plo <= p && p < phi {
				return matrix.RowDot(y0[i], c.Val, c.ColIdx, x, c.RowPtr[p], c.RowPtr[p+1])
			}
			return y0[i]
		})
	}
}

// A compact RowPtr must start at 0, as CSR.Validate demands of a CSR: the
// kernel reads stored row 0 from RowPtr[0], so a nonzero start would have
// it skip the leading entries without a word.
func TestCompactCSRValidateRejectsNonzeroStart(t *testing.T) {
	c := &CompactCSR{
		NumRows: 3, NumCols: 3,
		Rows:   []int32{0, 2},
		RowPtr: []int64{1, 2, 3},
		ColIdx: []int32{0, 1, 2},
		Val:    []float64{1, 2, 3},
	}
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted RowPtr[0] = 1")
	}
	c.RowPtr = []int64{0, 1, 3}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate rejected the same rows starting at 0: %v", err)
	}
}
