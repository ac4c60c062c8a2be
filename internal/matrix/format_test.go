package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// rowLengthCSR returns a rows×cols matrix whose row i holds i%10 entries
// at distinct ascending columns, so every remainder of the 4-way unroll is
// met, with values drawn by val.
func rowLengthCSR(rng *rand.Rand, rows, cols int, val func() float64) *CSR {
	a := &CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int64, rows+1)}
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

// edgeValues draws ±0, subnormals, ±1e300 and ±1 half the time and a
// normal variate otherwise: with huge and unit terms in one row, any
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

// CSR.MulVecBlocks and MulVecBlocksAdd restate RowDot inline; over every
// row length 0–9 and x holding ±0, subnormals and huge values they must
// produce RowDot's bits from the same start value (0, or y[i] for +=), on
// any block range, leaving the rows outside it alone.
func TestCSRRowKernelsMatchRowDot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const rows, cols = 60, 40
	a := rowLengthCSR(rng, rows, cols, edgeValues(rng, false))
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		x := fill(cols, edgeValues(rng, true))
		y0 := fill(rows, edgeValues(rng, true))
		lo := rng.Intn(rows)
		hi := lo + rng.Intn(rows-lo+1)
		for _, add := range []bool{false, true} {
			y := append([]float64(nil), y0...)
			if add {
				a.MulVecBlocksAdd(y, x, lo, hi)
			} else {
				a.MulVecBlocks(y, x, lo, hi)
			}
			for i := range y {
				want := y0[i]
				if lo <= i && i < hi {
					start := 0.0
					if add {
						start = y0[i]
					}
					want = RowDot(start, a.Val, a.ColIdx, x, a.RowPtr[i], a.RowPtr[i+1])
				}
				if math.Float64bits(y[i]) != math.Float64bits(want) {
					t.Fatalf("trial %d add=%v rows [%d,%d): row %d (%d entries) = %v, RowDot gives %v",
						trial, add, lo, hi, i, a.RowPtr[i+1]-a.RowPtr[i], y[i], want)
				}
			}
		}
	}
}
