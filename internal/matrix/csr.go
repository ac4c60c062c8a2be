// Package matrix provides sparse matrix storage in Compressed Row Storage
// (CRS/CSR) format, construction helpers, pattern streaming for matrices too
// large to materialize, statistics, and Matrix Market output.
//
// CSR is the storage format analyzed by the paper (§1.2): all nonzeros live
// in one contiguous Val array, row by row; RowPtr holds the starting offset
// of each row; ColIdx holds the original column index of each entry.
package matrix

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// CSR is a sparse matrix in Compressed Row Storage format.
//
// ColIdx is deliberately int32 (4 bytes): the paper's code-balance model
// (Eq. 1) counts 4 bytes of index traffic per nonzero, and all matrices in
// the study have fewer than 2^31 columns.
type CSR struct {
	// NumRows and NumCols are the matrix dimensions.
	NumRows, NumCols int
	// RowPtr has length NumRows+1; row i occupies ColIdx[RowPtr[i]:RowPtr[i+1]].
	RowPtr []int64
	// ColIdx holds the column index of each stored entry.
	ColIdx []int32
	// Val holds the value of each stored entry; Val[k] corresponds to ColIdx[k].
	Val []float64
}

// Nnz returns the number of stored entries.
func (a *CSR) Nnz() int64 {
	if len(a.RowPtr) == 0 {
		return 0
	}
	return a.RowPtr[len(a.RowPtr)-1]
}

// NnzRow returns the average number of stored entries per row
// (the paper's Nnzr parameter). It returns 0 for an empty matrix.
func (a *CSR) NnzRow() float64 {
	if a.NumRows == 0 {
		return 0
	}
	return float64(a.Nnz()) / float64(a.NumRows)
}

// Dims returns the matrix dimensions, satisfying PatternSource.
func (a *CSR) Dims() (rows, cols int) { return a.NumRows, a.NumCols }

// AppendRow appends the column indices of row i to dst, satisfying PatternSource.
func (a *CSR) AppendRow(i int, dst []int32) []int32 {
	return append(dst, a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]]...)
}

// AppendRowValues appends the column indices and values of row i,
// satisfying ValueSource.
func (a *CSR) AppendRowValues(i int, cols []int32, vals []float64) ([]int32, []float64) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return append(cols, a.ColIdx[lo:hi]...), append(vals, a.Val[lo:hi]...)
}

// Row returns the column indices and values of row i as sub-slices of the
// matrix storage. The caller must not modify them.
func (a *CSR) Row(i int) (cols []int32, vals []float64) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.ColIdx[lo:hi], a.Val[lo:hi]
}

// Validate checks structural invariants: monotone RowPtr, in-range column
// indices, consistent slice lengths, and (optionally) strictly ascending
// column indices within each row.
func (a *CSR) Validate() error {
	if a.NumRows < 0 || a.NumCols < 0 {
		return fmt.Errorf("matrix: negative dimension %dx%d", a.NumRows, a.NumCols)
	}
	if len(a.RowPtr) != a.NumRows+1 {
		return fmt.Errorf("matrix: RowPtr length %d, want %d", len(a.RowPtr), a.NumRows+1)
	}
	if a.RowPtr[0] != 0 {
		return fmt.Errorf("matrix: RowPtr[0] = %d, want 0", a.RowPtr[0])
	}
	nnz := a.RowPtr[a.NumRows]
	if int64(len(a.ColIdx)) != nnz || int64(len(a.Val)) != nnz {
		return fmt.Errorf("matrix: nnz %d but len(ColIdx)=%d len(Val)=%d",
			nnz, len(a.ColIdx), len(a.Val))
	}
	for i := 0; i < a.NumRows; i++ {
		if a.RowPtr[i] > a.RowPtr[i+1] {
			return fmt.Errorf("matrix: RowPtr not monotone at row %d", i)
		}
		prev := int32(-1)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := a.ColIdx[k]
			if c < 0 || int(c) >= a.NumCols {
				return fmt.Errorf("matrix: row %d has column %d out of range [0,%d)", i, c, a.NumCols)
			}
			if c <= prev {
				return fmt.Errorf("matrix: row %d columns not strictly ascending at entry %d", i, k)
			}
			prev = c
		}
	}
	return nil
}

// MulVec computes y = A*x with the reference serial CSR kernel
// (the paper's loop in §1.2). It panics if dimensions mismatch.
//
//repro:noalloc
func (a *CSR) MulVec(y, x []float64) {
	if len(x) != a.NumCols || len(y) != a.NumRows {
		panic(fmt.Sprintf("matrix: MulVec dimension mismatch: A is %dx%d, len(x)=%d, len(y)=%d",
			a.NumRows, a.NumCols, len(x), len(y)))
	}
	a.MulVecBlocks(y, x, 0, a.NumRows)
}

// RestrictCols returns a copy holding only the entries with columns in
// [lo, hi). Dimensions are unchanged: rows whose entries all fall outside
// the range become empty rather than disappearing, so the result multiplies
// the same vectors as a.
//
//repro:api column-split machinery, deleted with the row schedule (ROADMAP item 10)
func (a *CSR) RestrictCols(lo, hi int) *CSR {
	if lo < 0 || hi > a.NumCols || lo > hi {
		panic(fmt.Sprintf("matrix: RestrictCols bounds [%d,%d) outside [0,%d]", lo, hi, a.NumCols))
	}
	lo32, hi32 := int32(lo), int32(hi)
	var nnz int64
	for _, c := range a.ColIdx {
		if c >= lo32 && c < hi32 {
			nnz++
		}
	}
	sub := &CSR{
		NumRows: a.NumRows,
		NumCols: a.NumCols,
		RowPtr:  make([]int64, a.NumRows+1),
		ColIdx:  make([]int32, 0, nnz),
		Val:     make([]float64, 0, nnz),
	}
	for i := 0; i < a.NumRows; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			if c >= lo32 && c < hi32 {
				sub.ColIdx = append(sub.ColIdx, c)
				sub.Val = append(sub.Val, vals[k])
			}
		}
		sub.RowPtr[i+1] = int64(len(sub.ColIdx))
	}
	return sub
}

// ErrNotCSR reports an operation that requires canonical CSR form.
var ErrNotCSR = errors.New("matrix: not in canonical CSR form")

// SortRows sorts the column indices (and values) within each row in place,
// establishing canonical CSR form.
func (a *CSR) SortRows() {
	for i := 0; i < a.NumRows; i++ {
		SortRow(a.Row(i))
	}
}

// insertionSortMax is the longest row SortRow sorts by insertion; the
// paper's matrices average 7 to 15 entries per row.
const insertionSortMax = 64

// SortRow sorts one row's column indices ascending in place, keeping each
// value attached to its column. A row already in order — what every
// generator but the relabeled Poisson grid produces — costs one scan. The
// sort is stable: entries sharing a column keep their relative order.
func SortRow(cols []int32, vals []float64) {
	if slices.IsSorted(cols) {
		return
	}
	if len(cols) <= insertionSortMax {
		for k := 1; k < len(cols); k++ {
			c, v := cols[k], vals[k]
			j := k
			for ; j > 0 && cols[j-1] > c; j-- {
				cols[j], vals[j] = cols[j-1], vals[j-1]
			}
			cols[j], vals[j] = c, v
		}
		return
	}
	type entry struct {
		col int32
		val float64
	}
	row := make([]entry, len(cols))
	for k := range row {
		row[k] = entry{cols[k], vals[k]}
	}
	slices.SortStableFunc(row, func(x, y entry) int { return cmp.Compare(x.col, y.col) })
	for k, e := range row {
		cols[k], vals[k] = e.col, e.val
	}
}
