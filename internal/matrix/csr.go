// Package matrix provides sparse matrix storage in Compressed Row Storage
// (CRS/CSR) format, construction helpers, pattern streaming for matrices too
// large to materialize, statistics, and Matrix Market I/O.
//
// CSR is the storage format analyzed by the paper (§1.2): all nonzeros live
// in one contiguous Val array, row by row; RowPtr holds the starting offset
// of each row; ColIdx holds the original column index of each entry.
package matrix

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
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

// Transpose returns Aᵀ as a new CSR matrix.
func (a *CSR) Transpose() *CSR {
	t := &CSR{
		NumRows: a.NumCols,
		NumCols: a.NumRows,
		RowPtr:  make([]int64, a.NumCols+1),
		ColIdx:  make([]int32, a.Nnz()),
		Val:     make([]float64, a.Nnz()),
	}
	// Count entries per column of A.
	for _, c := range a.ColIdx {
		t.RowPtr[c+1]++
	}
	for i := 0; i < a.NumCols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := make([]int64, a.NumCols)
	copy(next, t.RowPtr[:a.NumCols])
	for i := 0; i < a.NumRows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := a.ColIdx[k]
			p := next[c]
			next[c]++
			t.ColIdx[p] = int32(i)
			t.Val[p] = a.Val[k]
		}
	}
	return t
}

// IsStructurallySymmetric reports whether the sparsity pattern of A equals
// that of Aᵀ. The matrix must be square.
func (a *CSR) IsStructurallySymmetric() bool {
	if a.NumRows != a.NumCols {
		return false
	}
	t := a.Transpose()
	for i := 0; i <= a.NumRows; i++ {
		if a.RowPtr[i] != t.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != t.ColIdx[k] {
			return false
		}
	}
	return true
}

// IsSymmetric reports whether A is numerically symmetric to within tol.
func (a *CSR) IsSymmetric(tol float64) bool {
	if !a.IsStructurallySymmetric() {
		return false
	}
	t := a.Transpose()
	for k := range a.Val {
		if math.Abs(a.Val[k]-t.Val[k]) > tol {
			return false
		}
	}
	return true
}

// ExtractRows returns the sub-matrix consisting of rows [lo, hi), keeping
// the full column range.
func (a *CSR) ExtractRows(lo, hi int) *CSR {
	if lo < 0 || hi > a.NumRows || lo > hi {
		panic(fmt.Sprintf("matrix: ExtractRows bounds [%d,%d) outside [0,%d)", lo, hi, a.NumRows))
	}
	base := a.RowPtr[lo]
	sub := &CSR{
		NumRows: hi - lo,
		NumCols: a.NumCols,
		RowPtr:  make([]int64, hi-lo+1),
		ColIdx:  a.ColIdx[base:a.RowPtr[hi]],
		Val:     a.Val[base:a.RowPtr[hi]],
	}
	for i := lo; i <= hi; i++ {
		sub.RowPtr[i-lo] = a.RowPtr[i] - base
	}
	return sub
}

// RestrictCols returns a copy holding only the entries with columns in
// [lo, hi). Dimensions are unchanged: rows whose entries all fall outside
// the range become empty rather than disappearing, so the result multiplies
// the same vectors as a.
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

// Clone returns a deep copy of the matrix.
func (a *CSR) Clone() *CSR {
	b := &CSR{
		NumRows: a.NumRows,
		NumCols: a.NumCols,
		RowPtr:  append([]int64(nil), a.RowPtr...),
		ColIdx:  append([]int32(nil), a.ColIdx...),
		Val:     append([]float64(nil), a.Val...),
	}
	return b
}

// Equal reports whether two matrices have identical structure and values.
func (a *CSR) Equal(b *CSR) bool {
	if a.NumRows != b.NumRows || a.NumCols != b.NumCols || a.Nnz() != b.Nnz() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] || a.Val[k] != b.Val[k] {
			return false
		}
	}
	return true
}

// Dense returns the matrix as a dense row-major slice of slices.
// Intended for tests on small matrices only.
func (a *CSR) Dense() [][]float64 {
	d := make([][]float64, a.NumRows)
	for i := range d {
		d[i] = make([]float64, a.NumCols)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d[i][a.ColIdx[k]] = a.Val[k]
		}
	}
	return d
}

// Coord is one coordinate-format (COO) entry used during construction.
type Coord struct {
	Row, Col int32
	Val      float64
}

// NewCSRFromCOO builds a CSR matrix from coordinate entries. Duplicate
// (row, col) entries are summed; entries are sorted per row by column.
// The input slice is reordered in place.
func NewCSRFromCOO(rows, cols int, entries []Coord) (*CSR, error) {
	for _, e := range entries {
		if e.Row < 0 || int(e.Row) >= rows || e.Col < 0 || int(e.Col) >= cols {
			return nil, fmt.Errorf("matrix: COO entry (%d,%d) outside %dx%d", e.Row, e.Col, rows, cols)
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Row != entries[j].Row {
			return entries[i].Row < entries[j].Row
		}
		return entries[i].Col < entries[j].Col
	})
	a := &CSR{
		NumRows: rows,
		NumCols: cols,
		RowPtr:  make([]int64, rows+1),
	}
	a.ColIdx = make([]int32, 0, len(entries))
	a.Val = make([]float64, 0, len(entries))
	for k := 0; k < len(entries); {
		e := entries[k]
		v := e.Val
		k++
		for k < len(entries) && entries[k].Row == e.Row && entries[k].Col == e.Col {
			v += entries[k].Val
			k++
		}
		a.ColIdx = append(a.ColIdx, e.Col)
		a.Val = append(a.Val, v)
		a.RowPtr[e.Row+1]++
	}
	for i := 0; i < rows; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	return a, nil
}

// NewCSRFromDense builds a CSR matrix from a dense representation,
// storing entries with |v| > 0. Intended for tests.
func NewCSRFromDense(d [][]float64) *CSR {
	rows := len(d)
	cols := 0
	if rows > 0 {
		cols = len(d[0])
	}
	a := &CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int64, rows+1)}
	for i, r := range d {
		if len(r) != cols {
			panic("matrix: ragged dense input")
		}
		for j, v := range r {
			if v != 0 {
				a.ColIdx = append(a.ColIdx, int32(j))
				a.Val = append(a.Val, v)
			}
		}
		a.RowPtr[i+1] = int64(len(a.ColIdx))
	}
	return a
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
