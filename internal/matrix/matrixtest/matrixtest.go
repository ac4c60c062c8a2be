// Package matrixtest holds the matrix helpers that only tests use: dense
// conversions, structural comparisons and the result digest the golden
// tests pin. No program imports it.
package matrixtest

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/matrix"
)

// Digest hashes a vector's exact bits: 64-bit FNV-1a over the
// little-endian bytes of math.Float64bits of each element, in order. Two
// vectors share a digest when they are bit-identical, so a golden digest
// pins a result across builds, not only within one.
func Digest(v []float64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, x := range v {
		b := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= prime
			b >>= 8
		}
	}
	return h
}

// Coord is one coordinate-format (COO) entry.
type Coord struct {
	Row, Col int32
	Val      float64
}

// NewCSRFromCOO builds a CSR matrix from coordinate entries. Duplicate
// (row, col) entries are summed; entries are sorted per row by column.
// The input slice is reordered in place.
func NewCSRFromCOO(rows, cols int, entries []Coord) (*matrix.CSR, error) {
	for _, e := range entries {
		if e.Row < 0 || int(e.Row) >= rows || e.Col < 0 || int(e.Col) >= cols {
			return nil, fmt.Errorf("matrixtest: COO entry (%d,%d) outside %dx%d", e.Row, e.Col, rows, cols)
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Row != entries[j].Row {
			return entries[i].Row < entries[j].Row
		}
		return entries[i].Col < entries[j].Col
	})
	a := &matrix.CSR{
		NumRows: rows,
		NumCols: cols,
		RowPtr:  make([]int64, rows+1),
		ColIdx:  make([]int32, 0, len(entries)),
		Val:     make([]float64, 0, len(entries)),
	}
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
// storing the nonzero entries.
func NewCSRFromDense(d [][]float64) *matrix.CSR {
	rows := len(d)
	cols := 0
	if rows > 0 {
		cols = len(d[0])
	}
	a := &matrix.CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int64, rows+1)}
	for i, r := range d {
		if len(r) != cols {
			panic("matrixtest: ragged dense input")
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

// Dense returns a as a dense row-major slice of slices.
func Dense(a *matrix.CSR) [][]float64 {
	d := make([][]float64, a.NumRows)
	for i := range d {
		d[i] = make([]float64, a.NumCols)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d[i][a.ColIdx[k]] = a.Val[k]
		}
	}
	return d
}

// Clone returns a deep copy of a.
func Clone(a *matrix.CSR) *matrix.CSR {
	return &matrix.CSR{
		NumRows: a.NumRows,
		NumCols: a.NumCols,
		RowPtr:  append([]int64(nil), a.RowPtr...),
		ColIdx:  append([]int32(nil), a.ColIdx...),
		Val:     append([]float64(nil), a.Val...),
	}
}

// Equal reports whether two matrices have identical structure and values.
func Equal(a, b *matrix.CSR) bool {
	return a.NumRows == b.NumRows && a.NumCols == b.NumCols &&
		slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.ColIdx, b.ColIdx) && slices.Equal(a.Val, b.Val)
}

// ExtractRows returns the sub-matrix of rows [lo, hi) of a, keeping the
// full column range; it shares a's column and value arrays.
func ExtractRows(a *matrix.CSR, lo, hi int) *matrix.CSR {
	if lo < 0 || hi > a.NumRows || lo > hi {
		panic(fmt.Sprintf("matrixtest: ExtractRows bounds [%d,%d) outside [0,%d)", lo, hi, a.NumRows))
	}
	base := a.RowPtr[lo]
	sub := &matrix.CSR{
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

// Transpose returns Aᵀ as a new CSR matrix.
func Transpose(a *matrix.CSR) *matrix.CSR {
	t := &matrix.CSR{
		NumRows: a.NumCols,
		NumCols: a.NumRows,
		RowPtr:  make([]int64, a.NumCols+1),
		ColIdx:  make([]int32, a.Nnz()),
		Val:     make([]float64, a.Nnz()),
	}
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

// IsStructurallySymmetric reports whether the sparsity pattern of a equals
// that of aᵀ. A rectangular matrix is not symmetric.
func IsStructurallySymmetric(a *matrix.CSR) bool {
	if a.NumRows != a.NumCols {
		return false
	}
	t := Transpose(a)
	return slices.Equal(a.RowPtr, t.RowPtr) && slices.Equal(a.ColIdx, t.ColIdx)
}

// IsSymmetric reports whether a is numerically symmetric to within tol.
func IsSymmetric(a *matrix.CSR, tol float64) bool {
	if !IsStructurallySymmetric(a) {
		return false
	}
	t := Transpose(a)
	for k := range a.Val {
		if math.Abs(a.Val[k]-t.Val[k]) > tol {
			return false
		}
	}
	return true
}
