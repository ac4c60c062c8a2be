package matrix

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// PatternSource streams the sparsity pattern of a matrix row by row without
// requiring the matrix to be materialized. The paper's full-scale matrices
// (N up to 2.3×10⁷, Nnz up to 1.6×10⁸) are consumed in this form when only
// structural information (partitioning, communication volumes, cache
// behaviour) is needed.
//
// Implementations must be safe for concurrent use by multiple goroutines
// reading disjoint row ranges.
type PatternSource interface {
	// Dims returns the matrix dimensions.
	Dims() (rows, cols int)
	// AppendRow appends the column indices of row i to dst and returns the
	// extended slice. Indices need not be sorted unless the implementation
	// documents otherwise.
	AppendRow(i int, dst []int32) []int32
}

// ValueSource extends PatternSource with values, allowing full rows to be
// streamed for on-the-fly kernels and materialization.
type ValueSource interface {
	PatternSource
	// AppendRowValues appends the column indices and values of row i.
	// The two appended lengths are equal.
	AppendRowValues(i int, cols []int32, vals []float64) ([]int32, []float64)
}

// Materialize builds an in-memory CSR matrix from a ValueSource, rows in
// canonical form (ascending column index). Every array is allocated once,
// at its final size: a pattern pass counts each row, a prefix sum places
// it, and a value pass appends each row straight into its own slot. Both
// passes run over disjoint row ranges in parallel — the concurrency
// PatternSource promises. A source whose AppendRow and AppendRowValues
// disagree on a row's length is a bug in the source: Materialize panics
// naming the row.
func Materialize(src ValueSource) *CSR {
	rows, cols := src.Dims()
	a := &CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int64, rows+1)}
	forRowRanges(rows, func(lo, hi int) {
		var buf []int32
		for i := lo; i < hi; i++ {
			buf = src.AppendRow(i, buf[:0])
			a.RowPtr[i+1] = int64(len(buf))
		}
	})
	for i := 0; i < rows; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	a.ColIdx = make([]int32, a.RowPtr[rows])
	a.Val = make([]float64, a.RowPtr[rows])
	forRowRanges(rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p, q := a.RowPtr[i], a.RowPtr[i+1]
			// Capacity ends at the row's slot, so a longer row reallocates
			// instead of running into its neighbour's.
			c, v := src.AppendRowValues(i, a.ColIdx[p:p:q], a.Val[p:p:q])
			if int64(len(c)) != q-p || int64(len(v)) != q-p {
				panic(fmt.Sprintf("matrix: Materialize: row %d has %d entries in the pattern pass, %d columns and %d values in the value pass",
					i, q-p, len(c), len(v)))
			}
			SortRow(c, v)
		}
	})
	return a
}

// forRowRanges splits rows [0, rows) into one contiguous range per
// processor and runs fn on each concurrently, returning when all are done.
// A panic in fn is re-raised on the caller's goroutine.
func forRowRanges(rows int, fn func(lo, hi int)) {
	parts := min(runtime.GOMAXPROCS(0), rows)
	if parts <= 1 {
		fn(0, rows)
		return
	}
	var wg sync.WaitGroup
	panics := make([]any, parts)
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer func() { panics[p] = recover() }()
			fn(p*rows/parts, (p+1)*rows/parts)
		}(p)
	}
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
}

// RowNnzCounts returns the number of stored entries in each row: RowPtr
// differences for a *CSR, which already holds the answer, one streaming
// pass over the pattern for anything else.
func RowNnzCounts(src PatternSource) []int64 {
	rows, _ := src.Dims()
	counts := make([]int64, rows)
	if a, ok := src.(*CSR); ok {
		for i := range counts {
			counts[i] = a.RowPtr[i+1] - a.RowPtr[i]
		}
		return counts
	}
	var buf []int32
	for i := 0; i < rows; i++ {
		buf = src.AppendRow(i, buf[:0])
		counts[i] = int64(len(buf))
	}
	return counts
}

// CountNnz streams the pattern once and returns the total number of stored
// entries.
func CountNnz(src PatternSource) int64 {
	rows, _ := src.Dims()
	var total int64
	var buf []int32
	for i := 0; i < rows; i++ {
		buf = src.AppendRow(i, buf[:0])
		total += int64(len(buf))
	}
	return total
}

// Stats summarises structural properties of a sparse matrix
// (used for Fig. 1 captions and DESIGN/EXPERIMENTS reporting).
type Stats struct {
	Rows, Cols   int
	Nnz          int64
	NnzRowAvg    float64 // the paper's Nnzr
	NnzRowMin    int64
	NnzRowMax    int64
	Bandwidth    int64 // max |i - j| over stored entries
	AvgBandwidth float64
	Diagonal     int64 // number of stored diagonal entries
}

// ComputeStats streams the pattern once and gathers structural statistics.
func ComputeStats(src PatternSource) Stats {
	rows, cols := src.Dims()
	s := Stats{Rows: rows, Cols: cols, NnzRowMin: int64(1) << 62}
	var buf []int32
	var bwSum float64
	for i := 0; i < rows; i++ {
		buf = src.AppendRow(i, buf[:0])
		n := int64(len(buf))
		s.Nnz += n
		if n < s.NnzRowMin {
			s.NnzRowMin = n
		}
		if n > s.NnzRowMax {
			s.NnzRowMax = n
		}
		for _, c := range buf {
			d := int64(i) - int64(c)
			if d < 0 {
				d = -d
			}
			if d > s.Bandwidth {
				s.Bandwidth = d
			}
			bwSum += float64(d)
			if int(c) == i {
				s.Diagonal++
			}
		}
	}
	if rows > 0 {
		s.NnzRowAvg = float64(s.Nnz) / float64(rows)
	}
	if s.Nnz > 0 {
		s.AvgBandwidth = bwSum / float64(s.Nnz)
	} else {
		s.NnzRowMin = 0
	}
	return s
}

// BlockOccupancy aggregates the sparsity pattern into a blocks×blocks grid
// and returns the fraction of nonzero positions in each block, reproducing
// the occupancy visualisation of Fig. 1. The result is indexed
// [blockRow][blockCol].
func BlockOccupancy(src PatternSource, blocks int) [][]float64 {
	rows, cols := src.Dims()
	if blocks <= 0 {
		panic("matrix: BlockOccupancy needs blocks > 0")
	}
	occ := make([][]float64, blocks)
	for i := range occ {
		occ[i] = make([]float64, blocks)
	}
	if rows == 0 || cols == 0 {
		return occ
	}
	// blockOf inverts the range mapping [b*n/blocks, (b+1)*n/blocks) used for
	// normalization below, so every index lands in the block whose range
	// contains it even when blocks does not divide n.
	blockOf := func(i, n int) int { return ((i+1)*blocks - 1) / n }
	var buf []int32
	for i := 0; i < rows; i++ {
		bi := blockOf(i, rows)
		buf = src.AppendRow(i, buf[:0])
		for _, c := range buf {
			occ[bi][blockOf(int(c), cols)]++
		}
	}
	// Normalize by block area (positions per block).
	for bi := 0; bi < blocks; bi++ {
		rLo, rHi := bi*rows/blocks, (bi+1)*rows/blocks
		for bj := 0; bj < blocks; bj++ {
			cLo, cHi := bj*cols/blocks, (bj+1)*cols/blocks
			area := float64(rHi-rLo) * float64(cHi-cLo)
			if area > 0 {
				occ[bi][bj] /= area
			}
		}
	}
	return occ
}

// RenderOccupancy renders a block-occupancy grid as ASCII art with a
// logarithmic gray scale, one character per block.
func RenderOccupancy(occ [][]float64) string {
	const ramp = " .:-=+*#%@" // log-scale shade ramp, space = empty
	out := make([]byte, 0, len(occ)*(len(occ)+1))
	for _, row := range occ {
		for _, v := range row {
			out = append(out, shade(v, ramp))
		}
		out = append(out, '\n')
	}
	return string(out)
}

func shade(v float64, ramp string) byte {
	if v <= 0 {
		return ramp[0]
	}
	// Map occupancies 1e-6..0.5+ (the Fig. 1 color bar) onto the ramp.
	const lo, hi = 1e-6, 0.5
	t := (math.Log10(v) - math.Log10(lo)) / (math.Log10(hi) - math.Log10(lo))
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	idx := 1 + int(t*float64(len(ramp)-2)+0.5)
	if idx >= len(ramp) {
		idx = len(ramp) - 1
	}
	return ramp[idx]
}
