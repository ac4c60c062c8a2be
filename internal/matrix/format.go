package matrix

import "fmt"

// Format is the node-level storage contract every sparse scheme satisfies so
// the parallel engine (spmv.Parallel), the solver operators and the
// distributed modes can run on any of them. Work is expressed in *blocks* —
// the smallest row groups a format can compute independently: single rows
// for CSR, row chunks of height C for SELL-C-σ. Blocks own disjoint result
// rows, so block ranges can be computed concurrently without synchronizing
// on the output vector.
type Format interface {
	// Dims returns the matrix dimensions.
	Dims() (rows, cols int)
	// Nnz returns the number of stored nonzeros (excluding any padding).
	Nnz() int64
	// NumBlocks returns the number of indivisible parallel work units.
	NumBlocks() int
	// BlockNnzPrefix returns a prefix sum of per-block work (length
	// NumBlocks+1), suitable for spmv.BalanceNnz-style chunking. Padded
	// formats count padded slots: that is the work a block actually costs.
	BlockNnzPrefix() []int64
	// MulVecBlocks computes the rows owned by blocks [lo, hi) of y = A·x,
	// overwriting those rows of y.
	MulVecBlocks(y, x []float64, lo, hi int)
	// MulVecBlocksAdd is MulVecBlocks with += semantics on y.
	MulVecBlocksAdd(y, x []float64, lo, hi int)
}

var _ Format = (*CSR)(nil)

// FormatBuilder constructs a storage format from CSR input. Build covers
// the whole matrix; BuildColRange builds the format of the sub-matrix
// holding only the entries with columns in [colLo, colHi) — the local half
// of a distributed column split. Implementations keep the full row count
// and column dimension (so input and result vectors keep their indexing);
// only the stored entries are restricted.
type FormatBuilder interface {
	// Name identifies the format (benchmark labels, error messages).
	Name() string
	// Build converts the full matrix.
	Build(a *CSR) (Format, error)
	// BuildColRange converts only the entries with columns in [colLo, colHi).
	BuildColRange(a *CSR, colLo, colHi int) (Format, error)
}

// CSRBuilder is the identity FormatBuilder: Build returns the matrix
// itself, BuildColRange a column-restricted copy.
type CSRBuilder struct{}

var _ FormatBuilder = CSRBuilder{}

// Name returns "crs".
func (CSRBuilder) Name() string { return "crs" }

// Build returns a unchanged.
func (CSRBuilder) Build(a *CSR) (Format, error) { return a, nil }

// BuildColRange returns a copy restricted to columns [colLo, colHi).
func (CSRBuilder) BuildColRange(a *CSR, colLo, colHi int) (Format, error) {
	if colLo < 0 || colHi > a.NumCols || colLo > colHi {
		return nil, fmt.Errorf("matrix: column range [%d,%d) outside [0,%d]", colLo, colHi, a.NumCols)
	}
	return a.RestrictCols(colLo, colHi), nil
}

// NumBlocks returns the row count: CSR parallelizes at row granularity.
func (a *CSR) NumBlocks() int { return a.NumRows }

// BlockNnzPrefix returns RowPtr: per-row nonzero counts in prefix form.
func (a *CSR) BlockNnzPrefix() []int64 { return a.RowPtr }

// MulVecBlocks computes y[lo:hi] = (A·x)[lo:hi]. The row loop is RowDot's
// body written out in place: RowDot is too large for the compiler to inline,
// and a call per row was the largest single cost of the kernel. The order
// of the additions is RowDot's, which TestCSRRowKernelsMatchRowDot pins.
//
//repro:noalloc
func (a *CSR) MulVecBlocks(y, x []float64, lo, hi int) {
	rowPtr, colIdx, val := a.RowPtr, a.ColIdx, a.Val
	for i := lo; i < hi; i++ {
		k, end := rowPtr[i], rowPtr[i+1]
		s := 0.0
		for ; k+4 <= end; k += 4 {
			s += val[k] * x[colIdx[k]]
			s += val[k+1] * x[colIdx[k+1]]
			s += val[k+2] * x[colIdx[k+2]]
			s += val[k+3] * x[colIdx[k+3]]
		}
		for ; k < end; k++ {
			s += val[k] * x[colIdx[k]]
		}
		y[i] = s
	}
}

// MulVecBlocksAdd computes y[lo:hi] += (A·x)[lo:hi], starting each row's
// sum from y[i] as RowDot(y[i], …) does.
//
//repro:noalloc
func (a *CSR) MulVecBlocksAdd(y, x []float64, lo, hi int) {
	rowPtr, colIdx, val := a.RowPtr, a.ColIdx, a.Val
	for i := lo; i < hi; i++ {
		k, end := rowPtr[i], rowPtr[i+1]
		s := y[i]
		for ; k+4 <= end; k += 4 {
			s += val[k] * x[colIdx[k]]
			s += val[k+1] * x[colIdx[k+1]]
			s += val[k+2] * x[colIdx[k+2]]
			s += val[k+3] * x[colIdx[k+3]]
		}
		for ; k < end; k++ {
			s += val[k] * x[colIdx[k]]
		}
		y[i] = s
	}
}

// RowDot accumulates s + Σ val[k]·x[colIdx[k]] over k in [lo, hi), 4-way
// unrolled. The unroll keeps a single running accumulator — strictly
// sequential floating-point order — and still amortizes loop control and
// bounds checks over four entries. RowDot is the reference summation order
// of the engine: the hot row loops (CSR, spmv.LocalView, spmv.CompactCSR)
// restate its body inline rather than pay a call per row, SELL-C-σ keeps
// the same order per row, and tests pin each CSR-family loop to it bit for
// bit — which is what makes the serial, parallel, split two-pass and
// compacted-halo results bit-identical.
//
//repro:noalloc
//repro:api the reference summation order the row-kernel tests pin the inline kernels to
func RowDot(s float64, val []float64, colIdx []int32, x []float64, lo, hi int64) float64 {
	k := lo
	for ; k+4 <= hi; k += 4 {
		s += val[k] * x[colIdx[k]]
		s += val[k+1] * x[colIdx[k+1]]
		s += val[k+2] * x[colIdx[k+2]]
		s += val[k+3] * x[colIdx[k+3]]
	}
	for ; k < hi; k++ {
		s += val[k] * x[colIdx[k]]
	}
	return s
}
