package spmv

import (
	"fmt"

	"repro/internal/matrix"
)

// Serial computes y = A·x with the scalar CRS kernel of §1.2.
//
//repro:noalloc
func Serial(y []float64, a *matrix.CSR, x []float64) {
	a.MulVec(y, x)
}

// Parallel is a sparse matrix in any storage format bundled with a
// precomputed work-balanced chunking for a team of a given size — the
// analogue of the paper's OpenMP-parallel spMVM with NUMA-aware static
// scheduling. Chunk boundaries are block ranges in the sense of
// matrix.Format: row ranges for CSR, chunk ranges for SELL-C-σ.
type Parallel struct {
	F      matrix.Format
	A      *matrix.CSR // non-nil when F is a CSR matrix (diagnostics, tests)
	Chunks []Range
}

// NewParallel chunks a CSR matrix for the given worker count.
func NewParallel(a *matrix.CSR, workers int) *Parallel {
	return &Parallel{A: a, F: a, Chunks: BalanceNnz(a.RowPtr, workers)}
}

// NewParallelFormat chunks a matrix in any storage format for the given
// worker count, balancing by per-block stored entries.
func NewParallelFormat(f matrix.Format, workers int) *Parallel {
	p := &Parallel{F: f, Chunks: BalanceNnz(f.BlockNnzPrefix(), workers)}
	if a, ok := f.(*matrix.CSR); ok {
		p.A = a
	}
	return p
}

// Rows returns the row count of the underlying matrix.
func (p *Parallel) Rows() int {
	rows, _ := p.F.Dims()
	return rows
}

// MulVec computes y = A·x on the team. The team size must be at least the
// chunk count; extra workers idle.
func (p *Parallel) MulVec(t *Team, y, x []float64) {
	if len(p.Chunks) > t.Size() {
		panic(fmt.Sprintf("spmv: %d chunks but team of %d", len(p.Chunks), t.Size()))
	}
	t.RunSubteam(len(p.Chunks), func(w int) {
		r := p.Chunks[w]
		p.F.MulVecBlocks(y, x, r.Lo, r.Hi)
	})
}

// ChunkNnz returns the stored-entry count of chunk w (for balance
// diagnostics).
func (p *Parallel) ChunkNnz(w int) int64 {
	r := p.Chunks[w]
	prefix := p.F.BlockNnzPrefix()
	return prefix[r.Hi] - prefix[r.Lo]
}

// CompactCSR stores only the rows of a matrix that hold at least one
// nonzero, as a packed CSR plus the list of original row indices. The
// remote half of a Split uses it so the second pass of the overlap variants
// walks halo-coupled rows only — work proportional to the halo, not to the
// local row count — which is exactly the traffic the modified code balance
// of Eq. (2) charges for.
type CompactCSR struct {
	// NumRows and NumCols are the logical (parent-matrix) dimensions.
	NumRows, NumCols int
	// Rows lists the original indices of the stored rows, ascending.
	Rows []int32
	// RowPtr has length len(Rows)+1; stored row p occupies
	// ColIdx[RowPtr[p]:RowPtr[p+1]].
	RowPtr []int64
	ColIdx []int32
	Val    []float64
}

// Nnz returns the number of stored entries.
func (c *CompactCSR) Nnz() int64 {
	if len(c.RowPtr) == 0 {
		return 0
	}
	return c.RowPtr[len(c.RowPtr)-1]
}

// NumStoredRows returns the number of rows with at least one entry.
func (c *CompactCSR) NumStoredRows() int { return len(c.Rows) }

// Expand returns the equivalent full-row CSR matrix (tests, diagnostics).
func (c *CompactCSR) Expand() *matrix.CSR {
	a := &matrix.CSR{
		NumRows: c.NumRows, NumCols: c.NumCols,
		RowPtr: make([]int64, c.NumRows+1),
		ColIdx: append([]int32(nil), c.ColIdx...),
		Val:    append([]float64(nil), c.Val...),
	}
	for p, i := range c.Rows {
		a.RowPtr[i+1] = c.RowPtr[p+1] - c.RowPtr[p]
	}
	for i := 0; i < c.NumRows; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	return a
}

// Validate checks structural invariants.
func (c *CompactCSR) Validate() error {
	if len(c.RowPtr) != len(c.Rows)+1 {
		return fmt.Errorf("spmv: compact RowPtr length %d, want %d", len(c.RowPtr), len(c.Rows)+1)
	}
	if c.RowPtr[0] != 0 {
		return fmt.Errorf("spmv: compact RowPtr[0] = %d, want 0", c.RowPtr[0])
	}
	prev := int32(-1)
	for p, i := range c.Rows {
		if i <= prev || int(i) >= c.NumRows {
			return fmt.Errorf("spmv: compact row list not ascending in range at %d", p)
		}
		if c.RowPtr[p] >= c.RowPtr[p+1] {
			return fmt.Errorf("spmv: compact row %d empty or RowPtr not monotone", i)
		}
		prev = i
	}
	nnz := c.Nnz()
	if int64(len(c.ColIdx)) != nnz || int64(len(c.Val)) != nnz {
		return fmt.Errorf("spmv: compact nnz %d but len(ColIdx)=%d len(Val)=%d", nnz, len(c.ColIdx), len(c.Val))
	}
	for _, col := range c.ColIdx {
		if col < 0 || int(col) >= c.NumCols {
			return fmt.Errorf("spmv: compact column %d out of range [0,%d)", col, c.NumCols)
		}
	}
	return nil
}

// MulStoredRowsAdd computes y[i] += (A·x)[i] for the stored rows [lo, hi)
// — indices into Rows, not original row numbers. Chunking the remote pass
// by stored rows (BalanceNnz over RowPtr) balances on the compacted
// remote's nnz; chunks own disjoint stored rows, hence disjoint result
// rows. The row loop is matrix.RowDot's body inline — the strictly
// sequential accumulation order every kernel of the engine shares, without
// a call per row — and the second pass's += on the result vector is what
// motivates the modified code balance of Eq. (2).
//
//repro:noalloc
func (c *CompactCSR) MulStoredRowsAdd(y, x []float64, lo, hi int) {
	rows, rowPtr, colIdx, val := c.Rows, c.RowPtr, c.ColIdx, c.Val
	for p := lo; p < hi; p++ {
		i := rows[p]
		k, end := rowPtr[p], rowPtr[p+1]
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

// NewCompactRemote builds just the compacted remote half of the column
// split at boundary localCols: the entries with columns ≥ localCols,
// stored for halo-coupled rows only. It asks nothing of the order of a row's
// columns.
func NewCompactRemote(a *matrix.CSR, localCols int) *CompactCSR {
	if localCols < 0 || localCols > a.NumCols {
		panic(fmt.Sprintf("spmv: split boundary %d outside [0,%d]", localCols, a.NumCols))
	}
	var nnzRem int64
	remRows := 0
	for i := 0; i < a.NumRows; i++ {
		cols, _ := a.Row(i)
		rem := 0
		for _, c := range cols {
			if int(c) >= localCols {
				rem++
			}
		}
		nnzRem += int64(rem)
		if rem > 0 {
			remRows++
		}
	}
	rem := &CompactCSR{
		NumRows: a.NumRows, NumCols: a.NumCols,
		Rows:   make([]int32, 0, remRows),
		RowPtr: make([]int64, 1, remRows+1),
		ColIdx: make([]int32, 0, nnzRem),
		Val:    make([]float64, 0, nnzRem),
	}
	for i := 0; i < a.NumRows; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			if int(c) >= localCols {
				rem.ColIdx = append(rem.ColIdx, c)
				rem.Val = append(rem.Val, vals[k])
			}
		}
		if int64(len(rem.ColIdx)) > rem.RowPtr[len(rem.RowPtr)-1] {
			rem.Rows = append(rem.Rows, int32(i))
			rem.RowPtr = append(rem.RowPtr, int64(len(rem.ColIdx)))
		}
	}
	return rem
}

// LocalView is the local half of a column split, stored as a view: row i's
// local entries are the prefix [A.RowPtr[i], Mid[i]) of the same row of A.
// It needs every row of A to list its columns < LocalCols before the
// others, which ascending rows do. No entry is stored a second time — by
// Eq. (1) the kernel is bound by the matrix bytes it streams, and a copy
// would double the bytes a rank holds — and the kernel runs matrix.RowDot's
// order over the same values as a column-restricted copy's, so results are
// bit-identical to one.
type LocalView struct {
	A *matrix.CSR
	// Mid has one entry per row: the end of the row's local prefix, as an
	// offset into A.ColIdx and A.Val.
	Mid []int64

	nnz int64
}

var _ matrix.Format = (*LocalView)(nil)

// NewLocalView returns the view of a whose row i ends at mid[i], after
// checking that every mid[i] lies inside row i.
func NewLocalView(a *matrix.CSR, mid []int64) (*LocalView, error) {
	if len(mid) != a.NumRows {
		return nil, fmt.Errorf("spmv: local view has %d prefix ends for %d rows", len(mid), a.NumRows)
	}
	v := &LocalView{A: a, Mid: mid}
	for i, m := range mid {
		if m < a.RowPtr[i] || m > a.RowPtr[i+1] {
			return nil, fmt.Errorf("spmv: local view row %d: prefix end %d outside the row [%d,%d]", i, m, a.RowPtr[i], a.RowPtr[i+1])
		}
		v.nnz += m - a.RowPtr[i]
	}
	return v, nil
}

// Dims returns A's dimensions: the view multiplies the same vectors.
func (v *LocalView) Dims() (rows, cols int) { return v.A.NumRows, v.A.NumCols }

// Nnz returns the number of entries in the local prefixes.
func (v *LocalView) Nnz() int64 { return v.nnz }

// NumBlocks returns the row count: like CSR, the view parallelizes by row.
func (v *LocalView) NumBlocks() int { return v.A.NumRows }

// BlockNnzPrefix returns the prefix sum of the rows' local entry counts. It
// is computed on every call; Chunks balances on the same counts without it.
func (v *LocalView) BlockNnzPrefix() []int64 {
	prefix := make([]int64, len(v.Mid)+1)
	for i, m := range v.Mid {
		prefix[i+1] = prefix[i] + m - v.A.RowPtr[i]
	}
	return prefix
}

// Chunks returns BalanceNnz(v.BlockNnzPrefix(), parts) in one sweep over
// Mid, without building the prefix: every worker of a cluster chunks its
// local pass, and a row-count-sized scratch array each showed in the time
// a cluster takes to come up.
func (v *LocalView) Chunks(parts int) []Range {
	rowPtr := v.A.RowPtr
	pos, sum := 0, int64(0) // sum counts the local entries of rows [0, pos)
	return balance(len(v.Mid), v.nnz, parts, func(lo, maxHi int, target int64) int {
		for ; pos < lo; pos++ {
			sum += v.Mid[pos] - rowPtr[pos]
		}
		for pos < maxHi && sum < target {
			sum += v.Mid[pos] - rowPtr[pos]
			pos++
		}
		return pos
	})
}

// MulVecBlocks computes y[lo:hi] = (A_local·x)[lo:hi], with matrix.RowDot's
// body inline over each row's prefix [RowPtr[i], Mid[i]).
//
//repro:noalloc
func (v *LocalView) MulVecBlocks(y, x []float64, lo, hi int) {
	rowPtr, mid, colIdx, val := v.A.RowPtr, v.Mid, v.A.ColIdx, v.A.Val
	for i := lo; i < hi; i++ {
		k, end := rowPtr[i], mid[i]
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

// MulVecBlocksAdd computes y[lo:hi] += (A_local·x)[lo:hi].
//
//repro:noalloc
func (v *LocalView) MulVecBlocksAdd(y, x []float64, lo, hi int) {
	rowPtr, mid, colIdx, val := v.A.RowPtr, v.Mid, v.A.ColIdx, v.A.Val
	for i := lo; i < hi; i++ {
		k, end := rowPtr[i], mid[i]
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

// Split is a matrix divided into a "local" part and a "remote" part with
// disjoint column footprints, as required by the overlap variants
// (Fig. 4b/4c): the local part touches only columns < LocalCols; the remote
// part touches only columns ≥ LocalCols (the received halo entries). The
// local part is a view of the matrix itself. The remote part is a compacted
// copy: only rows with at least one remote nonzero are stored, so the second
// pass scales with the halo size, not the matrix size.
type Split struct {
	Local     *LocalView
	Remote    *CompactCSR
	LocalCols int
}

// NewSplit partitions the columns of a at the boundary localCols. The local
// half is a view of a, which must list every row's columns < localCols
// before the others (NewSplit panics naming a row that does not; a matrix
// in canonical form always does); the remote half copies the halo-coupled
// rows. Row-wise the two passes still write the same result vector, the
// second with += semantics. core.BuildPlan fills a Split in while it writes
// the matrix; this constructor is for a matrix that already exists.
func NewSplit(a *matrix.CSR, localCols int) *Split {
	if localCols < 0 || localCols > a.NumCols {
		panic(fmt.Sprintf("spmv: split boundary %d outside [0,%d]", localCols, a.NumCols))
	}
	mid := make([]int64, a.NumRows)
	var nnz int64
	for i := range mid {
		k, end := a.RowPtr[i], a.RowPtr[i+1]
		for k < end && int(a.ColIdx[k]) < localCols {
			k++
		}
		mid[i] = k
		nnz += k - a.RowPtr[i]
		for ; k < end; k++ {
			if int(a.ColIdx[k]) < localCols {
				panic(fmt.Sprintf("spmv: row %d lists local column %d after a remote one; the split views rows whose local columns come first", i, a.ColIdx[k]))
			}
		}
	}
	return &Split{
		Local:     &LocalView{A: a, Mid: mid, nnz: nnz},
		Remote:    NewCompactRemote(a, localCols),
		LocalCols: localCols,
	}
}

// AsFormatSplit returns the format-generic form of the split, with the
// view as its matrix.Format. The halves are shared, not copied.
func (s *Split) AsFormatSplit() *FormatSplit {
	return &FormatSplit{Local: s.Local, Remote: s.Remote, LocalCols: s.LocalCols}
}

// FormatSplit is the format-generic Split of the overlap modes: the local
// half in any storage format (CSR, SELL-C-σ, …), the remote half always the
// compacted CSR. The two passes are barrier-separated, so the local pass is
// chunked in the local format's block space while the remote pass is
// chunked in the compacted remote's stored-row space — each balanced on its
// own nonzero counts.
type FormatSplit struct {
	Local     matrix.Format
	Remote    *CompactCSR
	LocalCols int
}

// NewFormatSplit builds the format-generic split of a at column boundary
// localCols: the local half via the builder's column-range conversion, the
// remote half compacted to halo-coupled rows.
func NewFormatSplit(a *matrix.CSR, localCols int, b matrix.FormatBuilder) (*FormatSplit, error) {
	local, err := b.BuildColRange(a, 0, localCols)
	if err != nil {
		return nil, fmt.Errorf("spmv: building %s local half: %w", b.Name(), err)
	}
	return &FormatSplit{Local: local, Remote: NewCompactRemote(a, localCols), LocalCols: localCols}, nil
}

// LocalChunks chunks the local pass by the local format's blocks, balanced
// on its stored (incl. padded) entries.
func (s *FormatSplit) LocalChunks(parts int) []Range {
	if v, ok := s.Local.(*LocalView); ok {
		return v.Chunks(parts)
	}
	return BalanceNnz(s.Local.BlockNnzPrefix(), parts)
}

// RemoteChunks chunks the remote pass by stored rows, balanced on the
// compacted remote's nnz.
func (s *FormatSplit) RemoteChunks(parts int) []Range {
	return BalanceNnz(s.Remote.RowPtr, parts)
}

// MulVecLocal computes y = A_local·x over local block chunks on the team.
func (s *FormatSplit) MulVecLocal(t *Team, chunks []Range, y, x []float64) {
	t.RunSubteam(len(chunks), func(w int) {
		r := chunks[w]
		s.Local.MulVecBlocks(y, x, r.Lo, r.Hi)
	})
}

// MulVecRemoteAdd computes y += A_remote·x over stored-row chunks.
func (s *FormatSplit) MulVecRemoteAdd(t *Team, chunks []Range, y, x []float64) {
	t.RunSubteam(len(chunks), func(w int) {
		r := chunks[w]
		s.Remote.MulStoredRowsAdd(y, x, r.Lo, r.Hi)
	})
}
