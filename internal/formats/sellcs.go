// Package formats holds SELL-C-σ, the chunked storage scheme of the
// paper's successor line, next to the CRS of internal/matrix that §1.2
// chooses as "the most efficient format for general sparse matrices on
// cache-based microprocessors". Both satisfy matrix.Format, so the parallel
// engine, the solvers and the distributed modes run on either; see
// README.md for when SELL-C-σ beats CRS and how σ-sorting composes with RCM
// reordering.
package formats

import (
	"fmt"
	"sort"

	"repro/internal/matrix"
)

// MaxChunkHeight bounds the SELL-C-σ chunk height C so the kernel can keep
// its per-chunk accumulators in a fixed stack array.
const MaxChunkHeight = 64

// SELLCSigma is the SELL-C-σ storage scheme (Kreutzer, Hager, Wellein et
// al.) for wide-SIMD hardware: rows are grouped into chunks of height C,
// each chunk is padded only to the width of its own longest row, and rows
// are sorted by descending length within windows of σ rows so that
// chunk-mates have similar lengths and padding stays small. C = 1
// degenerates to CSR; C = NumRows with σ = NumRows pads every row to the
// longest one, in length-sorted order.
//
// Entries are stored chunk-local column-major: slot j of chunk c occupies
// positions ChunkPtr[c]+j·C .. ChunkPtr[c]+j·C+C-1, one entry per chunk row.
// The trailing chunk is padded to full height C so the stride is uniform.
type SELLCSigma struct {
	Rows, Cols int
	C, Sigma   int
	// Perm[k] is the original row stored at sorted position k.
	Perm []int32
	// ChunkPtr[c] is the storage offset of chunk c; len NumChunks+1.
	ChunkPtr []int64
	// ChunkLen[c] is the slot count (width) of chunk c.
	ChunkLen []int32
	ColIdx   []int32
	Val      []float64

	nnz int64
}

// NewSELLCSigma converts a CSR matrix. c must lie in [1, MaxChunkHeight];
// sigma ≥ 1 is the sorting-window size (sigma = 1 disables sorting and
// preserves row order; a multiple of c is customary).
func NewSELLCSigma(a *matrix.CSR, c, sigma int) (*SELLCSigma, error) {
	return NewSELLCSigmaColRange(a, c, sigma, 0, a.NumCols)
}

// NewSELLCSigmaColRange builds the SELL-C-σ representation of the entries
// of a with columns in [colLo, colHi) — the local half of a distributed
// column split, without materializing an intermediate CSR copy. Row count
// and column dimension stay those of a (rows with no in-range entry are
// stored with width contributions of zero), so input and result vectors
// keep their indexing. Row lengths for σ-sorting and chunk widths count
// in-range entries only.
//
//repro:api column-split machinery, deleted with the row schedule (ROADMAP item 10)
func NewSELLCSigmaColRange(a *matrix.CSR, c, sigma, colLo, colHi int) (*SELLCSigma, error) {
	if c < 1 || c > MaxChunkHeight {
		return nil, fmt.Errorf("formats: chunk height C=%d outside [1,%d]", c, MaxChunkHeight)
	}
	if sigma < 1 {
		return nil, fmt.Errorf("formats: sorting window σ=%d < 1", sigma)
	}
	if colLo < 0 || colHi > a.NumCols || colLo > colHi {
		return nil, fmt.Errorf("formats: column range [%d,%d) outside [0,%d]", colLo, colHi, a.NumCols)
	}
	lo32, hi32 := int32(colLo), int32(colHi)
	n := a.NumRows
	s := &SELLCSigma{
		Rows: n, Cols: a.NumCols, C: c, Sigma: sigma,
		Perm: make([]int32, n),
	}
	lens := make([]int, n)
	for i := 0; i < n; i++ {
		s.Perm[i] = int32(i)
		cols, _ := a.Row(i)
		for _, col := range cols {
			if col >= lo32 && col < hi32 {
				lens[i]++
			}
		}
		s.nnz += int64(lens[i])
	}
	// σ-window sort: descending row length within each window of σ rows,
	// stable so equal-length rows keep their (e.g. RCM-optimized) order.
	for lo := 0; lo < n; lo += sigma {
		hi := lo + sigma
		if hi > n {
			hi = n
		}
		win := s.Perm[lo:hi]
		sort.SliceStable(win, func(x, y int) bool {
			return lens[win[x]] > lens[win[y]]
		})
	}

	numChunks := (n + c - 1) / c
	s.ChunkPtr = make([]int64, numChunks+1)
	s.ChunkLen = make([]int32, numChunks)
	for ch := 0; ch < numChunks; ch++ {
		width := 0
		for r := ch * c; r < (ch+1)*c && r < n; r++ {
			if l := lens[s.Perm[r]]; l > width {
				width = l
			}
		}
		s.ChunkLen[ch] = int32(width)
		s.ChunkPtr[ch+1] = s.ChunkPtr[ch] + int64(width*c)
	}
	s.ColIdx = make([]int32, s.ChunkPtr[numChunks])
	s.Val = make([]float64, s.ChunkPtr[numChunks])
	// Padding slots keep ColIdx 0 and Val 0: the kernel's 0·x[0] term adds
	// +0.0, which leaves accumulators bit-unchanged for finite x. (With a
	// non-finite x[0], 0·±Inf = NaN contaminates padded rows — the standard
	// SELL-C-σ caveat; see MulVecBlocks.)
	for ch := 0; ch < numChunks; ch++ {
		base := s.ChunkPtr[ch]
		for r := 0; r < c; r++ {
			row := ch*c + r
			if row >= n {
				break
			}
			cols, vals := a.Row(int(s.Perm[row]))
			slot := 0
			for j, col := range cols {
				if col < lo32 || col >= hi32 {
					continue
				}
				s.ColIdx[base+int64(slot*c+r)] = col
				s.Val[base+int64(slot*c+r)] = vals[j]
				slot++
			}
		}
	}
	return s, nil
}

var _ matrix.Format = (*SELLCSigma)(nil)

// SELLBuilder is the matrix.FormatBuilder of SELL-C-σ, carrying the chunk
// height C and sorting window σ. It is what Plan.ConvertFormat and the
// format-generic split consume, covering both the full local matrix and
// the column-restricted local half.
type SELLBuilder struct {
	C, Sigma int
}

var _ matrix.FormatBuilder = SELLBuilder{}

// Name returns e.g. "sell-32-256".
func (b SELLBuilder) Name() string { return fmt.Sprintf("sell-%d-%d", b.C, b.Sigma) }

// Build converts the full matrix.
func (b SELLBuilder) Build(a *matrix.CSR) (matrix.Format, error) {
	return NewSELLCSigma(a, b.C, b.Sigma)
}

// BuildColRange converts only the entries with columns in [colLo, colHi).
func (b SELLBuilder) BuildColRange(a *matrix.CSR, colLo, colHi int) (matrix.Format, error) {
	return NewSELLCSigmaColRange(a, b.C, b.Sigma, colLo, colHi)
}

// Dims returns the matrix dimensions.
func (s *SELLCSigma) Dims() (rows, cols int) { return s.Rows, s.Cols }

// Nnz returns the stored nonzeros, excluding padding.
func (s *SELLCSigma) Nnz() int64 { return s.nnz }

// NumBlocks returns the chunk count: chunks own disjoint result rows and are
// the format's parallel work unit.
func (s *SELLCSigma) NumBlocks() int { return len(s.ChunkLen) }

// BlockNnzPrefix returns the per-chunk stored-slot counts (including
// padding — the work a chunk actually costs) in prefix form.
func (s *SELLCSigma) BlockNnzPrefix() []int64 { return s.ChunkPtr }

// PaddingRatio returns stored slots / actual nonzeros.
func (s *SELLCSigma) PaddingRatio() float64 {
	if s.nnz == 0 {
		return 1
	}
	return float64(s.ChunkPtr[len(s.ChunkPtr)-1]) / float64(s.nnz)
}

// MulVec computes y = A·x.
func (s *SELLCSigma) MulVec(y, x []float64) {
	if len(x) != s.Cols || len(y) != s.Rows {
		panic("formats: SELL-C-σ MulVec dimension mismatch")
	}
	s.MulVecBlocks(y, x, 0, len(s.ChunkLen))
}

// MulVecBlocks computes the rows of chunks [lo, hi), overwriting them in y.
// Per row the accumulation runs in ascending slot order — the same
// floating-point order as the CSR row kernel — so for finite x the results
// are bit-identical to the serial CRS reference. (Padding slots multiply
// 0·x[0]; if x holds Inf or NaN — e.g. a diverged solver iterate — padded
// rows pick up NaN where CSR would not. A -0.0 partial sum likewise
// normalizes to +0.0.)
func (s *SELLCSigma) MulVecBlocks(y, x []float64, lo, hi int) {
	s.mulBlocks(y, x, lo, hi, false)
}

// MulVecBlocksAdd is MulVecBlocks with += semantics.
func (s *SELLCSigma) MulVecBlocksAdd(y, x []float64, lo, hi int) {
	s.mulBlocks(y, x, lo, hi, true)
}

func (s *SELLCSigma) mulBlocks(y, x []float64, lo, hi int, add bool) {
	c := s.C
	for ch := lo; ch < hi; ch++ {
		var acc [MaxChunkHeight]float64
		rows := s.Rows - ch*c // rows actually present in this chunk
		if rows > c {
			rows = c
		}
		if add {
			for r := 0; r < rows; r++ {
				acc[r] = y[s.Perm[ch*c+r]]
			}
		}
		base := s.ChunkPtr[ch]
		for j := int32(0); j < s.ChunkLen[ch]; j++ {
			val := s.Val[base : base+int64(c)]
			col := s.ColIdx[base : base+int64(c)]
			for r := 0; r < c; r++ {
				acc[r] += val[r] * x[col[r]]
			}
			base += int64(c)
		}
		for r := 0; r < rows; r++ {
			y[s.Perm[ch*c+r]] = acc[r]
		}
	}
}
