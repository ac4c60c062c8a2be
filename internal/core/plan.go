package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/matrix"
	"repro/internal/spmv"
)

// Exchange describes one halo segment exchanged with a peer rank.
type Exchange struct {
	Peer int
	// Count is the number of vector elements in the segment.
	Count int
	// Offset locates the segment: for receives, the offset into the halo
	// region of the local RHS vector; for sends, the offset into the
	// per-peer gather index list (always 0..Count of Indices).
	Offset int
	// Indices are, for sends, the local indices (relative to the owned row
	// block) of the elements to gather into the send buffer. Nil for
	// receives: halo segments are received contiguously in place.
	Indices []int32
}

// RankPlan is everything one rank needs to run the distributed SpMV:
// its owned rows, the renumbered local matrix (held once: the column split
// views it), and the send/receive schedule.
//
// Column renumbering: owned columns map to [0, NLocal); halo columns map to
// NLocal + position in the sorted halo list. Because row ownership is
// contiguous and the halo list is sorted by global index, each peer's halo
// entries form one contiguous segment — receives land directly in the RHS
// vector without a scatter pass.
type RankPlan struct {
	Rank   int
	Rows   spmv.Range
	NLocal int

	// HaloCols lists the global column indices of the halo, ascending.
	HaloCols []int32

	// RecvFrom and SendTo are ordered by peer rank.
	RecvFrom []Exchange
	SendTo   []Exchange

	// A is the full renumbered local matrix (vector mode without overlap
	// runs one kernel over it); every row lists its owned columns, then its
	// halo columns, ascending. Split divides it at column NLocal for the two
	// overlap modes: the local half is a view of A's row prefixes, the
	// remote half a copy of the halo-coupled rows' suffixes. Both are nil
	// when the plan was built pattern-only.
	A     *matrix.CSR
	Split *spmv.Split

	// Format, when non-nil, is an alternative storage scheme for the full
	// local matrix; the no-overlap mode then runs its kernel instead of the
	// CSR one. SplitFormat is the matching format-generic split (local half
	// in the same scheme, remote half the shared compacted CSR) that the
	// overlap and task modes run on. Plan.ConvertFormat sets both together;
	// NewCluster rejects a plan with only one of them set, so the modes can
	// never silently disagree on storage.
	Format      matrix.Format
	SplitFormat *spmv.FormatSplit

	// NnzLocal and NnzRemote count the entries touching owned and halo
	// columns, available even for pattern-only plans.
	NnzLocal, NnzRemote int64
}

// HaloSize returns the number of halo elements this rank receives.
func (rp *RankPlan) HaloSize() int { return len(rp.HaloCols) }

// VectorLen returns the length of the local RHS vector (owned + halo).
func (rp *RankPlan) VectorLen() int { return rp.NLocal + len(rp.HaloCols) }

// Plan is the full communication plan for a partition.
type Plan struct {
	Part  *Partition
	Ranks []*RankPlan
}

// Bytes is the plan's resident heap footprint, counted from the lengths of
// the arrays it holds: per rank the renumbered local matrix A (12 bytes per
// entry plus the row pointers), the split's per-row prefix ends, the
// compacted remote half (the halo-coupled entries a second time, with their
// row list and row pointers) and the halo metadata. A converted storage
// format is estimated at twice A's size — the full matrix and the
// split-local half again in that format. The serving registry evicts
// against this number.
func (p *Plan) Bytes() int64 {
	var total int64
	for _, rp := range p.Ranks {
		total += 4 * int64(len(rp.HaloCols))
		for _, tx := range rp.SendTo {
			total += 4 * int64(len(tx.Indices))
		}
		if rp.A == nil {
			continue
		}
		// CSR storage: 8-byte value + 4-byte column index per entry, plus
		// the row-pointer array.
		csr := 8*int64(len(rp.A.Val)) + 4*int64(len(rp.A.ColIdx)) + 8*int64(len(rp.A.RowPtr))
		total += csr
		total += 8 * int64(len(rp.Split.Local.Mid))
		rem := rp.Split.Remote
		total += 8*int64(len(rem.Val)) + 4*int64(len(rem.ColIdx)) + 4*int64(len(rem.Rows)) + 8*int64(len(rem.RowPtr))
		if rp.Format != nil {
			if _, isCSR := rp.Format.(*matrix.CSR); !isCSR {
				total += 2 * csr // converted full matrix + converted split-local half
			}
		}
	}
	return total
}

// BuildPlan constructs the communication plan for every rank. When src also
// implements matrix.ValueSource and withValues is true, the renumbered local
// matrices are materialized so the plan can execute real multiplications;
// otherwise the plan carries structure only (enough for the simulator).
func BuildPlan(src matrix.PatternSource, part *Partition, withValues bool) (*Plan, error) {
	if err := part.validate(); err != nil {
		return nil, err
	}
	rows, cols := src.Dims()
	if part.Rows() != rows {
		return nil, fmt.Errorf("core: partition covers %d rows, matrix has %d", part.Rows(), rows)
	}
	if rows != cols {
		return nil, fmt.Errorf("core: distributed SpMV requires a square matrix, got %dx%d", rows, cols)
	}
	var vsrc matrix.ValueSource
	if withValues {
		var ok bool
		vsrc, ok = src.(matrix.ValueSource)
		if !ok {
			return nil, fmt.Errorf("core: withValues requires a matrix.ValueSource")
		}
	}

	plan := &Plan{Part: part, Ranks: make([]*RankPlan, part.NumRanks())}
	errs := make([]error, part.NumRanks())
	forEachRank(part.NumRanks(), func(r int) {
		rp, err := buildRankPlan(src, vsrc, part, r)
		plan.Ranks[r] = rp
		errs[r] = err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Invert the receive lists into send lists: rank p must send to q the
	// elements of q's halo that p owns.
	for q, qp := range plan.Ranks {
		for _, rx := range qp.RecvFrom {
			p := rx.Peer
			seg := qp.HaloCols[rx.Offset : rx.Offset+rx.Count]
			idx := make([]int32, len(seg))
			base := int32(part.Ranks[p].Lo)
			for i, g := range seg {
				idx[i] = g - base
			}
			plan.Ranks[p].SendTo = append(plan.Ranks[p].SendTo, Exchange{
				Peer: q, Count: len(idx), Indices: idx,
			})
		}
	}
	for _, rp := range plan.Ranks {
		sort.Slice(rp.SendTo, func(i, j int) bool { return rp.SendTo[i].Peer < rp.SendTo[j].Peer })
	}
	return plan, nil
}

// ConvertFormat converts every rank's local matrix to the builder's storage
// scheme (e.g. formats.SELLBuilder) — both the full matrix the no-overlap
// kernel runs on and the local half of the column split the overlap and
// task modes run on. The split's local half is built directly from the full
// local matrix restricted to the owned columns [0, NLocal); the compacted
// remote half is shared with the CSR split (it stays a CompactCSR — its
// halo-coupled rows are short and scattered, where chunked formats have
// nothing to offer). Every mode therefore runs on the converted format; a
// plan can never end up with modes disagreeing on storage. The plan must
// have been built with values.
func (p *Plan) ConvertFormat(b matrix.FormatBuilder) error {
	// Convert everything first, assign only on full success: a mid-loop
	// failure must not leave the plan half-converted.
	full := make([]matrix.Format, len(p.Ranks))
	split := make([]*spmv.FormatSplit, len(p.Ranks))
	for i, rp := range p.Ranks {
		if rp.A == nil {
			return fmt.Errorf("core: rank %d has no local matrix (pattern-only plan)", rp.Rank)
		}
		f, err := b.Build(rp.A)
		if err != nil {
			return fmt.Errorf("core: rank %d %s conversion: %w", rp.Rank, b.Name(), err)
		}
		full[i] = f
		if csr, ok := f.(*matrix.CSR); ok && csr == rp.A {
			// Identity conversion (matrix.CSRBuilder): the plan's split
			// already is the column-restricted local half; don't copy it.
			split[i] = rp.Split.AsFormatSplit()
			continue
		}
		local, err := b.BuildColRange(rp.A, 0, rp.NLocal)
		if err != nil {
			return fmt.Errorf("core: rank %d %s split conversion: %w", rp.Rank, b.Name(), err)
		}
		split[i] = &spmv.FormatSplit{Local: local, Remote: rp.Split.Remote, LocalCols: rp.NLocal}
	}
	for i, rp := range p.Ranks {
		rp.Format = full[i]
		rp.SplitFormat = split[i]
	}
	return nil
}

// buildRankPlan streams this rank's rows, computes the halo, renumbers
// columns, and optionally materializes the local matrix.
func buildRankPlan(src matrix.PatternSource, vsrc matrix.ValueSource, part *Partition, rank int) (*RankPlan, error) {
	rg := part.Ranks[rank]
	rp := &RankPlan{Rank: rank, Rows: rg, NLocal: rg.Len()}

	// Pass 1: collect the distinct nonlocal columns. Duplicates are
	// appended and squeezed out after one concrete-typed sort — a set map
	// here (one hash per remote nonzero) dominated full-scale plan builds.
	lo32, hi32 := int32(rg.Lo), int32(rg.Hi)
	var halo, buf []int32
	remoteRows := 0 // rows with at least one nonlocal column
	for i := rg.Lo; i < rg.Hi; i++ {
		buf = src.AppendRow(i, buf[:0])
		before := len(halo)
		for _, c := range buf {
			if c < lo32 || c >= hi32 {
				halo = append(halo, c)
			} else {
				rp.NnzLocal++
			}
		}
		if len(halo) > before {
			remoteRows++
		}
		rp.NnzRemote += int64(len(buf))
	}
	rp.NnzRemote -= rp.NnzLocal

	slices.Sort(halo)
	rp.HaloCols = slices.Compact(halo)

	// Group the sorted halo by owner rank; ownership is contiguous, so each
	// peer occupies one contiguous segment.
	for s := 0; s < len(rp.HaloCols); {
		owner := part.owner(int(rp.HaloCols[s]))
		e := s
		ownerHi := int32(part.Ranks[owner].Hi)
		for e < len(rp.HaloCols) && rp.HaloCols[e] < ownerHi {
			e++
		}
		rp.RecvFrom = append(rp.RecvFrom, Exchange{Peer: owner, Count: e - s, Offset: s})
		s = e
	}

	if vsrc == nil {
		return rp, nil
	}

	// Pass 2: write the renumbered local matrix, the end of every row's
	// local prefix and the compacted remote half in one sweep, each array
	// allocated once at the size pass 1 counted. A row is written as its
	// owned columns, then its halo columns: ascending global order inside
	// each group is ascending local order (the halo list is sorted by global
	// index), so a source with ascending rows needs no sort.
	nnz := rp.NnzLocal + rp.NnzRemote
	a := &matrix.CSR{
		NumRows: rp.NLocal,
		NumCols: rp.VectorLen(),
		RowPtr:  make([]int64, rp.NLocal+1),
		ColIdx:  make([]int32, nnz),
		Val:     make([]float64, nnz),
	}
	mid := make([]int64, rp.NLocal)
	rem := &spmv.CompactCSR{
		NumRows: a.NumRows, NumCols: a.NumCols,
		Rows:   make([]int32, 0, remoteRows),
		RowPtr: make([]int64, 1, remoteRows+1),
		ColIdx: make([]int32, 0, rp.NnzRemote),
		Val:    make([]float64, 0, rp.NnzRemote),
	}
	var cbuf []int32
	var vbuf []float64
	var p int64
	for i := rg.Lo; i < rg.Hi; i++ {
		cbuf, vbuf = vsrc.AppendRowValues(i, cbuf[:0], vbuf[:0])
		if p+int64(len(cbuf)) > nnz {
			return nil, fmt.Errorf("core: rank %d: source row %d grew between the pattern and the value pass", rank, i)
		}
		row, start := i-rg.Lo, p
		for k, c := range cbuf {
			if c >= lo32 && c < hi32 {
				a.ColIdx[p], a.Val[p] = c-lo32, vbuf[k]
				p++
			}
		}
		m := p
		for k, c := range cbuf {
			if c < lo32 || c >= hi32 {
				h, found := slices.BinarySearch(rp.HaloCols, c)
				if !found {
					return nil, fmt.Errorf("core: rank %d: source row %d has column %d in the value pass but not in the pattern pass", rank, i, c)
				}
				a.ColIdx[p], a.Val[p] = int32(rp.NLocal+h), vbuf[k]
				p++
			}
		}
		matrix.SortRow(a.ColIdx[start:m], a.Val[start:m])
		matrix.SortRow(a.ColIdx[m:p], a.Val[m:p])
		mid[row], a.RowPtr[row+1] = m, p
		if p > m {
			rem.Rows = append(rem.Rows, int32(row))
			rem.ColIdx = append(rem.ColIdx, a.ColIdx[m:p]...)
			rem.Val = append(rem.Val, a.Val[m:p]...)
			rem.RowPtr = append(rem.RowPtr, int64(len(rem.ColIdx)))
		}
	}
	if p != nnz {
		return nil, fmt.Errorf("core: rank %d: source yielded %d entries in the value pass, %d in the pattern pass", rank, p, nnz)
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("core: rank %d local matrix: %w", rank, err)
	}
	local, err := spmv.NewLocalView(a, mid)
	if err != nil {
		return nil, fmt.Errorf("core: rank %d: %w", rank, err)
	}
	if err := rem.Validate(); err != nil {
		return nil, fmt.Errorf("core: rank %d remote half: %w", rank, err)
	}
	rp.A = a
	rp.Split = &spmv.Split{Local: local, Remote: rem, LocalCols: rp.NLocal}
	return rp, nil
}
