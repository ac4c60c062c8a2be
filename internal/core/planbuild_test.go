package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/formats"
	"repro/internal/genmat"
	"repro/internal/matrix"
	"repro/internal/matrix/matrixtest"
	"repro/internal/spmv"
)

// referenceRank builds one rank's renumbered local matrix and its two
// column-restricted halves the way BuildPlan used to: append-grown arrays,
// a whole-matrix sort, then RestrictCols for the local half and
// NewCompactRemote for the remote one. The one-sweep construction is
// checked against it.
func referenceRank(src matrix.ValueSource, rg spmv.Range) (a, local *matrix.CSR, remote *spmv.CompactCSR) {
	lo32, hi32 := int32(rg.Lo), int32(rg.Hi)
	var halo, cbuf []int32
	var vbuf []float64
	for i := rg.Lo; i < rg.Hi; i++ {
		cbuf = src.AppendRow(i, cbuf[:0])
		for _, c := range cbuf {
			if c < lo32 || c >= hi32 {
				halo = append(halo, c)
			}
		}
	}
	slices.Sort(halo)
	halo = slices.Compact(halo)
	a = &matrix.CSR{NumRows: rg.Len(), NumCols: rg.Len() + len(halo), RowPtr: make([]int64, rg.Len()+1)}
	for i := rg.Lo; i < rg.Hi; i++ {
		cbuf, vbuf = src.AppendRowValues(i, cbuf[:0], vbuf[:0])
		for k, c := range cbuf {
			local := c - lo32
			if c < lo32 || c >= hi32 {
				local = int32(rg.Len() + sort.Search(len(halo), func(j int) bool { return halo[j] >= c }))
			}
			a.ColIdx = append(a.ColIdx, local)
			a.Val = append(a.Val, vbuf[k])
		}
		a.RowPtr[i-rg.Lo+1] = int64(len(a.ColIdx))
	}
	a.SortRows()
	return a, a.RestrictCols(0, rg.Len()), spmv.NewCompactRemote(a, rg.Len())
}

// reversedRows serves a matrix's rows back to front: deliberately unsorted.
type reversedRows struct{ *matrix.CSR }

func (s reversedRows) AppendRow(i int, dst []int32) []int32 {
	n := len(dst)
	dst = s.CSR.AppendRow(i, dst)
	slices.Reverse(dst[n:])
	return dst
}

func (s reversedRows) AppendRowValues(i int, cols []int32, vals []float64) ([]int32, []float64) {
	n := len(cols)
	cols, vals = s.CSR.AppendRowValues(i, cols, vals)
	slices.Reverse(cols[n:])
	slices.Reverse(vals[n:])
	return cols, vals
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// The plan's A, the view's prefix ends and the compacted remote equal the
// old three-step construction bit for bit, from sorted and unsorted
// sources, at rank counts that leave ranks with and without a halo.
func TestPlanMatchesReferenceConstruction(t *testing.T) {
	poisson, err := genmat.NewPoisson(genmat.SmallPoissonConfig())
	if err != nil {
		t.Fatal(err)
	}
	holstein, err := genmat.NewHolstein(genmat.SmallConfig(genmat.HMeP))
	if err != nil {
		t.Fatal(err)
	}
	band, err := genmat.NewRandomBand(genmat.RandomBandConfig{N: 900, Bandwidth: 200, PerRow: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]matrix.ValueSource{
		"poisson-small":     poisson, // the generator's rows are not ascending
		"poisson-small-csr": matrix.Materialize(poisson),
		"hmep-small":        holstein,
		"randomband":        band,
		"reversed-rows":     reversedRows{matrix.Materialize(band)},
	}
	for name, src := range sources {
		for _, ranks := range []int{1, 2, 3, 7} {
			part := PartitionByNnz(src, ranks)
			plan, err := BuildPlan(src, part, true)
			if err != nil {
				t.Fatalf("%s at %d ranks: %v", name, ranks, err)
			}
			for r, rp := range plan.Ranks {
				where := fmt.Sprintf("%s, rank %d of %d", name, r, ranks)
				a, local, remote := referenceRank(src, part.Ranks[r])
				if rp.A.NumCols != a.NumCols || !slices.Equal(rp.A.RowPtr, a.RowPtr) ||
					!slices.Equal(rp.A.ColIdx, a.ColIdx) || !sameBits(rp.A.Val, a.Val) {
					t.Fatalf("%s: A differs from the reference construction", where)
				}
				view := rp.Split.Local
				if view.A != rp.A {
					t.Fatalf("%s: the local view is over a matrix other than the plan's A", where)
				}
				for i, m := range view.Mid {
					if m-a.RowPtr[i] != local.RowPtr[i+1]-local.RowPtr[i] {
						t.Fatalf("%s: row %d has %d local entries, RestrictCols(0, NLocal) has %d",
							where, i, m-a.RowPtr[i], local.RowPtr[i+1]-local.RowPtr[i])
					}
				}
				if view.Nnz() != local.Nnz() || view.Nnz() != rp.NnzLocal {
					t.Fatalf("%s: view nnz %d, copy %d, plan count %d", where, view.Nnz(), local.Nnz(), rp.NnzLocal)
				}
				got := rp.Split.Remote
				if got.NumRows != remote.NumRows || got.NumCols != remote.NumCols ||
					!slices.Equal(got.Rows, remote.Rows) || !slices.Equal(got.RowPtr, remote.RowPtr) ||
					!slices.Equal(got.ColIdx, remote.ColIdx) || !sameBits(got.Val, remote.Val) {
					t.Fatalf("%s: remote half differs from NewCompactRemote(A, NLocal)", where)
				}
			}
		}
	}
}

// randomPlanCase draws a small matrix and a partition of it with the shapes
// the split has to survive: empty rows, rows with only owned columns, rows
// with only halo columns, fewer rows than ranks and ranks that own nothing.
func randomPlanCase(rng *rand.Rand) (*matrix.CSR, *Partition) {
	n := 1 + rng.Intn(40)
	ranks := 1 + rng.Intn(7)
	cuts := make([]int, ranks+1)
	for r := 1; r < ranks; r++ {
		cuts[r] = rng.Intn(n + 1) // equal cuts leave a rank empty
	}
	cuts[ranks] = n
	sort.Ints(cuts)
	ranges := make([]spmv.Range, ranks)
	for r := range ranges {
		ranges[r] = spmv.Range{Lo: cuts[r], Hi: cuts[r+1]}
	}
	part := newPartition(ranges)

	var entries []matrixtest.Coord
	for i := 0; i < n; i++ {
		own := ranges[part.owner(i)]
		kind := rng.Intn(4) // 0: empty, 1: owned columns only, 2: halo columns only, 3: both
		for k := rng.Intn(6) + 1; k > 0 && kind != 0; k-- {
			c := rng.Intn(n)
			owned := c >= own.Lo && c < own.Hi
			if (kind == 1 && !owned) || (kind == 2 && owned) {
				continue
			}
			entries = append(entries, matrixtest.Coord{Row: int32(i), Col: int32(c), Val: rng.NormFloat64()})
		}
	}
	a, err := matrixtest.NewCSRFromCOO(n, n, entries)
	if err != nil {
		panic(err)
	}
	return a, part
}

// Over random patterns, per rank: the full kernel ≡ the view's local pass +
// the remote pass ≡ a RestrictCols copy's local pass + the remote pass; and
// Cluster.Mul in all three modes, on CSR and on SELL-32-256, gives those
// bits again.
func TestSplitViewProperty(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, part := randomPlanCase(rng)
		n := a.NumRows
		x := randVec(seed+100, n)
		want := make([]float64, n)

		plan, err := BuildPlan(a, part, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for r, rp := range plan.Ranks {
			xl := make([]float64, rp.VectorLen())
			copy(xl, x[rp.Rows.Lo:rp.Rows.Hi])
			for h, g := range rp.HaloCols {
				xl[rp.NLocal+h] = x[g]
			}
			full := want[rp.Rows.Lo:rp.Rows.Hi]
			rp.A.MulVecBlocks(full, xl, 0, rp.NLocal)

			stored := len(rp.Split.Remote.Rows)
			view := make([]float64, rp.NLocal)
			rp.Split.Local.MulVecBlocks(view, xl, 0, rp.NLocal)
			rp.Split.Remote.MulStoredRowsAdd(view, xl, 0, stored)
			if !sameBits(view, full) {
				t.Fatalf("seed %d rank %d: view local + remote pass differs from the full kernel", seed, r)
			}
			cp := make([]float64, rp.NLocal)
			rp.A.RestrictCols(0, rp.NLocal).MulVecBlocks(cp, xl, 0, rp.NLocal)
			rp.Split.Remote.MulStoredRowsAdd(cp, xl, 0, stored)
			if !sameBits(cp, full) {
				t.Fatalf("seed %d rank %d: copy local + remote pass differs from the full kernel", seed, r)
			}
		}

		for _, b := range []matrix.FormatBuilder{matrix.CSRBuilder{}, formats.SELLBuilder{C: 32, Sigma: 256}} {
			for _, mode := range Modes {
				cl, err := NewCluster(plan, WithMode(mode), WithThreads(2), WithFormat(b))
				if err != nil {
					t.Fatalf("seed %d %s %v: %v", seed, b.Name(), mode, err)
				}
				got := make([]float64, n)
				err = cl.Mul(got, x, 1)
				cl.Close()
				if err != nil {
					t.Fatalf("seed %d %s %v: %v", seed, b.Name(), mode, err)
				}
				if !sameBits(got, want) {
					t.Fatalf("seed %d %s %v: Cluster.Mul differs from the per-rank full kernel", seed, b.Name(), mode)
				}
			}
		}
	}
}

// A source that serves different rows to the two passes is reported, not
// indexed out of range.
func TestBuildPlanRejectsInconsistentSource(t *testing.T) {
	a := randomSquare(71, 60, 20, 4)
	for _, delta := range []int{+1, -1} {
		_, err := BuildPlan(fickleSource{a, 17, delta}, PartitionByRows(60, 2), true)
		if err == nil {
			t.Errorf("delta %+d: BuildPlan accepted a source whose row 17 changes between passes", delta)
		}
	}
}

type fickleSource struct {
	*matrix.CSR
	row, delta int
}

func (f fickleSource) AppendRowValues(i int, cols []int32, vals []float64) ([]int32, []float64) {
	cols, vals = f.CSR.AppendRowValues(i, cols, vals)
	if i != f.row {
		return cols, vals
	}
	if f.delta > 0 {
		return append(cols, cols[len(cols)-1]), append(vals, 1)
	}
	return cols[:len(cols)-1], vals[:len(vals)-1]
}

// TestAllocGateBuildPlan proves by bytes that a plan holds its entries once
// plus the compacted remote: everything BuildPlan allocates, garbage
// included, is within a tenth of what Plan.Bytes counts, apart from pass
// 1's append-grown list of halo columns (4 bytes per remote nonzero, grown
// geometrically: under 16 bytes each in all) and the scratch of the ranks
// built at once.
func TestAllocGateBuildPlan(t *testing.T) {
	poisson, err := genmat.NewPoisson(genmat.SmallPoissonConfig())
	if err != nil {
		t.Fatal(err)
	}
	holstein, err := genmat.NewHolstein(genmat.SmallConfig(genmat.HMeP))
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]*matrix.CSR{"poisson-small": matrix.Materialize(poisson), "hmep-small": matrix.Materialize(holstein)} {
		for _, ranks := range []int{2, 5} {
			part := PartitionByNnz(src, ranks)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			plan, err := BuildPlan(src, part, true)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			var entries, remote int64
			for _, rp := range plan.Ranks {
				entries += rp.NnzLocal + rp.NnzRemote
				remote += rp.NnzRemote
			}
			bytes := plan.Bytes()
			if once := 12*entries + 12*remote; bytes > once+once/4 {
				t.Errorf("%s at %d ranks: Plan.Bytes %d for %d entries and %d remote ones: more than one copy plus the remote half", name, ranks, bytes, entries, remote)
			}
			got := int64(after.TotalAlloc - before.TotalAlloc)
			if limit := bytes + bytes/10 + 16*remote + int64(ranks)<<12; got > limit {
				t.Errorf("%s at %d ranks: BuildPlan allocated %d bytes for a %d-byte plan, limit %d", name, ranks, got, bytes, limit)
			}
		}
	}
}

// Plan.Bytes is the sum of the arrays the plan holds.
func TestPlanBytesCountsArrays(t *testing.T) {
	a := randomSquare(73, 500, 160, 7)
	plan, err := BuildPlan(a, PartitionByNnz(a, 3), true)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, rp := range plan.Ranks {
		nnz, rows := rp.NnzLocal+rp.NnzRemote, int64(rp.NLocal)
		stored := int64(len(rp.Split.Remote.Rows))
		want += 12*nnz + 8*(rows+1) // A
		want += 8 * rows            // mid
		want += 12*rp.NnzRemote + 12*stored + 8
		want += 4 * int64(len(rp.HaloCols))
		for _, tx := range rp.SendTo {
			want += 4 * int64(tx.Count)
		}
	}
	if got := plan.Bytes(); got != want {
		t.Errorf("Plan.Bytes = %d, the arrays add up to %d", got, want)
	}
	if err := plan.ConvertFormat(formats.SELLBuilder{C: 8, Sigma: 32}); err != nil {
		t.Fatal(err)
	}
	if got := plan.Bytes(); got <= want {
		t.Errorf("Plan.Bytes = %d after a SELL conversion, no more than the %d before it", got, want)
	}
}
