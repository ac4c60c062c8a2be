package matrix_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/genmat"
	"repro/internal/matrix"
	"repro/internal/matrix/matrixtest"
)

// materializeSerial is the reference Materialize is checked against: one
// pass, append-grown arrays, every row sorted through sort.Stable.
func materializeSerial(src matrix.ValueSource) *matrix.CSR {
	rows, cols := src.Dims()
	a := &matrix.CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int64, rows+1)}
	for i := 0; i < rows; i++ {
		a.ColIdx, a.Val = src.AppendRowValues(i, a.ColIdx, a.Val)
		a.RowPtr[i+1] = int64(len(a.ColIdx))
		c, v := a.Row(i)
		sort.Stable(&rowByCol{c, v})
	}
	return a
}

type rowByCol struct {
	cols []int32
	vals []float64
}

func (s *rowByCol) Len() int           { return len(s.cols) }
func (s *rowByCol) Less(i, j int) bool { return s.cols[i] < s.cols[j] }
func (s *rowByCol) Swap(i, j int) {
	s.cols[i], s.cols[j] = s.cols[j], s.cols[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// shuffled serves the rows of a matrix with each row's entries in a fixed
// random order: a source with deliberately unsorted rows.
type shuffled struct{ a *matrix.CSR }

func (s shuffled) Dims() (int, int) { return s.a.Dims() }

func (s shuffled) AppendRow(i int, dst []int32) []int32 {
	dst, _ = s.AppendRowValues(i, dst, nil)
	return dst
}

func (s shuffled) AppendRowValues(i int, cols []int32, vals []float64) ([]int32, []float64) {
	c, v := s.a.Row(i)
	for _, k := range rand.New(rand.NewSource(int64(i))).Perm(len(c)) {
		cols, vals = append(cols, c[k]), append(vals, v[k])
	}
	return cols, vals
}

// wideRows is a matrix whose rows alternate between empty, short and longer
// than the insertion-sort limit. n must be at least 200.
func wideRows(n int) *matrix.CSR {
	rng := rand.New(rand.NewSource(5))
	var entries []matrixtest.Coord
	for i := 0; i < n; i++ {
		width := []int{0, 3, 65, 200}[i%4]
		for _, c := range rng.Perm(n)[:width] {
			entries = append(entries, matrixtest.Coord{Row: int32(i), Col: int32(c), Val: rng.NormFloat64()})
		}
	}
	a, err := matrixtest.NewCSRFromCOO(n, n, entries)
	if err != nil {
		panic(err)
	}
	return a
}

func testSources(t testing.TB) map[string]matrix.ValueSource {
	t.Helper()
	poisson, err := genmat.NewPoisson(genmat.PoissonConfig{Nx: 12, Ny: 10, Nz: 8, GradingZ: 1.05, PermWindow: 8, PermSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	holstein, err := genmat.NewHolstein(genmat.HolsteinConfig{
		Sites: 4, NumUp: 2, NumDown: 2, MaxPhonons: 3,
		T: 1, U: 4, Omega: 1, G: 1, Ordering: genmat.PhononsContiguous,
	})
	if err != nil {
		t.Fatal(err)
	}
	band, err := genmat.NewRandomBand(genmat.RandomBandConfig{N: 700, Bandwidth: 90, PerRow: 9, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	wide := wideRows(260)
	return map[string]matrix.ValueSource{
		"poisson":       poisson,
		"holstein":      holstein,
		"randomband":    band,
		"csr":           wide,
		"shuffled-wide": shuffled{wide},
		"one-row":       shuffled{matrixtest.ExtractRows(wideRows(260), 3, 4)},
		"no-rows":       &matrix.CSR{NumCols: 3, RowPtr: []int64{0}},
	}
}

// Materialize equals the serial reference on every generator, sorted or
// not, at one processor and at several. Run under -race this is also the
// check that the two parallel passes write disjoint memory.
func TestMaterializeMatchesSerialReference(t *testing.T) {
	for name, src := range testSources(t) {
		want := materializeSerial(src)
		if err := want.Validate(); err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		for _, procs := range []int{1, 2, 5} {
			prev := runtime.GOMAXPROCS(procs)
			got := matrix.Materialize(src)
			runtime.GOMAXPROCS(prev)
			if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) || !slices.Equal(got.Val, want.Val) {
				t.Errorf("%s at %d procs: Materialize differs from the serial reference", name, procs)
			}
			if got.NumRows != want.NumRows || got.NumCols != want.NumCols {
				t.Errorf("%s at %d procs: dims %dx%d, want %dx%d", name, procs, got.NumRows, got.NumCols, want.NumRows, want.NumCols)
			}
		}
	}
}

// fickle is a source whose row `row` is one entry longer or shorter in the
// value pass than in the pattern pass.
type fickle struct {
	*matrix.CSR
	row   int
	delta int
}

func (f fickle) AppendRowValues(i int, cols []int32, vals []float64) ([]int32, []float64) {
	cols, vals = f.CSR.AppendRowValues(i, cols, vals)
	if i == f.row {
		if f.delta > 0 {
			return append(cols, 0), append(vals, 1)
		}
		return cols[:len(cols)-1], vals[:len(vals)-1]
	}
	return cols, vals
}

func TestMaterializePanicsOnRowLengthChange(t *testing.T) {
	a := wideRows(210)
	for _, delta := range []int{+1, -1} {
		for _, procs := range []int{1, 3} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, "row 129 ") {
						t.Errorf("delta %+d at %d procs: recovered %q, want a panic naming row 129", delta, procs, msg)
					}
				}()
				matrix.Materialize(fickle{a, 129, delta})
			}()
		}
	}
}

func TestSortRowLongAndShort(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 2, 7, 64, 65, 300} {
		cols := make([]int32, n)
		vals := make([]float64, n)
		for k, c := range rng.Perm(n) {
			cols[k], vals[k] = int32(c), float64(c)+0.5
		}
		matrix.SortRow(cols, vals)
		for k := range cols {
			if cols[k] != int32(k) || vals[k] != float64(k)+0.5 {
				t.Fatalf("n=%d: entry %d is (%d, %v) after SortRow", n, k, cols[k], vals[k])
			}
		}
	}
}

// allocatedBy returns the bytes f allocates, garbage included.
func allocatedBy(f func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestAllocGateMaterialize holds Materialize to its arrays: what it
// allocates, garbage included, beyond what the source's own row methods
// allocate over the same two passes (the Holstein generator puts a 256-byte
// occupation vector on the heap per row) stays within 5 % of the matrix it
// returns.
func TestAllocGateMaterialize(t *testing.T) {
	poisson, err := genmat.NewPoisson(genmat.SmallPoissonConfig())
	if err != nil {
		t.Fatal(err)
	}
	holstein, err := genmat.NewHolstein(genmat.SmallConfig(genmat.HMeP))
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]matrix.ValueSource{"poisson-small": poisson, "hmep-small": holstein} {
		rows, _ := src.Dims()
		cols, vals := make([]int32, 0, 64), make([]float64, 0, 64)
		source := allocatedBy(func() {
			for i := 0; i < rows; i++ {
				cols = src.AppendRow(i, cols[:0])
				cols, vals = src.AppendRowValues(i, cols[:0], vals[:0])
			}
		})
		var a *matrix.CSR
		got := allocatedBy(func() { a = matrix.Materialize(src) }) - source
		size := 12*a.Nnz() + 8*int64(a.NumRows+1)
		if limit := size + size/20; got > limit {
			t.Errorf("%s: Materialize allocated %d bytes of its own for a %d-byte matrix, limit %d", name, got, size, limit)
		}
	}
}

// RowNnzCounts answers from RowPtr on a *CSR and by streaming the rows on
// anything else; shuffled hides the CSR behind the streaming path. Both
// agree on Poisson Small and on a matrix with empty rows.
func TestRowNnzCountsCSRMatchesStreaming(t *testing.T) {
	poisson, err := genmat.NewPoisson(genmat.SmallPoissonConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]*matrix.CSR{
		"poisson-small": matrix.Materialize(poisson),
		"empty-rows":    wideRows(260),
		"no-rows":       {NumCols: 3, RowPtr: []int64{0}},
	} {
		fast, streamed := matrix.RowNnzCounts(a), matrix.RowNnzCounts(shuffled{a})
		if !slices.Equal(fast, streamed) {
			t.Errorf("%s: RowPtr differences and the streamed counts disagree", name)
		}
		var total int64
		for _, c := range fast {
			total += c
		}
		if total != a.Nnz() {
			t.Errorf("%s: counts add up to %d, matrix holds %d", name, total, a.Nnz())
		}
	}
}

// RowNnzCounts equals a serial count of every row on every generator, at
// one processor and at several. Run under -race this is also the check
// that the parallel pass writes disjoint memory.
func TestRowNnzCountsMatchesSerialCount(t *testing.T) {
	for name, src := range testSources(t) {
		rows, _ := src.Dims()
		want := make([]int64, rows)
		for i := range want {
			want[i] = int64(len(src.AppendRow(i, nil)))
		}
		for _, procs := range []int{1, 2, 5} {
			prev := runtime.GOMAXPROCS(procs)
			got := matrix.RowNnzCounts(src)
			runtime.GOMAXPROCS(prev)
			if !slices.Equal(got, want) {
				t.Errorf("%s at %d procs: RowNnzCounts differs from the serial count", name, procs)
			}
		}
	}
}

// brokenRow is a source whose AppendRow panics on one row.
type brokenRow struct {
	*matrix.CSR
	row int
}

func (b brokenRow) AppendRow(i int, dst []int32) []int32 {
	if i == b.row {
		panic(fmt.Sprintf("row %d is broken", i))
	}
	return b.CSR.AppendRow(i, dst)
}

func TestRowNnzCountsPanicReachesCaller(t *testing.T) {
	a := wideRows(210)
	for _, procs := range []int{1, 3} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			defer func() {
				if msg := fmt.Sprint(recover()); msg != "row 129 is broken" {
					t.Errorf("at %d procs: recovered %q, want the source's panic", procs, msg)
				}
			}()
			matrix.RowNnzCounts(brokenRow{a, 129})
		}()
	}
}
