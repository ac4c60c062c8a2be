package spmv

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/genmat"
	"repro/internal/matrix"
)

func randomMatrix(seed int64, rows, cols int) *matrix.CSR {
	rng := rand.New(rand.NewSource(seed))
	g, err := genmat.NewRandomBand(genmat.RandomBandConfig{
		N: rows, Bandwidth: cols / 2, PerRow: 5, Seed: uint64(seed) + 1,
	})
	if err != nil {
		panic(err)
	}
	a := matrix.Materialize(g)
	_ = rng
	return a
}

func randVec(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func vecsEqual(a, b []float64, tol float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol*(1+math.Abs(a[i])) {
			return false
		}
	}
	return true
}

func TestTeamRunsAllWorkers(t *testing.T) {
	team := NewTeam(7)
	defer team.Close()
	var mask int64
	team.Run(func(w int) {
		atomic.AddInt64(&mask, 1<<w)
	})
	if mask != 127 {
		t.Errorf("worker mask = %b, want 1111111", mask)
	}
}

func TestTeamSubteam(t *testing.T) {
	team := NewTeam(6)
	defer team.Close()
	var count int64
	team.RunSubteam(4, func(w int) {
		if w >= 4 {
			t.Errorf("worker %d ran outside subteam", w)
		}
		atomic.AddInt64(&count, 1)
	})
	if count != 4 {
		t.Errorf("subteam ran %d workers, want 4", count)
	}
	team.RunSubteam(0, func(w int) { t.Error("empty subteam ran") })
}

func TestTeamReusable(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	var total int64
	for iter := 0; iter < 100; iter++ {
		team.Run(func(w int) { atomic.AddInt64(&total, 1) })
	}
	if total != 300 {
		t.Errorf("total = %d, want 300", total)
	}
}

func TestTeamCloseIdempotent(t *testing.T) {
	team := NewTeam(2)
	team.Close()
	team.Close()
}

func TestBalanceNnzEqualWeights(t *testing.T) {
	// 12 rows of one nnz each into 4 parts → 3 rows each.
	prefix := make([]int64, 13)
	for i := range prefix {
		prefix[i] = int64(i)
	}
	ranges := BalanceNnz(prefix, 4)
	for p, r := range ranges {
		if r.Len() != 3 {
			t.Errorf("part %d = %+v, want length 3", p, r)
		}
	}
}

func TestBalanceNnzSkewedWeights(t *testing.T) {
	// One heavy row at the front: it must get its own part.
	prefix := []int64{0, 100, 101, 102, 103, 104}
	ranges := BalanceNnz(prefix, 2)
	if ranges[0] != (Range{0, 1}) {
		t.Errorf("heavy part = %+v, want {0,1}", ranges[0])
	}
	if ranges[1] != (Range{1, 5}) {
		t.Errorf("light part = %+v, want {1,5}", ranges[1])
	}
}

func TestBalanceNnzCoverageProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		parts := 1 + rng.Intn(16)
		prefix := make([]int64, n+1)
		for i := 1; i <= n; i++ {
			prefix[i] = prefix[i-1] + int64(rng.Intn(50))
		}
		ranges := BalanceNnz(prefix, parts)
		if len(ranges) != parts {
			return false
		}
		// Ranges must tile [0, n) in order.
		lo := 0
		for _, r := range ranges {
			if r.Lo != lo || r.Hi < r.Lo {
				return false
			}
			lo = r.Hi
		}
		if lo != n {
			return false
		}
		// Non-empty while enough rows exist.
		if n >= parts {
			for _, r := range ranges {
				if r.Len() == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBalanceNnzBalanceQuality(t *testing.T) {
	// Uniform weights: max part within 2x of min part.
	prefix := make([]int64, 10001)
	for i := 1; i <= 10000; i++ {
		prefix[i] = prefix[i-1] + 7
	}
	ranges := BalanceNnz(prefix, 8)
	minW, maxW := int64(1)<<62, int64(0)
	for _, r := range ranges {
		w := prefix[r.Hi] - prefix[r.Lo]
		if w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
	}
	if maxW > 2*minW {
		t.Errorf("imbalance: min %d, max %d", minW, maxW)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	a := randomMatrix(3, 500, 500)
	x := randVec(4, 500)
	want := make([]float64, 500)
	Serial(want, a, x)
	for _, workers := range []int{1, 2, 3, 8} {
		team := NewTeam(workers)
		p := NewParallel(a, workers)
		got := make([]float64, 500)
		p.MulVec(team, got, x)
		team.Close()
		if !vecsEqual(want, got, 1e-14) {
			t.Errorf("workers=%d: parallel result differs from serial", workers)
		}
	}
}

func TestParallelChunkBalance(t *testing.T) {
	a := randomMatrix(9, 2000, 2000)
	p := NewParallel(a, 8)
	var minW, maxW int64 = 1 << 62, 0
	for w := range p.Chunks {
		nnz := p.ChunkNnz(w)
		if nnz < minW {
			minW = nnz
		}
		if nnz > maxW {
			maxW = nnz
		}
	}
	if maxW > 2*minW {
		t.Errorf("chunk imbalance: %d..%d", minW, maxW)
	}
}

func TestSplitKernelsMatchSerial(t *testing.T) {
	a := randomMatrix(11, 400, 400)
	boundary := 250
	s := NewSplit(a, boundary)
	if _, err := NewLocalView(a, s.Local.Mid); err != nil {
		t.Fatal(err)
	}
	if err := s.Remote.Validate(); err != nil {
		t.Fatal(err)
	}
	// Column footprints are disjoint at the boundary.
	for i, m := range s.Local.Mid {
		for _, c := range a.ColIdx[a.RowPtr[i]:m] {
			if int(c) >= boundary {
				t.Fatalf("local part holds column %d ≥ %d", c, boundary)
			}
		}
	}
	for _, c := range s.Remote.ColIdx {
		if int(c) < boundary {
			t.Fatalf("remote part holds column %d < %d", c, boundary)
		}
	}
	if s.Local.Nnz()+s.Remote.Nnz() != a.Nnz() {
		t.Fatalf("split lost entries: %d + %d != %d", s.Local.Nnz(), s.Remote.Nnz(), a.Nnz())
	}

	x := randVec(12, 400)
	want := make([]float64, 400)
	Serial(want, a, x)

	team := NewTeam(4)
	defer team.Close()
	fs := s.AsFormatSplit()
	got := make([]float64, 400)
	fs.MulVecLocal(team, fs.LocalChunks(4), got, x)
	fs.MulVecRemoteAdd(team, fs.RemoteChunks(4), got, x)
	if !vecsEqual(want, got, 1e-14) {
		t.Error("split two-pass result differs from serial")
	}
}

func TestSplitBoundaryEdges(t *testing.T) {
	a := randomMatrix(5, 50, 50)
	all := NewSplit(a, 50)
	if all.Remote.Nnz() != 0 {
		t.Error("boundary at NumCols should leave remote empty")
	}
	none := NewSplit(a, 0)
	if none.Local.Nnz() != 0 {
		t.Error("boundary at 0 should leave local empty")
	}
}

func TestBalanceNnzEmptyMatrix(t *testing.T) {
	ranges := BalanceNnz([]int64{0}, 4)
	if len(ranges) != 4 {
		t.Fatalf("got %d ranges, want 4", len(ranges))
	}
	for p, r := range ranges {
		if r != (Range{0, 0}) {
			t.Errorf("part %d = %+v, want empty {0,0}", p, r)
		}
	}
}

func TestBalanceNnzMorePartsThanRows(t *testing.T) {
	// 3 rows into 5 parts: the first 3 parts get one row each and the
	// empty ranges trail, as documented.
	prefix := []int64{0, 2, 4, 6}
	ranges := BalanceNnz(prefix, 5)
	want := []Range{{0, 1}, {1, 2}, {2, 3}, {3, 3}, {3, 3}}
	for p, r := range ranges {
		if r != want[p] {
			t.Errorf("part %d = %+v, want %+v", p, r, want[p])
		}
	}
}

func TestBalanceNnzSingleDenseRow(t *testing.T) {
	// One row holding all the weight: it must land in the FIRST part so the
	// empty ranges trail.
	ranges := BalanceNnz([]int64{0, 1_000_000}, 3)
	want := []Range{{0, 1}, {1, 1}, {1, 1}}
	for p, r := range ranges {
		if r != want[p] {
			t.Errorf("part %d = %+v, want %+v", p, r, want[p])
		}
	}
}

func TestCompactRemoteEquivalentToFullRows(t *testing.T) {
	a := randomMatrix(21, 300, 300)
	s := NewSplit(a, 180)
	rem := s.Remote
	if err := rem.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every stored row is nonempty and the row list is ascending (checked by
	// Validate); the compact stored-row pass must match the full-row add
	// kernel on the expanded matrix bit for bit, whatever the chunking.
	full := rem.Expand()
	if err := full.Validate(); err != nil {
		t.Fatal(err)
	}
	if full.Nnz() != rem.Nnz() {
		t.Fatalf("expand lost entries: %d != %d", full.Nnz(), rem.Nnz())
	}
	x := randVec(22, 300)
	y0 := randVec(23, 300) // nonzero start exercises the += semantics
	yFull := append([]float64(nil), y0...)
	full.MulVecBlocksAdd(yFull, x, 0, 300)
	n := rem.NumStoredRows()
	for _, chunks := range [][]Range{
		{{0, n}},
		BalanceNnz(rem.RowPtr, 4),
		{{0, 0}, {0, n / 3}, {n / 3, n}},
	} {
		yCompact := append([]float64(nil), y0...)
		for _, r := range chunks {
			rem.MulStoredRowsAdd(yCompact, x, r.Lo, r.Hi)
		}
		for i := range yFull {
			if yFull[i] != yCompact[i] {
				t.Fatalf("chunking %v: compact pass differs from full-row pass at row %d", chunks, i)
			}
		}
	}
	// The compact representation must be genuinely smaller than full-row
	// storage when most rows have no remote entries.
	if rem.NumStoredRows() > a.NumRows {
		t.Errorf("compact remote stores %d rows > %d matrix rows", rem.NumStoredRows(), a.NumRows)
	}
}

// The view and the compacted remote are exactly the two column-restricted
// copies of the matrix, at every boundary.
func TestSplitHalvesMatchRestrictCols(t *testing.T) {
	a := randomMatrix(25, 250, 250)
	for _, boundary := range []int{0, 1, 97, 180, 250} {
		s := NewSplit(a, boundary)
		if err := s.Remote.Validate(); err != nil {
			t.Fatal(err)
		}
		if !s.Remote.Expand().Equal(a.RestrictCols(boundary, a.NumCols)) {
			t.Fatalf("boundary %d: compact remote differs from RestrictCols(%d, %d)", boundary, boundary, a.NumCols)
		}
		if !viewCopy(s.Local).Equal(a.RestrictCols(0, boundary)) {
			t.Fatalf("boundary %d: local view differs from RestrictCols(0, %d)", boundary, boundary)
		}
	}
}

// viewCopy returns the entries a LocalView covers as a matrix of their own.
func viewCopy(v *LocalView) *matrix.CSR {
	c := &matrix.CSR{NumRows: v.A.NumRows, NumCols: v.A.NumCols, RowPtr: make([]int64, v.A.NumRows+1)}
	for i, m := range v.Mid {
		c.ColIdx = append(c.ColIdx, v.A.ColIdx[v.A.RowPtr[i]:m]...)
		c.Val = append(c.Val, v.A.Val[v.A.RowPtr[i]:m]...)
		c.RowPtr[i+1] = int64(len(c.ColIdx))
	}
	return c
}

// A row that lists a local column after a remote one has no local prefix to
// view: NewSplit names the row instead of silently dropping the entry.
func TestNewSplitRejectsInterleavedRow(t *testing.T) {
	a := &matrix.CSR{NumRows: 2, NumCols: 4,
		RowPtr: []int64{0, 2, 5}, ColIdx: []int32{0, 3, 1, 2, 0}, Val: []float64{1, 2, 3, 4, 5}}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "row 1") {
			t.Errorf("NewSplit on an interleaved row: recovered %q, want a panic naming row 1", msg)
		}
	}()
	NewSplit(a, 2)
}

// LocalView.Chunks is BalanceNnz over the view's prefix, without the prefix.
func TestLocalViewChunksMatchBalanceNnz(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		a := randomMatrix(seed, n, n)
		v := NewSplit(a, rng.Intn(n+1)).Local
		for parts := 1; parts <= 9; parts++ {
			got, want := v.Chunks(parts), BalanceNnz(v.BlockNnzPrefix(), parts)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d, %d rows, %d parts: Chunks = %v, BalanceNnz = %v", seed, n, parts, got, want)
			}
		}
	}
}

func TestNewLocalViewRejectsBadMid(t *testing.T) {
	a := randomMatrix(3, 10, 10)
	good := NewSplit(a, 5).Local.Mid
	if _, err := NewLocalView(a, good[:9]); err == nil {
		t.Error("short mid accepted")
	}
	bad := slices.Clone(good)
	bad[4] = a.RowPtr[5] + 1
	if _, err := NewLocalView(a, bad); err == nil {
		t.Error("mid past the end of its row accepted")
	}
	bad[4] = a.RowPtr[4] - 1
	if _, err := NewLocalView(a, bad); err == nil {
		t.Error("mid before the start of its row accepted")
	}
}

func TestFormatSplitCSRBuilderMatchesSplit(t *testing.T) {
	a := randomMatrix(33, 280, 280)
	const boundary = 190
	ref := NewSplit(a, boundary)
	fs, err := NewFormatSplit(a, boundary, matrix.CSRBuilder{})
	if err != nil {
		t.Fatal(err)
	}
	local, ok := fs.Local.(*matrix.CSR)
	if !ok {
		t.Fatalf("CSRBuilder local half is %T, want *matrix.CSR", fs.Local)
	}
	if !local.Equal(viewCopy(ref.Local)) {
		t.Fatal("format split local half differs from NewSplit's")
	}
	// Two-pass product through the format split matches the serial kernel
	// bit for bit, with independently balanced chunkings for each pass.
	x := randVec(34, 280)
	want := make([]float64, 280)
	Serial(want, a, x)
	team := NewTeam(4)
	defer team.Close()
	got := make([]float64, 280)
	fs.MulVecLocal(team, fs.LocalChunks(4), got, x)
	fs.MulVecRemoteAdd(team, fs.RemoteChunks(4), got, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("format split product differs from serial at row %d", i)
		}
	}
}

func TestSplitBitIdenticalToSerial(t *testing.T) {
	a := randomMatrix(31, 400, 400)
	x := randVec(32, 400)
	want := make([]float64, 400)
	Serial(want, a, x)
	team := NewTeam(4)
	defer team.Close()
	got := make([]float64, 400)
	fs := NewSplit(a, 240).AsFormatSplit()
	fs.MulVecLocal(team, fs.LocalChunks(4), got, x)
	fs.MulVecRemoteAdd(team, fs.RemoteChunks(4), got, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("split two-pass not bit-identical to serial at row %d: %v != %v", i, got[i], want[i])
		}
	}
	// The parallel monolithic kernel must be bit-identical too.
	p := NewParallel(a, 4)
	par := make([]float64, 400)
	p.MulVec(team, par, x)
	for i := range want {
		if par[i] != want[i] {
			t.Fatalf("parallel kernel not bit-identical to serial at row %d", i)
		}
	}
}

func TestParallelPropertyAgainstSerial(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(300)
		workers := 1 + rng.Intn(6)
		a := randomMatrix(seed, n, n)
		x := randVec(seed+1, n)
		want := make([]float64, n)
		Serial(want, a, x)
		team := NewTeam(workers)
		defer team.Close()
		got := make([]float64, n)
		NewParallel(a, workers).MulVec(team, got, x)
		return vecsEqual(want, got, 1e-13)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTeamRunAfterClosePanics(t *testing.T) {
	team := NewTeam(2)
	team.Close()
	defer func() {
		if recover() == nil {
			t.Error("Run on closed team did not panic")
		}
	}()
	team.Run(func(int) {})
}
