package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/chanmpi"
	"repro/internal/formats"
	"repro/internal/genmat"
	"repro/internal/matrix"
	"repro/internal/matrix/matrixtest"
	"repro/internal/spmv"
)

func randomSquare(seed int64, n, band, perRow int) *matrix.CSR {
	g, err := genmat.NewRandomBand(genmat.RandomBandConfig{
		N: n, Bandwidth: band, PerRow: perRow, Seed: uint64(seed),
	})
	if err != nil {
		panic(err)
	}
	return matrix.Materialize(g)
}

func randVec(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

func TestPartitionByNnzTiles(t *testing.T) {
	a := randomSquare(1, 500, 400, 6)
	p := PartitionByNnz(a, 7)
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumRanks() != 7 || p.Rows() != 500 {
		t.Fatalf("ranks=%d rows=%d", p.NumRanks(), p.Rows())
	}
	for row := 0; row < 500; row++ {
		r := p.owner(row)
		if row < p.Ranks[r].Lo || row >= p.Ranks[r].Hi {
			t.Fatalf("Owner(%d) = %d but range is %+v", row, r, p.Ranks[r])
		}
	}
}

func TestPartitionBalanceBeatsRowSplit(t *testing.T) {
	// A matrix whose nnz are concentrated in the first rows: nnz balancing
	// must produce lower imbalance than naive row splitting.
	var entries []matrixtest.Coord
	n := 400
	for i := 0; i < n; i++ {
		entries = append(entries, matrixtest.Coord{Row: int32(i), Col: int32(i), Val: 1})
		if i < 50 {
			for j := 0; j < 20; j++ {
				entries = append(entries, matrixtest.Coord{Row: int32(i), Col: int32((i + j + 1) % n), Val: 1})
			}
		}
	}
	a, err := matrixtest.NewCSRFromCOO(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	byNnz := PartitionByNnz(a, 4).Imbalance(a)
	byRows := PartitionByRows(n, 4).Imbalance(a)
	if byNnz >= byRows {
		t.Errorf("nnz balancing (%.3f) not better than row splitting (%.3f)", byNnz, byRows)
	}
	if byNnz > 1.6 {
		t.Errorf("nnz imbalance %.3f too high", byNnz)
	}
}

func TestPlanHaloInvariants(t *testing.T) {
	a := randomSquare(3, 300, 120, 5)
	part := PartitionByNnz(a, 5)
	plan, err := BuildPlan(a, part, true)
	if err != nil {
		t.Fatal(err)
	}
	for r, rp := range plan.Ranks {
		// Halo sorted, deduplicated, never owned by self.
		for i, c := range rp.HaloCols {
			if i > 0 && rp.HaloCols[i-1] >= c {
				t.Fatalf("rank %d halo not strictly ascending", r)
			}
			if int(c) >= rp.Rows.Lo && int(c) < rp.Rows.Hi {
				t.Fatalf("rank %d halo contains owned column %d", r, c)
			}
		}
		// Receive segments tile the halo and identify the right owners.
		off := 0
		for _, rx := range rp.RecvFrom {
			if rx.Offset != off {
				t.Fatalf("rank %d receive segments not contiguous", r)
			}
			for i := 0; i < rx.Count; i++ {
				if part.owner(int(rp.HaloCols[rx.Offset+i])) != rx.Peer {
					t.Fatalf("rank %d halo element owned by wrong peer", r)
				}
			}
			off += rx.Count
		}
		if off != len(rp.HaloCols) {
			t.Fatalf("rank %d receive segments cover %d of %d halo", r, off, len(rp.HaloCols))
		}
		// Split conserves nonzeros and matches the recorded counts.
		if rp.Split.Local.Nnz() != rp.NnzLocal || int64(len(rp.Split.Remote.Val)) != rp.NnzRemote {
			t.Fatalf("rank %d nnz split mismatch: %d/%d vs %d/%d",
				r, rp.Split.Local.Nnz(), int64(len(rp.Split.Remote.Val)), rp.NnzLocal, rp.NnzRemote)
		}
	}
	// Send lists mirror receive lists pairwise.
	for q, qp := range plan.Ranks {
		for _, rx := range qp.RecvFrom {
			found := false
			for _, tx := range plan.Ranks[rx.Peer].SendTo {
				if tx.Peer == q {
					found = true
					if tx.Count != rx.Count {
						t.Fatalf("send %d→%d count %d != recv count %d", rx.Peer, q, tx.Count, rx.Count)
					}
					// Gather indices must reference owned rows.
					for _, idx := range tx.Indices {
						if idx < 0 || int(idx) >= plan.Ranks[rx.Peer].NLocal {
							t.Fatalf("send %d→%d gather index %d out of range", rx.Peer, q, idx)
						}
					}
				}
			}
			if !found {
				t.Fatalf("recv %d←%d has no matching send", q, rx.Peer)
			}
		}
	}
	// Total nnz conserved across ranks.
	var total int64
	for _, rp := range plan.Ranks {
		total += rp.NnzLocal + rp.NnzRemote
	}
	if total != a.Nnz() {
		t.Fatalf("plan nnz %d != matrix nnz %d", total, a.Nnz())
	}
}

func TestAllModesMatchSerial(t *testing.T) {
	a := randomSquare(5, 400, 150, 6)
	x := randVec(6, 400)
	want := make([]float64, 400)
	a.MulVec(want, x)
	for _, ranks := range []int{1, 2, 4, 7} {
		part := PartitionByNnz(a, ranks)
		plan, err := BuildPlan(a, part, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range Modes {
			for _, threads := range []int{1, 3} {
				got := mulFresh(t, plan, x, mode, threads, 1)
				if d := maxAbsDiff(want, got); d > 1e-12 {
					t.Errorf("ranks=%d mode=%v threads=%d: max diff %g", ranks, mode, threads, d)
				}
			}
		}
	}
}

func TestIteratedMultiplication(t *testing.T) {
	a := randomSquare(8, 200, 60, 4)
	// Scale down to keep powers bounded.
	for i := range a.Val {
		a.Val[i] *= 0.1
	}
	x := randVec(9, 200)
	want := append([]float64(nil), x...)
	tmp := make([]float64, 200)
	for k := 0; k < 4; k++ {
		a.MulVec(tmp, want)
		copy(want, tmp)
	}
	for _, mode := range Modes {
		part := PartitionByNnz(a, 3)
		plan, err := BuildPlan(a, part, true)
		if err != nil {
			t.Fatal(err)
		}
		got := mulFresh(t, plan, x, mode, 2, 4)
		if d := maxAbsDiff(want, got); d > 1e-10 {
			t.Errorf("mode=%v: A⁴x max diff %g", mode, d)
		}
	}
}

func TestHolsteinDistributed(t *testing.T) {
	h, err := genmat.NewHolstein(genmat.HolsteinConfig{
		Sites: 4, NumUp: 2, NumDown: 2, MaxPhonons: 3,
		T: 1, U: 4, Omega: 1, G: 1, Ordering: genmat.PhononsContiguous,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Materialize(h)
	n := a.NumRows
	x := randVec(10, n)
	want := make([]float64, n)
	a.MulVec(want, x)
	part := PartitionByNnz(h, 6)
	plan, err := BuildPlan(h, part, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range Modes {
		got := mulFresh(t, plan, x, mode, 2, 1)
		if d := maxAbsDiff(want, got); d > 1e-11 {
			t.Errorf("mode=%v on Holstein: max diff %g", mode, d)
		}
	}
}

func TestPoissonDistributed(t *testing.T) {
	p, err := genmat.NewPoisson(genmat.PoissonConfig{Nx: 12, Ny: 10, Nz: 8, GradingZ: 1.05, PermWindow: 8, PermSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Materialize(p)
	n := a.NumRows
	x := randVec(11, n)
	want := make([]float64, n)
	a.MulVec(want, x)
	part := PartitionByNnz(p, 5)
	plan, err := BuildPlan(p, part, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range Modes {
		got := mulFresh(t, plan, x, mode, 3, 1)
		if d := maxAbsDiff(want, got); d > 1e-11 {
			t.Errorf("mode=%v on Poisson: max diff %g", mode, d)
		}
	}
}

func TestPatternOnlyPlan(t *testing.T) {
	a := randomSquare(13, 150, 50, 4)
	part := PartitionByNnz(a, 4)
	plan, err := BuildPlan(a, part, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, rp := range plan.Ranks {
		if rp.A != nil || rp.Split != nil {
			t.Error("pattern-only plan materialized matrices")
		}
		if rp.NnzLocal+rp.NnzRemote <= 0 {
			t.Error("pattern-only plan missing nnz counts")
		}
	}
	// Pattern-only and with-values plans agree on structure.
	plan2, err := BuildPlan(a, part, true)
	if err != nil {
		t.Fatal(err)
	}
	for r := range plan.Ranks {
		if plan.Ranks[r].HaloSize() != plan2.Ranks[r].HaloSize() {
			t.Errorf("rank %d halo size differs pattern-only vs values", r)
		}
		if plan.Ranks[r].NnzLocal != plan2.Ranks[r].NnzLocal {
			t.Errorf("rank %d NnzLocal differs", r)
		}
	}
}

func TestBuildPlanErrors(t *testing.T) {
	a := randomSquare(17, 60, 20, 3)
	rect := matrixtest.ExtractRows(a, 0, 30) // 30x60 rectangular
	if _, err := BuildPlan(rect, PartitionByRows(30, 2), true); err == nil {
		t.Error("rectangular matrix accepted")
	}
	bad := newPartition([]spmv.Range{{Lo: 0, Hi: 10}}) // covers 10 of 60 rows
	if _, err := BuildPlan(a, bad, true); err == nil {
		t.Error("short partition accepted")
	}
	patternOnly := patternOnlySource{a}
	if _, err := BuildPlan(patternOnly, PartitionByNnz(a, 2), true); err == nil {
		t.Error("withValues accepted for pattern-only source")
	}
}

// patternOnlySource exposes only the PatternSource side of a CSR matrix.
type patternOnlySource struct{ a *matrix.CSR }

func (s patternOnlySource) Dims() (int, int) { return s.a.Dims() }
func (s patternOnlySource) AppendRow(i int, dst []int32) []int32 {
	return s.a.AppendRow(i, dst)
}

func TestDistributedProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		ranks := 1 + rng.Intn(6)
		mode := Modes[rng.Intn(len(Modes))]
		a := randomSquare(seed, n, 1+rng.Intn(n), 1+rng.Intn(6))
		x := randVec(seed+1, n)
		want := make([]float64, n)
		a.MulVec(want, x)
		part := PartitionByNnz(a, ranks)
		plan, err := BuildPlan(a, part, true)
		if err != nil {
			return false
		}
		got := mulFresh(t, plan, x, mode, 1+rng.Intn(3), 1)
		return maxAbsDiff(want, got) < 1e-11
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMoreRanksThanRows(t *testing.T) {
	a := randomSquare(19, 3, 2, 2)
	part := PartitionByNnz(a, 5) // two empty ranks
	plan, err := BuildPlan(a, part, true)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(20, 3)
	want := make([]float64, 3)
	a.MulVec(want, x)
	for _, mode := range Modes {
		got := mulFresh(t, plan, x, mode, 2, 1)
		if d := maxAbsDiff(want, got); d > 1e-13 {
			t.Errorf("mode=%v with empty ranks: diff %g", mode, d)
		}
	}
}

func TestDistributedFormatMatchesCSR(t *testing.T) {
	a := randomSquare(51, 400, 120, 6)
	x := randVec(52, 400)
	part := PartitionByNnz(a, 3)
	plan, err := BuildPlan(a, part, true)
	if err != nil {
		t.Fatal(err)
	}
	want := mulFresh(t, plan, x, VectorNoOverlap, 2, 1)
	if err := plan.ConvertFormat(formats.SELLBuilder{C: 16, Sigma: 64}); err != nil {
		t.Fatal(err)
	}
	got := mulFresh(t, plan, x, VectorNoOverlap, 2, 1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SELL-C-σ distributed result differs from CSR at row %d: %v != %v", i, got[i], want[i])
		}
	}
	// Serial reference for good measure.
	serial := make([]float64, 400)
	a.MulVec(serial, x)
	if d := maxAbsDiff(serial, got); d > 1e-12 {
		t.Fatalf("distributed differs from serial by %g", d)
	}
}

func TestOverlapModesFormatBitIdentical(t *testing.T) {
	// The acceptance bar of the format-generic overlap engine: every mode ×
	// format combination reproduces the CSR result bit for bit, because the
	// split-local kernels preserve the CSR per-row accumulation order.
	a := randomSquare(55, 500, 160, 7)
	x := randVec(56, 500)
	part := PartitionByNnz(a, 4)
	plan, err := BuildPlan(a, part, true)
	if err != nil {
		t.Fatal(err)
	}
	refs := make(map[Mode][]float64)
	for _, mode := range Modes {
		refs[mode] = mulFresh(t, plan, x, mode, 3, 1)
	}
	builders := []matrix.FormatBuilder{
		matrix.CSRBuilder{},
		formats.SELLBuilder{C: 8, Sigma: 32},
		formats.SELLBuilder{C: 32, Sigma: 256},
	}
	for _, b := range builders {
		plan2, err := BuildPlan(a, part, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan2.ConvertFormat(b); err != nil {
			t.Fatal(err)
		}
		for _, mode := range Modes {
			got := mulFresh(t, plan2, x, mode, 3, 1)
			for i := range got {
				if got[i] != refs[mode][i] {
					t.Fatalf("%s mode=%v row %d: %v != CSR %v", b.Name(), mode, i, got[i], refs[mode][i])
				}
			}
		}
	}
}

func TestIteratedMultiplicationFormats(t *testing.T) {
	// iters > 1 drives the X ← Y recycling across halo exchanges; every
	// mode × format combination must match the serial power iteration and
	// stay bit-identical to the CSR plan.
	a := randomSquare(57, 240, 80, 5)
	for i := range a.Val {
		a.Val[i] *= 0.1
	}
	x := randVec(58, 240)
	const iters = 3
	want := append([]float64(nil), x...)
	tmp := make([]float64, 240)
	for k := 0; k < iters; k++ {
		a.MulVec(tmp, want)
		copy(want, tmp)
	}
	part := PartitionByNnz(a, 3)
	plan, err := BuildPlan(a, part, true)
	if err != nil {
		t.Fatal(err)
	}
	refs := make(map[Mode][]float64)
	for _, mode := range Modes {
		refs[mode] = mulFresh(t, plan, x, mode, 2, iters)
		if d := maxAbsDiff(want, refs[mode]); d > 1e-10 {
			t.Errorf("CSR mode=%v: A³x max diff %g", mode, d)
		}
	}
	plan2, err := BuildPlan(a, part, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan2.ConvertFormat(formats.SELLBuilder{C: 16, Sigma: 64}); err != nil {
		t.Fatal(err)
	}
	for _, mode := range Modes {
		got := mulFresh(t, plan2, x, mode, 2, iters)
		for i := range got {
			if got[i] != refs[mode][i] {
				t.Fatalf("sell mode=%v row %d: %v != CSR %v", mode, i, got[i], refs[mode][i])
			}
		}
	}
}

// chunkImbalance returns max chunk weight over mean chunk weight, with
// chunk boundaries read against the given weight prefix.
func chunkImbalance(chunks []spmv.Range, prefix []int64) float64 {
	var max, total int64
	for _, r := range chunks {
		w := prefix[r.Hi] - prefix[r.Lo]
		total += w
		if w > max {
			max = w
		}
	}
	if total == 0 {
		return 1
	}
	return float64(max) * float64(len(chunks)) / float64(total)
}

func TestSplitChunksBalancedOnSplitNnz(t *testing.T) {
	// Halo-skewed fixture: on rank 0 every row holds one local (diagonal)
	// entry, and the first 16 rows additionally couple to 40 halo columns
	// each. Balancing the split passes on the full-matrix RowPtr (the
	// pre-fix behavior) starves the early chunks of local work.
	const n, half, threads = 256, 128, 4
	var entries []matrixtest.Coord
	for i := 0; i < n; i++ {
		entries = append(entries, matrixtest.Coord{Row: int32(i), Col: int32(i), Val: 1})
		if i < 16 {
			for j := 0; j < 40; j++ {
				entries = append(entries, matrixtest.Coord{
					Row: int32(i), Col: int32(half + (i*7+j)%half), Val: 1,
				})
			}
		}
	}
	a, err := matrixtest.NewCSRFromCOO(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(a, PartitionByRows(n, 2), true)
	if err != nil {
		t.Fatal(err)
	}
	rp := plan.Ranks[0]
	world, err := chanmpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	comm0, err := world.Comm(0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorker(rp, comm0, threads)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Team.Close()

	// Sanity: the fixture is skewed enough that the old chunking is badly
	// imbalanced when measured in local-pass work.
	old := spmv.BalanceNnz(rp.A.RowPtr, threads)
	localPrefix := rp.Split.Local.BlockNnzPrefix()
	if got := chunkImbalance(old, localPrefix); got < 2 {
		t.Fatalf("fixture not skewed enough: full-RowPtr chunking imbalance only %.2f", got)
	}
	if got := chunkImbalance(w.localChunks, localPrefix); got > 1.1 {
		t.Errorf("local pass imbalance %.2f, want ~1 (balanced on Split.Local nnz)", got)
	}
	if got := chunkImbalance(w.remoteChunks, rp.Split.Remote.RowPtr); got > 1.35 {
		t.Errorf("remote pass imbalance %.2f, want ~1 (balanced on compacted remote nnz)", got)
	}
	// The skewed fixture still multiplies correctly in every mode.
	x := randVec(60, n)
	want := make([]float64, n)
	a.MulVec(want, x)
	for _, mode := range Modes {
		got := mulFresh(t, plan, x, mode, threads, 1)
		if d := maxAbsDiff(want, got); d > 1e-12 {
			t.Errorf("mode=%v on skewed fixture: max diff %g", mode, d)
		}
	}
}

func TestWorkerRejectsHalfConvertedPlan(t *testing.T) {
	// A plan with only one of Format/SplitFormat set would run some modes
	// on the converted format and others on CSR — numerically equal but
	// silently different in speed. NewCluster must refuse it.
	newPlan := func() *Plan {
		a := randomSquare(59, 80, 30, 3)
		plan, err := BuildPlan(a, PartitionByNnz(a, 2), true)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	t.Run("full-only", func(t *testing.T) {
		plan := newPlan()
		rp := plan.Ranks[0]
		rp.Format = rp.A
		if c, err := NewCluster(plan, WithThreads(2)); err == nil {
			c.Close()
			t.Error("NewCluster accepted Format without SplitFormat")
		}
	})
	t.Run("split-only", func(t *testing.T) {
		plan := newPlan()
		rp := plan.Ranks[0]
		rp.SplitFormat = &spmv.FormatSplit{Local: rp.Split.Local, Remote: rp.Split.Remote, LocalCols: rp.NLocal}
		if c, err := NewCluster(plan, WithThreads(2)); err == nil {
			c.Close()
			t.Error("NewCluster accepted SplitFormat without Format")
		}
	})
}

func TestTaskModeStress(t *testing.T) {
	// Exercised with -race in CI: task mode's communication goroutine
	// (Waitall inside Step) runs concurrently with the compute team, and
	// iterated multiplication repeats the handoff every iteration.
	a := randomSquare(61, 300, 120, 5)
	for i := range a.Val {
		a.Val[i] *= 0.1
	}
	x := randVec(62, 300)
	const iters = 6
	want := append([]float64(nil), x...)
	tmp := make([]float64, 300)
	for k := 0; k < iters; k++ {
		a.MulVec(tmp, want)
		copy(want, tmp)
	}
	part := PartitionByNnz(a, 4)
	plan, err := BuildPlan(a, part, true)
	if err != nil {
		t.Fatal(err)
	}
	got := mulFresh(t, plan, x, TaskMode, 3, iters)
	if d := maxAbsDiff(want, got); d > 1e-9 {
		t.Fatalf("task mode A⁶x max diff %g", d)
	}
	if err := plan.ConvertFormat(formats.SELLBuilder{C: 16, Sigma: 64}); err != nil {
		t.Fatal(err)
	}
	got2 := mulFresh(t, plan, x, TaskMode, 3, iters)
	for i := range got2 {
		if got2[i] != got[i] {
			t.Fatalf("sell task mode differs from CSR at row %d: %v != %v", i, got2[i], got[i])
		}
	}
}

func TestConvertFormatRequiresValues(t *testing.T) {
	a := randomSquare(53, 100, 30, 4)
	plan, err := BuildPlan(a, PartitionByNnz(a, 2), false)
	if err != nil {
		t.Fatal(err)
	}
	err = plan.ConvertFormat(matrix.CSRBuilder{})
	if err == nil {
		t.Fatal("ConvertFormat accepted a pattern-only plan")
	}
}
