package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chanmpi"
	"repro/internal/formats"
	"repro/internal/matrix"
)

// newTestCluster builds a plan over a random square matrix and brings up a
// session, registering teardown with the test.
func newTestCluster(t *testing.T, seed int64, n, band, perRow, ranks int, opts ...Option) (*matrix.CSR, *Cluster) {
	t.Helper()
	a := randomSquare(seed, n, band, perRow)
	plan, err := BuildPlan(a, PartitionByNnz(a, ranks), true)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(plan, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return a, c
}

func TestClusterMulBitIdenticalToShims(t *testing.T) {
	// The resident session and the deprecated per-call shims must agree bit
	// for bit across every mode × format combination — the shims are proven
	// equivalent, and a migration cannot change numerics.
	a := randomSquare(71, 400, 140, 6)
	x := randVec(72, 400)
	builders := []matrix.FormatBuilder{
		matrix.CSRBuilder{},
		formats.SELLBuilder{C: 16, Sigma: 64},
	}
	for _, b := range builders {
		planShim, err := BuildPlan(a, PartitionByNnz(a, 4), true)
		if err != nil {
			t.Fatal(err)
		}
		if err := planShim.ConvertFormat(b); err != nil {
			t.Fatal(err)
		}
		planSess, err := BuildPlan(a, PartitionByNnz(a, 4), true)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := NewCluster(planSess, WithThreads(3), WithFormat(b))
		if err != nil {
			t.Fatal(err)
		}
		y := make([]float64, 400)
		for _, mode := range Modes {
			want := MulDistributed(planShim, x, mode, 3, 1)
			if err := cl.SetMode(mode); err != nil {
				t.Fatal(err)
			}
			if err := cl.Mul(y, x, 1); err != nil {
				t.Fatal(err)
			}
			for i := range y {
				if y[i] != want[i] {
					t.Fatalf("%s mode=%v row %d: cluster %v != shim %v", b.Name(), mode, i, y[i], want[i])
				}
			}
		}
		cl.Close()
	}
}

func TestClusterIteratedMulMatchesShim(t *testing.T) {
	a := randomSquare(73, 240, 80, 5)
	for i := range a.Val {
		a.Val[i] *= 0.1
	}
	x := randVec(74, 240)
	const iters = 4
	plan, err := BuildPlan(a, PartitionByNnz(a, 3), true)
	if err != nil {
		t.Fatal(err)
	}
	sessPlan, err := BuildPlan(a, PartitionByNnz(a, 3), true)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(sessPlan, WithThreads(2), WithMode(TaskMode))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	want := MulDistributed(plan, x, TaskMode, 2, iters)
	y := make([]float64, 240)
	if err := cl.Mul(y, x, iters); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("iterated cluster Mul differs from shim at row %d: %v != %v", i, y[i], want[i])
		}
	}
}

func TestClusterLiveSetModeAndConvert(t *testing.T) {
	// One resident session, reconfigured live between jobs: every mode in
	// CSR, then Convert to SELL-C-σ on the same runtime, then every mode
	// again — each result bit-identical to a fresh per-call reference.
	x := randVec(76, 300)
	a, cl := newTestCluster(t, 75, 300, 100, 5, 4, WithThreads(2))

	refPlan := func(b matrix.FormatBuilder) *Plan {
		p, err := BuildPlan(a, PartitionByNnz(a, 4), true)
		if err != nil {
			t.Fatal(err)
		}
		if b != nil {
			if err := p.ConvertFormat(b); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	check := func(stage string, ref *Plan) {
		y := make([]float64, 300)
		for _, mode := range Modes {
			if err := cl.SetMode(mode); err != nil {
				t.Fatal(err)
			}
			if got := cl.Mode(); got != mode {
				t.Fatalf("%s: Mode() = %v after SetMode(%v)", stage, got, mode)
			}
			if err := cl.Mul(y, x, 1); err != nil {
				t.Fatal(err)
			}
			want := MulDistributed(ref, x, mode, 2, 1)
			for i := range y {
				if y[i] != want[i] {
					t.Fatalf("%s mode=%v row %d: %v != %v", stage, mode, i, y[i], want[i])
				}
			}
		}
	}
	check("csr", refPlan(nil))
	if err := cl.Convert(formats.SELLBuilder{C: 8, Sigma: 32}); err != nil {
		t.Fatal(err)
	}
	check("sell-8-32", refPlan(formats.SELLBuilder{C: 8, Sigma: 32}))
	// A second conversion on the same session (SELL → SELL with different
	// geometry) must also take effect cleanly.
	if err := cl.Convert(formats.SELLBuilder{C: 32, Sigma: 128}); err != nil {
		t.Fatal(err)
	}
	check("sell-32-128", refPlan(formats.SELLBuilder{C: 32, Sigma: 128}))
}

func TestClusterRunSPMDCollectives(t *testing.T) {
	_, cl := newTestCluster(t, 77, 200, 60, 5, 4, WithThreads(2))
	var visited int64
	err := cl.Run(func(w *Worker) error {
		atomic.AddInt64(&visited, 1)
		// Mode is lock-free and therefore the one Cluster method a job
		// body may call back into (the others self-deadlock).
		if m := cl.Mode(); m != VectorNoOverlap {
			t.Errorf("Mode() inside body = %v", m)
		}
		if w.Comm.Size() != 4 {
			t.Errorf("world size %d", w.Comm.Size())
		}
		if w.Plan.Rank != w.Comm.Rank() {
			t.Errorf("plan rank %d != comm rank %d", w.Plan.Rank, w.Comm.Rank())
		}
		sum, err := w.Comm.AllreduceScalar(OpSum, 1)
		if err != nil {
			return err
		}
		if sum != 4 {
			t.Errorf("allreduce = %g", sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != 4 {
		t.Fatalf("body ran on %d ranks, want 4", visited)
	}
	// The same resident ranks serve the next submission.
	visited = 0
	if err := cl.Run(func(w *Worker) error { atomic.AddInt64(&visited, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if visited != 4 {
		t.Fatalf("second job ran on %d ranks, want 4", visited)
	}
}

func TestClusterDoubleCloseAndUseAfterClose(t *testing.T) {
	_, cl := newTestCluster(t, 79, 100, 30, 4, 3)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	y := make([]float64, 100)
	x := make([]float64, 100)
	if err := cl.Mul(y, x, 1); err == nil {
		t.Error("Mul on closed cluster succeeded")
	}
	if err := cl.Run(func(*Worker) error { return nil }); err == nil {
		t.Error("Run on closed cluster succeeded")
	}
	if err := cl.SetMode(TaskMode); err == nil {
		t.Error("SetMode on closed cluster succeeded")
	}
	if err := cl.Convert(formats.SELLBuilder{C: 8, Sigma: 8}); err == nil {
		t.Error("Convert on closed cluster succeeded")
	}
}

func TestClusterSequentialJobStress(t *testing.T) {
	// Exercised with -race in CI: many back-to-back submissions on the same
	// resident runtime — multiplications in rotating modes interleaved with
	// SPMD bodies doing collectives — reusing rank goroutines, teams and
	// halo buffers every time.
	a, cl := newTestCluster(t, 81, 250, 90, 5, 4, WithThreads(3))
	x := randVec(82, 250)
	want := make([]float64, 250)
	a.MulVec(want, x)
	y := make([]float64, 250)
	for it := 0; it < 30; it++ {
		mode := Modes[it%len(Modes)]
		if err := cl.SetMode(mode); err != nil {
			t.Fatal(err)
		}
		if err := cl.Mul(y, x, 1); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(want, y); d > 1e-12 {
			t.Fatalf("iteration %d mode %v: max diff %g", it, mode, d)
		}
		if it%5 == 4 {
			if err := cl.Run(func(w *Worker) error {
				got, err := w.Comm.AllreduceScalar(OpSum, float64(w.Comm.Rank()))
				if err != nil {
					return err
				}
				if got != 6 {
					t.Errorf("allreduce of ranks = %g, want 6", got)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestClusterRunPanicBecomesError(t *testing.T) {
	_, cl := newTestCluster(t, 83, 60, 20, 3, 3)
	err := cl.Run(func(w *Worker) error {
		panic(fmt.Sprintf("boom on rank %d", w.Comm.Rank()))
	})
	if err == nil {
		t.Fatal("panicking job reported no error")
	}
	if !strings.Contains(err.Error(), "boom on rank") {
		t.Fatalf("error %q does not carry the panic", err)
	}
	// A failed job is fatal to the world (fail-stop): further submissions
	// refuse with the original cause, and Close still works.
	y := make([]float64, 60)
	x := make([]float64, 60)
	if err := cl.Mul(y, x, 1); err == nil || !strings.Contains(err.Error(), "boom on rank") {
		t.Fatalf("Mul after failed job: %v, want refusal carrying the cause", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("Close after failed job: %v", err)
	}
}

// A kernel that panics on a compute thread — here every thread indexes past
// an X cut short — surfaces as the rank's job error in every mode, like a
// panic in the body itself, instead of taking the process down from a pool
// goroutine.
func TestKernelPanicOnComputeThreadBecomesJobError(t *testing.T) {
	for _, mode := range Modes {
		_, cl := newTestCluster(t, 83, 60, 20, 3, 3, WithThreads(3))
		err := cl.Run(func(w *Worker) error {
			w.X = w.X[:1]
			return w.Step(mode)
		})
		if err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%v: job error %v, want the kernel's index panic", mode, err)
		}
	}
}

func TestNewClusterErrors(t *testing.T) {
	a := randomSquare(85, 80, 30, 3)
	plan, err := BuildPlan(a, PartitionByNnz(a, 2), true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCluster(nil); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := NewCluster(plan, WithThreads(0)); err == nil {
		t.Error("threads = 0 accepted")
	}
	if _, err := NewCluster(plan, WithMode(Mode(42))); err == nil {
		t.Error("unknown mode accepted")
	}
	patternOnly, err := BuildPlan(a, PartitionByNnz(a, 2), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCluster(patternOnly); err == nil {
		t.Error("pattern-only plan accepted")
	}
	if _, err := NewCluster(patternOnly, WithFormat(matrix.CSRBuilder{})); err == nil {
		t.Error("WithFormat on pattern-only plan accepted")
	}
	// Half-converted plan: Format set without SplitFormat.
	half, err := BuildPlan(a, PartitionByNnz(a, 2), true)
	if err != nil {
		t.Fatal(err)
	}
	half.Ranks[0].Format = half.Ranks[0].A
	if _, err := NewCluster(half); err == nil {
		t.Error("half-converted plan accepted")
	}
	// Bad format geometry surfaces through NewCluster, not a panic.
	if _, err := NewCluster(plan, WithFormat(formats.SELLBuilder{C: 0, Sigma: 8})); err == nil {
		t.Error("invalid SELL geometry accepted")
	}
}

func TestClusterSetModeValidation(t *testing.T) {
	_, cl := newTestCluster(t, 87, 50, 20, 3, 2)
	if err := cl.SetMode(Mode(9)); err == nil {
		t.Error("SetMode accepted an unknown mode")
	}
	if got := cl.Mode(); got != VectorNoOverlap {
		t.Errorf("failed SetMode changed the mode to %v", got)
	}
}

func TestClusterMulValidation(t *testing.T) {
	_, cl := newTestCluster(t, 89, 50, 20, 3, 2)
	y := make([]float64, 50)
	x := make([]float64, 50)
	if err := cl.Mul(y, x[:49], 1); err == nil {
		t.Error("short x accepted")
	}
	if err := cl.Mul(y[:49], x, 1); err == nil {
		t.Error("short y accepted")
	}
	if err := cl.Mul(y, x, 0); err == nil {
		t.Error("iters = 0 accepted")
	}
}

func TestClusterAccessors(t *testing.T) {
	_, cl := newTestCluster(t, 91, 90, 30, 4, 3, WithThreads(2), WithMode(TaskMode))
	if cl.Ranks() != 3 {
		t.Errorf("Ranks() = %d, want 3", cl.Ranks())
	}
	if cl.Threads() != 2 {
		t.Errorf("Threads() = %d, want 2", cl.Threads())
	}
	if cl.Rows() != 90 {
		t.Errorf("Rows() = %d, want 90", cl.Rows())
	}
	if cl.Mode() != TaskMode {
		t.Errorf("Mode() = %v, want task mode", cl.Mode())
	}
	if cl.Plan() == nil || cl.Plan().Part.NumRanks() != 3 {
		t.Error("Plan() accessor broken")
	}
}

func TestClusterCustomTransport(t *testing.T) {
	// WithTransport swaps the backend; a counting wrapper around the default
	// proves the modes run through the injected Comms, not a hidden world.
	ct := &countingTransport{}
	a, cl := newTestCluster(t, 93, 120, 40, 4, 3, WithTransport(ct), WithMode(VectorNaiveOverlap))
	if ct.dials != 1 {
		t.Fatalf("transport dialed %d times, want 1", ct.dials)
	}
	x := randVec(94, 120)
	want := make([]float64, 120)
	a.MulVec(want, x)
	y := make([]float64, 120)
	if err := cl.Mul(y, x, 1); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(want, y); d > 1e-12 {
		t.Fatalf("max diff %g over custom transport", d)
	}
	if ct.sends.Load() == 0 {
		t.Error("no halo traffic went through the injected transport")
	}
}

func TestClusterClosesWorld(t *testing.T) {
	ct := &closableTransport{}
	_, cl := newTestCluster(t, 97, 60, 20, 3, 2, WithTransport(ct))
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ct.closes.Load(); got != 1 {
		t.Fatalf("world closed %d times, want 1", got)
	}
	// Idempotent Close must not re-close the world.
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ct.closes.Load(); got != 1 {
		t.Fatalf("double Close reached the world (%d closes)", got)
	}
}

// closableTransport hands out worlds that record Close calls from
// Cluster.Close.
type closableTransport struct {
	closes atomic.Int64
}

func (ct *closableTransport) Dial(ctx context.Context, size int) (World, error) {
	w, err := ChanTransport{}.Dial(ctx, size)
	if err != nil {
		return nil, err
	}
	return &closableWorld{World: w, closes: &ct.closes}, nil
}

type closableWorld struct {
	World
	closes *atomic.Int64
}

func (cw *closableWorld) Close() error {
	cw.closes.Add(1)
	return cw.World.Close()
}

func TestNewClusterFailureLeavesPlanUnconverted(t *testing.T) {
	// Construction failure must not have the durable side effect of
	// converting the caller's plan: the cheap option checks run before
	// WithFormat does.
	a := randomSquare(99, 60, 20, 3)
	plan, err := BuildPlan(a, PartitionByNnz(a, 2), true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCluster(plan, WithFormat(formats.SELLBuilder{C: 8, Sigma: 16}), WithThreads(0)); err == nil {
		t.Fatal("threads = 0 accepted")
	}
	for r, rp := range plan.Ranks {
		if rp.Format != nil || rp.SplitFormat != nil {
			t.Fatalf("failed NewCluster converted rank %d of the caller's plan", r)
		}
	}
}

// countingTransport wraps ChanTransport, counting Dials and Isends.
type countingTransport struct {
	dials int
	sends atomic.Int64
}

func (ct *countingTransport) Dial(ctx context.Context, size int) (World, error) {
	ct.dials++
	w, err := ChanTransport{}.Dial(ctx, size)
	if err != nil {
		return nil, err
	}
	return &countingWorld{World: w, sends: &ct.sends}, nil
}

type countingWorld struct {
	World
	sends *atomic.Int64
}

func (cw *countingWorld) Comm(rank int) (Comm, error) {
	c, err := cw.World.Comm(rank)
	if err != nil {
		return nil, err
	}
	return &countingComm{Comm: c, sends: cw.sends}, nil
}

type countingComm struct {
	Comm
	sends *atomic.Int64
}

func (cc *countingComm) Isend(dst, tag int, data []float64) (Request, error) {
	cc.sends.Add(1)
	return cc.Comm.Isend(dst, tag, data)
}

// SendInit wraps the persistent send channel so every restarted halo send
// is counted too — the workers compile their schedule into persistent
// channels, so steady-state traffic flows through Start, not Isend.
func (cc *countingComm) SendInit(dst, tag int, buf []float64) (PersistentRequest, error) {
	pr, err := cc.Comm.SendInit(dst, tag, buf)
	if err != nil {
		return nil, err
	}
	return &countingPersistent{PersistentRequest: pr, sends: cc.sends}, nil
}

type countingPersistent struct {
	PersistentRequest
	sends *atomic.Int64
}

func (cp *countingPersistent) Start() error {
	cp.sends.Add(1)
	return cp.PersistentRequest.Start()
}

func TestClusterRunBodyErrorSurfaces(t *testing.T) {
	// Comm v2's error-first contract end to end: a body error (not a panic)
	// comes back from Run tagged with its rank.
	_, cl := newTestCluster(t, 101, 80, 30, 3, 3)
	bodyErr := fmt.Errorf("rank refused")
	err := cl.Run(func(w *Worker) error {
		if w.Comm.Rank() == 1 {
			return bodyErr
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1") || !strings.Contains(err.Error(), "rank refused") {
		t.Fatalf("Run returned %v, want rank-tagged body error", err)
	}
}

func TestClusterFailedRankUnwedgesBlockedPeers(t *testing.T) {
	// The fail-stop regression: one rank's body errors out while its peers
	// sit in a collective waiting for it. The failure must fail the world —
	// peers wake with a WorldError instead of wedging the job (and Close)
	// forever — and Run must report the PRIMARY cause with the right rank,
	// not a bystander's secondary world-failure error.
	_, cl := newTestCluster(t, 107, 80, 30, 3, 4)
	done := make(chan error, 1)
	go func() {
		done <- cl.Run(func(w *Worker) error {
			if w.Comm.Rank() == 2 {
				return fmt.Errorf("rank 2 bailed")
			}
			return w.Comm.Barrier() // abandoned by rank 2
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "rank 2") || !strings.Contains(err.Error(), "bailed") {
			t.Fatalf("Run returned %v, want the primary rank 2 failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("peers stayed wedged in the abandoned collective")
	}
	if err := cl.Run(func(*Worker) error { return nil }); err == nil {
		t.Fatal("failed cluster accepted another job")
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("Close after failed job: %v", err)
	}
}

func TestClusterLocalRanks(t *testing.T) {
	_, cl := newTestCluster(t, 103, 90, 30, 4, 3)
	got := cl.LocalRanks()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("LocalRanks() = %v, want [0 1 2] on the all-local chan world", got)
	}
	// The accessor hands out a copy, not the cluster's own slice.
	got[0] = 99
	if again := cl.LocalRanks(); again[0] != 0 {
		t.Error("LocalRanks() exposes internal state")
	}
}

func TestParseFormat(t *testing.T) {
	if b, err := ParseFormat("crs"); err != nil || b.Name() != "crs" {
		t.Errorf("ParseFormat(crs) = %v, %v", b, err)
	}
	if b, err := ParseFormat(" CSR "); err != nil || b.Name() != "crs" {
		t.Errorf("ParseFormat(CSR) = %v, %v", b, err)
	}
	b, err := ParseFormat("sell-32-256")
	if err != nil {
		t.Fatalf("ParseFormat(sell-32-256): %v", err)
	}
	sb, ok := b.(formats.SELLBuilder)
	if !ok || sb.C != 32 || sb.Sigma != 256 {
		t.Errorf("ParseFormat(sell-32-256) = %#v", b)
	}
	// Round trip: the builder's canonical name parses back to itself.
	if rb, err := ParseFormat(sb.Name()); err != nil || rb != b {
		t.Errorf("ParseFormat(%q) = %v, %v", sb.Name(), rb, err)
	}
	for _, bad := range []string{"", "ellpack", "sell", "sell-32", "sell-0-8", "sell-x-y", "sell-8-"} {
		if _, err := ParseFormat(bad); err == nil {
			t.Errorf("ParseFormat(%q) accepted", bad)
		}
	}
	// A parsed format drives a real conversion: cluster results stay
	// bit-identical to the explicitly constructed builder.
	parsed, err := ParseFormat("sell-8-32")
	if err != nil {
		t.Fatal(err)
	}
	a, cl := newTestCluster(t, 105, 150, 50, 5, 3, WithFormat(parsed))
	x := randVec(106, 150)
	y := make([]float64, 150)
	if err := cl.Mul(y, x, 1); err != nil {
		t.Fatal(err)
	}
	refPlan, err := BuildPlan(a, PartitionByNnz(a, 3), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := refPlan.ConvertFormat(formats.SELLBuilder{C: 8, Sigma: 32}); err != nil {
		t.Fatal(err)
	}
	want := MulDistributed(refPlan, x, VectorNoOverlap, 1, 1)
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("parsed-format cluster differs at row %d: %v != %v", i, y[i], want[i])
		}
	}
}

func TestParseMode(t *testing.T) {
	cases := map[string]Mode{
		"vector-no-overlap":    VectorNoOverlap,
		"vector":               VectorNoOverlap,
		"no-overlap":           VectorNoOverlap,
		"vector-naive-overlap": VectorNaiveOverlap,
		"naive":                VectorNaiveOverlap,
		"Task-Mode":            TaskMode,
		" task ":               TaskMode,
	}
	for s, want := range cases {
		got, err := ParseMode(s)
		if err != nil {
			t.Errorf("ParseMode(%q): %v", s, err)
		} else if got != want {
			t.Errorf("ParseMode(%q) = %v, want %v", s, got, want)
		}
	}
	if _, err := ParseMode("openmp"); err == nil {
		t.Error("ParseMode accepted an unknown name")
	}
	// Round trip: every defined mode parses from its own String().
	for _, m := range Modes {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
}

func TestDeprecatedShimsStillPanicOnMisuse(t *testing.T) {
	a := randomSquare(95, 60, 20, 3)
	plan, err := BuildPlan(a, PartitionByNnz(a, 2), true)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("MulDistributed short x", func() { MulDistributed(plan, make([]float64, 10), TaskMode, 2, 1) })
	// Historical iters < 1 behavior: zero multiplications, zero vector —
	// not the Cluster.Mul error.
	for _, v := range MulDistributed(plan, make([]float64, 60), TaskMode, 2, 0) {
		if v != 0 {
			t.Error("MulDistributed with iters=0 must return the zero vector")
			break
		}
	}
	mustPanic("MulDistributed bad threads", func() { MulDistributed(plan, make([]float64, 60), TaskMode, 0, 1) })
	mustPanic("RunSPMD bad threads", func() { RunSPMD(plan, 0, func(*Worker) {}) })
	world, err := chanmpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	comm0, err := world.Comm(0)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic("NewWorker bad threads", func() { NewWorker(plan.Ranks[0], comm0, 0) })
	patternOnly, err := BuildPlan(a, PartitionByNnz(a, 2), false)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic("NewWorker pattern-only", func() { NewWorker(patternOnly.Ranks[0], comm0, 1) })
}
