package ckpt

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/matrix"
	"repro/internal/solver"
)

func testCluster(t *testing.T, ranks int) *core.Cluster {
	t.Helper()
	p, err := genmat.NewPoisson(genmat.PoissonConfig{Nx: 8, Ny: 6, Nz: 5})
	if err != nil {
		t.Fatal(err)
	}
	part := core.PartitionByNnz(p, ranks)
	plan, err := core.BuildPlan(p, part, true)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewCluster(plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func fillCG(cl *core.Cluster, rng *rand.Rand, iter int) *solver.CGCheckpoint {
	ck := solver.NewCGCheckpoint(cl, 100)
	ck.Iter = iter
	ck.MVMs = iter + 1
	ck.RR = rng.Float64()
	for i := 0; i < iter; i++ {
		ck.History = append(ck.History, rng.Float64())
	}
	for i := range ck.X {
		ck.X[i] = rng.NormFloat64()
		ck.R[i] = rng.NormFloat64()
		ck.P[i] = rng.NormFloat64()
	}
	ck.Seal()
	return ck
}

// TestCGRoundTrip pins the identity property: a save/load round trip
// reproduces every field bit for bit.
func TestCGRoundTrip(t *testing.T) {
	cl := testCluster(t, 3)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	ck := fillCG(cl, rng, 40)

	path, err := SaveCG(dir, ck)
	if err != nil {
		t.Fatal(err)
	}
	if want := CGPath(dir, ck.Lo, ck.Hi, 40); path != want {
		t.Fatalf("saved to %s, want %s", path, want)
	}

	got := solver.NewCGCheckpoint(cl, 100)
	if err := LoadCG(path, got); err != nil {
		t.Fatal(err)
	}
	if !got.Valid() || got.Iter != ck.Iter || got.MVMs != ck.MVMs ||
		math.Float64bits(got.RR) != math.Float64bits(ck.RR) {
		t.Fatalf("scalars corrupted: %+v", got)
	}
	if !bitsEqual(got.History, ck.History) || !bitsEqual(got.X, ck.X) ||
		!bitsEqual(got.R, ck.R) || !bitsEqual(got.P, ck.P) {
		t.Fatal("vectors are not bit-identical after the round trip")
	}
}

// TestLatestPicksNewestMatchingSpan pins the directory scan: newest
// iteration wins, other spans and junk files are ignored, and a missing
// directory means a fresh start, not an error.
func TestLatestPicksNewestMatchingSpan(t *testing.T) {
	cl := testCluster(t, 3)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))

	var lastPath string
	for _, it := range []int{20, 60, 40} {
		p, err := SaveCG(dir, fillCG(cl, rng, it))
		if err != nil {
			t.Fatal(err)
		}
		if it == 60 {
			lastPath = p
		}
	}
	lo, hi := fillCG(cl, rng, 1).Lo, fillCG(cl, rng, 1).Hi
	// Junk, foreign spans and near misses of a newer name must be ignored.
	for _, name := range []string{
		"cg-000000-000001-i00000099.ckpt",
		"notes.txt",
		filepath.Base(CGPath(dir, lo, hi, 70)) + ".bak",
		fmt.Sprintf("cg-%06d-%06d-i80.ckpt", lo, hi),
	} {
		os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644)
	}

	iter, path, err := LatestCG(dir, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 60 || path != lastPath {
		t.Fatalf("latest = %d (%s), want 60 (%s)", iter, path, lastPath)
	}

	iter, _, err = LatestCG(filepath.Join(dir, "missing"), 0, 1)
	if err != nil || iter != -1 {
		t.Fatalf("missing dir: got %d, %v; want -1, nil", iter, err)
	}
}

// TestLoadRejectsCorruption pins the torn-file defense: a flipped byte
// fails the CRC, a truncated file fails outright, and a span mismatch is
// named.
func TestLoadRejectsCorruption(t *testing.T) {
	cl := testCluster(t, 2)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(4))
	ck := fillCG(cl, rng, 8)
	path, err := SaveCG(dir, ck)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	bad := filepath.Join(dir, "bad.ckpt")
	os.WriteFile(bad, flipped, 0o644)
	if err := LoadCG(bad, solver.NewCGCheckpoint(cl, 100)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted file: got %v, want a checksum error", err)
	}

	os.WriteFile(bad, raw[:10], 0o644)
	if err := LoadCG(bad, solver.NewCGCheckpoint(cl, 100)); err == nil {
		t.Fatal("truncated file accepted")
	}

	other := solver.NewCGCheckpoint(cl, 100)
	other.Lo++
	if err := LoadCG(path, other); err == nil || !strings.Contains(err.Error(), "rows") {
		t.Fatalf("span mismatch: got %v, want a row-span error", err)
	}

	if _, err := SaveCG(dir, solver.NewCGCheckpoint(cl, 100)); err == nil {
		t.Fatal("saving an unsealed checkpoint accepted")
	}
}

// TestSaveLeavesNoTempDebris pins atomicity's visible half: after a save,
// the directory holds exactly the named snapshot.
func TestSaveLeavesNoTempDebris(t *testing.T) {
	cl := testCluster(t, 2)
	dir := t.TempDir()
	if _, err := SaveCG(dir, fillCG(cl, rand.New(rand.NewSource(5)), 4)); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || !strings.HasPrefix(ents[0].Name(), "cg-") {
		t.Fatalf("directory contents after save: %v", ents)
	}
}

// TestAgree pins the restart rendezvous on a single-process world: the
// reduction of one process's latest is itself, and -1 (no snapshot)
// survives the float round trip.
func TestAgree(t *testing.T) {
	cl := testCluster(t, 3)
	for _, latest := range []int{-1, 0, 40} {
		got, err := Agree(cl, latest)
		if err != nil {
			t.Fatal(err)
		}
		if got != latest {
			t.Fatalf("Agree(%d) = %d", latest, got)
		}
	}
}

// TestAgreeAcrossRestoredSolve drives the full durable recovery loop
// in-process: solve with on-disk checkpointing, "crash" (discard all
// memory), agree on the newest snapshot, load it, and resume to a
// bit-identical answer.
func TestAgreeAcrossRestoredSolve(t *testing.T) {
	const tol, maxIter, every = 1e-10, 5000, 15
	p, err := genmat.NewPoisson(genmat.PoissonConfig{Nx: 10, Ny: 8, Nz: 6})
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Materialize(p)
	part := core.PartitionByNnz(p, 4)
	plan, err := core.BuildPlan(p, part, true)
	if err != nil {
		t.Fatal(err)
	}
	n := a.NumRows
	rng := rand.New(rand.NewSource(9))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	dir := t.TempDir()

	cl, err := core.NewCluster(plan)
	if err != nil {
		t.Fatal(err)
	}
	xRef := make([]float64, n)
	ref, err := solver.DistCG(cl, b, xRef, tol, maxIter)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Converged || ref.Iterations < 3*every {
		t.Fatalf("reference unusable: %+v", ref)
	}

	ck := solver.NewCGCheckpoint(cl, maxIter)
	x := make([]float64, n)
	_, err = solver.DistCGOpt(cl, b, x, solver.CGOptions{
		Tol: tol, MaxIter: maxIter,
		CheckpointEvery: every, Checkpoint: ck,
		OnCheckpoint: func(c *solver.CGCheckpoint) error {
			_, err := SaveCG(dir, c)
			return err
		},
	})
	cl.Close()
	if err != nil {
		t.Fatal(err)
	}

	// "Crash": everything in memory is gone; only dir survives.
	cl2, err := core.NewCluster(plan)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	ck2 := solver.NewCGCheckpoint(cl2, maxIter)
	iter, path, err := LatestCG(dir, ck2.Lo, ck2.Hi)
	if err != nil {
		t.Fatal(err)
	}
	agreed, err := Agree(cl2, iter)
	if err != nil {
		t.Fatal(err)
	}
	if agreed != iter || agreed < every {
		t.Fatalf("agreed on %d (local latest %d)", agreed, iter)
	}
	if err := LoadCG(path, ck2); err != nil {
		t.Fatal(err)
	}
	xRec := make([]float64, n)
	rec, err := solver.DistCGOpt(cl2, b, xRec, solver.CGOptions{Tol: tol, MaxIter: maxIter, Restore: ck2})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Converged || !bitsEqual(xRec, xRef) || !bitsEqual(rec.History, ref.History) {
		t.Fatal("durably restored run is not bit-identical to the reference")
	}
}
