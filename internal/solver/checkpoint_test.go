package solver

import (
	"math"
	"math/rand"
	"testing"
)

// bitsEqual compares float64 slices for exact bit equality — restore
// correctness is defined as bit-identity, not closeness.
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

// TestDistCGCheckpointRestoreBitIdentical pins the recovery contract end
// to end in-process: a solve snapshotting every k iterations, then a
// SECOND solve on a FRESH cluster restored from the latest snapshot, must
// converge to the bit-identical solution with the bit-identical residual
// history and the same iteration and MVM counts as an uninterrupted
// reference run — the restored trajectory IS the original trajectory.
func TestDistCGCheckpointRestoreBitIdentical(t *testing.T) {
	const tol, maxIter, every = 1e-10, 5000, 20
	a, cl := poissonCluster(t, 5)
	n := a.NumRows
	rng := rand.New(rand.NewSource(7))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}

	// Uninterrupted reference.
	xRef := make([]float64, n)
	ref, err := DistCG(cl, b, xRef, tol, maxIter)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Converged || ref.Iterations <= 2*every {
		t.Fatalf("reference run unusable for the test: converged=%v in %d iterations (need > %d)",
			ref.Converged, ref.Iterations, 2*every)
	}

	// Checkpointing run: snapshots must not perturb the solve.
	ck := NewCGCheckpoint(cl, maxIter)
	snapshots := 0
	xCkpt := make([]float64, n)
	got, err := DistCGOpt(cl, b, xCkpt, CGOptions{
		Tol: tol, MaxIter: maxIter,
		CheckpointEvery: every, Checkpoint: ck,
		OnCheckpoint: func(c *CGCheckpoint) error { snapshots++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(xCkpt, xRef) || got.Iterations != ref.Iterations {
		t.Fatal("checkpointing perturbed the solve")
	}
	if snapshots == 0 || !ck.Valid() {
		t.Fatalf("no snapshot sealed (%d hooks, valid=%v)", snapshots, ck.Valid())
	}
	if ck.Iter%every != 0 || ck.Iter >= ref.Iterations {
		t.Fatalf("latest snapshot at iteration %d, want a pre-convergence multiple of %d", ck.Iter, every)
	}

	// Restore on a fresh cluster — the crash-recovery path: nothing of the
	// original solve survives except the checkpoint.
	_, cl2 := poissonCluster(t, 5)
	xRec := make([]float64, n) // zeros: the restore must not read x
	rec, err := DistCGOpt(cl2, b, xRec, CGOptions{Tol: tol, MaxIter: maxIter, Restore: ck})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Converged {
		t.Fatal("restored run did not converge")
	}
	if !bitsEqual(xRec, xRef) {
		t.Fatal("restored solution is not bit-identical to the uninterrupted run")
	}
	if rec.Iterations != ref.Iterations || rec.MVMs != ref.MVMs {
		t.Fatalf("restored run: %d iterations / %d MVMs, reference: %d / %d",
			rec.Iterations, rec.MVMs, ref.Iterations, ref.MVMs)
	}
	if !bitsEqual(rec.History, ref.History) {
		t.Fatal("restored residual history is not bit-identical to the reference")
	}
}

// TestCheckpointOptionValidation pins the misuse errors: a cadence with
// no buffer, a restore from an empty snapshot, and a snapshot whose row
// span belongs to a different cluster shape.
func TestCheckpointOptionValidation(t *testing.T) {
	a, cl := poissonCluster(t, 4)
	n := a.NumRows
	b := make([]float64, n)
	b[0] = 1
	x := make([]float64, n)

	if _, err := DistCGOpt(cl, b, x, CGOptions{Tol: 1e-8, MaxIter: 10, CheckpointEvery: 2}); err == nil {
		t.Fatal("cadence without a buffer accepted")
	}
	if _, err := DistCGOpt(cl, b, x, CGOptions{Tol: 1e-8, MaxIter: 10, Restore: NewCGCheckpoint(cl, 10)}); err == nil {
		t.Fatal("restore from an empty checkpoint accepted")
	}
	bad := NewCGCheckpoint(cl, 10)
	bad.Hi = bad.Hi - 1
	bad.Seal()
	if _, err := DistCGOpt(cl, b, x, CGOptions{Tol: 1e-8, MaxIter: 10, Restore: bad}); err == nil {
		t.Fatal("restore with a mismatched row span accepted")
	}
}
