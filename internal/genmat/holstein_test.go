package genmat

import (
	"math"
	"testing"

	"repro/internal/matrix"
	"repro/internal/matrix/matrixtest"
)

func tinyHolstein(t *testing.T, o Ordering) *Holstein {
	t.Helper()
	h, err := NewHolstein(HolsteinConfig{
		Sites: 4, NumUp: 2, NumDown: 2, MaxPhonons: 3,
		T: 1, U: 4, Omega: 1, G: 0.8, Ordering: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHolsteinPaperDimensions(t *testing.T) {
	h, err := NewHolstein(PaperConfig(PhononsContiguous))
	if err != nil {
		t.Fatal(err)
	}
	if h.ElectronDim() != 400 {
		t.Errorf("electron dim = %d, want 400", h.ElectronDim())
	}
	if h.PhononDim() != 15504 {
		t.Errorf("phonon dim = %d, want 15504", h.PhononDim())
	}
	rows, cols := h.Dims()
	if rows != 6201600 || cols != 6201600 {
		t.Errorf("dims = %dx%d, want 6201600 (paper's N)", rows, cols)
	}
}

func TestHolsteinSymmetric(t *testing.T) {
	for _, o := range []Ordering{ElectronsContiguous, PhononsContiguous} {
		h := tinyHolstein(t, o)
		a := matrix.Materialize(h)
		if err := a.Validate(); err != nil {
			t.Fatalf("%v: invalid CSR: %v", o, err)
		}
		if !matrixtest.IsSymmetric(a, 1e-12) {
			t.Errorf("%v: Hamiltonian not symmetric", o)
		}
	}
}

func TestHolsteinOrderingsArePermutations(t *testing.T) {
	// HMEp and HMeP are the same operator under a permutation of the basis;
	// eigen-invariants like the trace and Frobenius norm must agree.
	a := matrix.Materialize(tinyHolstein(t, ElectronsContiguous))
	b := matrix.Materialize(tinyHolstein(t, PhononsContiguous))
	if a.Nnz() != b.Nnz() {
		t.Fatalf("nnz differ: %d vs %d", a.Nnz(), b.Nnz())
	}
	trace := func(m *matrix.CSR) float64 {
		var tr float64
		for i := 0; i < m.NumRows; i++ {
			cols, vals := m.Row(i)
			for k, c := range cols {
				if int(c) == i {
					tr += vals[k]
				}
			}
		}
		return tr
	}
	frob := func(m *matrix.CSR) float64 {
		var s float64
		for _, v := range m.Val {
			s += v * v
		}
		return math.Sqrt(s)
	}
	if math.Abs(trace(a)-trace(b)) > 1e-9 {
		t.Errorf("traces differ: %g vs %g", trace(a), trace(b))
	}
	if math.Abs(frob(a)-frob(b)) > 1e-9 {
		t.Errorf("Frobenius norms differ: %g vs %g", frob(a), frob(b))
	}
}

func TestHolsteinExplicitPermutation(t *testing.T) {
	// Check entry-by-entry: A_HMEp[p·Ne+e, p'·Ne+e'] == A_HMeP[e·Np+p, e'·Np+p'].
	ha := tinyHolstein(t, ElectronsContiguous)
	hb := tinyHolstein(t, PhononsContiguous)
	a := matrixtest.Dense(matrix.Materialize(ha))
	b := matrixtest.Dense(matrix.Materialize(hb))
	ne := ha.ElectronDim()
	np := int(ha.PhononDim())
	for e := 0; e < ne; e++ {
		for p := 0; p < np; p++ {
			for e2 := 0; e2 < ne; e2++ {
				for p2 := 0; p2 < np; p2++ {
					va := a[p*ne+e][p2*ne+e2]
					vb := b[e*np+p][e2*np+p2]
					if va != vb {
						t.Fatalf("permutation mismatch at e=%d p=%d e2=%d p2=%d: %g vs %g",
							e, p, e2, p2, va, vb)
					}
				}
			}
		}
	}
}

func TestHolsteinDiagonal(t *testing.T) {
	h := tinyHolstein(t, PhononsContiguous)
	a := matrix.Materialize(h)
	// Row 0: electron state 0 ⊗ phonon vacuum. Diagonal = U·docc + 0.
	// Row for phonon rank r has diagonal U·docc + ω₀·total(m).
	m := make([]int, h.fock.Modes)
	for p := int64(0); p < h.PhononDim(); p++ {
		h.fock.unrank(p, m)
		row := int(p) // electron state 0, PhononsContiguous
		cols, vals := a.Row(row)
		var diag float64
		found := false
		for k, c := range cols {
			if int(c) == row {
				diag = vals[k]
				found = true
			}
		}
		if !found {
			t.Fatalf("row %d has no diagonal", row)
		}
		want := h.diagEl[0] + h.cfg.Omega*float64(sumQuanta(m))
		if math.Abs(diag-want) > 1e-12 {
			t.Errorf("diag(p=%d) = %g, want %g", p, diag, want)
		}
	}
}

func TestHolsteinHubbardOnlyLimit(t *testing.T) {
	// With zero phonon coupling and zero phonon budget the matrix reduces to
	// the plain Hubbard model on the electronic space.
	h, err := NewHolstein(HolsteinConfig{
		Sites: 4, NumUp: 1, NumDown: 1, MaxPhonons: 0,
		T: 1, U: 7, Omega: 1, G: 0, Ordering: PhononsContiguous,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Materialize(h)
	rows, _ := a.Dims()
	if rows != 16 {
		t.Fatalf("dims = %d, want 16 (4x4 electronic only)", rows)
	}
	// Trace = U × (number of doubly-occupied basis states) = 7 × 4 sites.
	var tr float64
	for i := 0; i < rows; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			if int(c) == i {
				tr += vals[k]
			}
		}
	}
	if math.Abs(tr-28) > 1e-12 {
		t.Errorf("Hubbard trace = %g, want 28", tr)
	}
}

func TestHolsteinPatternMatchesValues(t *testing.T) {
	h := tinyHolstein(t, ElectronsContiguous)
	rows, _ := h.Dims()
	var pc []int32
	var vc []int32
	var vv []float64
	for i := 0; i < rows; i += 7 {
		pc = h.AppendRow(i, pc[:0])
		vc, vv = h.AppendRowValues(i, vc[:0], vv[:0])
		if len(pc) != len(vc) || len(vc) != len(vv) {
			t.Fatalf("row %d: pattern %d cols, values %d cols", i, len(pc), len(vc))
		}
		for k := range pc {
			if pc[k] != vc[k] {
				t.Fatalf("row %d: pattern col %d != value col %d", i, pc[k], vc[k])
			}
		}
	}
}

func TestHolsteinNnzrReasonable(t *testing.T) {
	// The scaled-down matrix keeps the paper's order of magnitude Nnzr≈15.
	h := tinyHolstein(t, PhononsContiguous)
	s := matrix.ComputeStats(h)
	if s.NnzRowAvg < 5 || s.NnzRowAvg > 25 {
		t.Errorf("Nnzr = %.2f, outside plausible band", s.NnzRowAvg)
	}
	if s.Diagonal != int64(s.Rows) {
		t.Errorf("missing diagonal entries: %d of %d", s.Diagonal, s.Rows)
	}
}

func TestHolsteinGroundStateEnergySanity(t *testing.T) {
	// Power iteration on (shift·I - H) converges to the lowest eigenpair of
	// the tiny model; check the Rayleigh quotient is below the minimum
	// diagonal (variational bound says E0 ≤ min diag for this model).
	h := tinyHolstein(t, PhononsContiguous)
	a := matrix.Materialize(h)
	n := a.NumRows
	shift := 50.0
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n))
	}
	for iter := 0; iter < 400; iter++ {
		a.MulVec(y, x)
		for i := range y {
			y[i] = shift*x[i] - y[i]
		}
		var norm float64
		for _, v := range y {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		for i := range x {
			x[i] = y[i] / norm
		}
	}
	a.MulVec(y, x)
	var rq float64
	for i := range x {
		rq += x[i] * y[i]
	}
	minDiag := math.Inf(1)
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			if int(c) == i && vals[k] < minDiag {
				minDiag = vals[k]
			}
		}
	}
	if rq >= minDiag {
		t.Errorf("ground state energy %.6f not below min diagonal %.6f", rq, minDiag)
	}
}

func TestHolsteinInvalidConfigs(t *testing.T) {
	bad := []HolsteinConfig{
		{Sites: 1, NumUp: 0, NumDown: 0, MaxPhonons: 1},
		{Sites: 4, NumUp: 5, NumDown: 0, MaxPhonons: 1},
		{Sites: 4, NumUp: 1, NumDown: 1, MaxPhonons: -1},
	}
	for i, cfg := range bad {
		if _, err := NewHolstein(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
