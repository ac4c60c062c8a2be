package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/formats"
)

// The one-sweep CG update leaves x and r, and returns rᵀr, bit for bit as
// axpy, axpy, dot applied in sequence do — on every tail length of the
// four-way unrolled loop and on a rank's share of Poisson Small.
func TestCGUpdateEqualsAxpyAxpyDot(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 23328} {
		p, ap := make([]float64, n), make([]float64, n)
		x, r := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			p[i], ap[i], x[i], r[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		alpha := rng.NormFloat64()
		wantX, wantR := append([]float64(nil), x...), append([]float64(nil), r...)
		axpy(alpha, p, wantX)
		axpy(-alpha, ap, wantR)
		wantRR := dot(wantR, wantR)

		gotRR := cgUpdate(alpha, p, ap, x, r)
		if math.Float64bits(gotRR) != math.Float64bits(wantRR) {
			t.Errorf("n=%d: rᵀr = %x, dot gives %x", n, math.Float64bits(gotRR), math.Float64bits(wantRR))
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(x[i]) != math.Float64bits(wantX[i]) || math.Float64bits(r[i]) != math.Float64bits(wantR[i]) {
				t.Fatalf("n=%d: element %d differs from the axpy sequence", n, i)
			}
		}
	}
}

// dot's four partial sums hold the elements i ≡ 0..3 (mod 4) and are
// combined as (s0+s1)+(s2+s3), whatever the length.
func TestDotSummationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 13; n++ {
		x, y := make([]float64, n), make([]float64, n)
		var s [4]float64
		for i := 0; i < n; i++ {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
			s[i%4] += x[i] * y[i]
		}
		if got, want := dot(x, y), (s[0]+s[1])+(s[2]+s[3]); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("n=%d: dot = %x, want %x", n, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// DistCG iterates in the worker's own X and Y and leaves its last search
// direction there. Cluster.Mul fills X before it steps, so a
// multiplication after a solve returns the bits it returned before it —
// in every mode, on CSR and on a converted session.
func TestMulAfterDistCGReturnsTheSameBits(t *testing.T) {
	for _, sell := range []bool{false, true} {
		a, cl := poissonCluster(t, 3, core.WithThreads(2))
		if sell {
			if err := cl.Convert(formats.SELLBuilder{C: 32, Sigma: 256}); err != nil {
				t.Fatal(err)
			}
		}
		n := a.NumRows
		rng := rand.New(rand.NewSource(8))
		v, b := make([]float64, n), make([]float64, n)
		for i := range v {
			v[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		for _, mode := range core.Modes {
			t.Run(fmt.Sprintf("sell=%v/%v", sell, mode), func(t *testing.T) {
				if err := cl.SetMode(mode); err != nil {
					t.Fatal(err)
				}
				before, after := make([]float64, n), make([]float64, n)
				if err := cl.Mul(before, v, 2); err != nil {
					t.Fatal(err)
				}
				if _, err := DistCG(cl, b, make([]float64, n), 1e-8, 40); err != nil {
					t.Fatal(err)
				}
				if err := cl.Mul(after, v, 2); err != nil {
					t.Fatal(err)
				}
				for i := range before {
					if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
						t.Fatalf("row %d: %x before the solve, %x after it", i, math.Float64bits(before[i]), math.Float64bits(after[i]))
					}
				}
			})
		}
	}
}
