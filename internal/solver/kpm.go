package solver

import (
	"fmt"
	"math"
	"math/rand"
)

// KPMResult carries Chebyshev moments and a reconstructed spectral density.
type KPMResult struct {
	// Moments are the Jackson-damped Chebyshev moments μ_n.
	Moments []float64
	// Energies and Density sample the reconstructed density of states on
	// the rescaled interval, mapped back to [Min, Max].
	Energies []float64
	Density  []float64
	MVMs     int
}

// KPMDOS estimates the spectral density of a symmetric operator with the
// kernel polynomial method — the polynomial-expansion application the paper
// cites ([10], [11]) as a major spMVM consumer. The spectrum must lie in
// (min, max); moments Chebyshev moments are computed from `samples` random
// vectors, Jackson-damped, and evaluated at `points` energies.
func KPMDOS(op Operator, min, max float64, moments, samples, points int, seed int64) (KPMResult, error) {
	n := op.Dim()
	if n == 0 || moments < 2 || samples < 1 || points < 2 {
		return KPMResult{}, fmt.Errorf("solver: invalid KPM parameters (dim=%d, moments=%d, samples=%d, points=%d)",
			n, moments, samples, points)
	}
	if min >= max {
		return KPMResult{}, fmt.Errorf("solver: KPM needs min < max, got [%g, %g]", min, max)
	}
	// Rescale H to H̃ with spectrum in (-1, 1): H̃ = (H - b)/a.
	a := (max - min) / (2 - 0.02)
	b := (max + min) / 2

	rng := rand.New(rand.NewSource(seed))
	mu := make([]float64, moments)
	res := KPMResult{}

	r0 := make([]float64, n) // the random probe vector, kept intact
	t0 := make([]float64, n)
	t1 := make([]float64, n)
	t2 := make([]float64, n)
	h := make([]float64, n)
	applyScaled := func(dst, src []float64) {
		op.Apply(h, src)
		res.MVMs++
		for i := range dst {
			dst[i] = (h[i] - b*src[i]) / a
		}
	}

	for s := 0; s < samples; s++ {
		// Random ±1 vector (standard KPM stochastic trace estimator).
		for i := range r0 {
			if rng.Intn(2) == 0 {
				r0[i] = 1
			} else {
				r0[i] = -1
			}
		}
		copy(t0, r0)
		mu[0] += dot(r0, t0)
		applyScaled(t1, t0)
		mu[1] += dot(r0, t1)
		for m := 2; m < moments; m++ {
			// T_m = 2·H̃·T_{m-1} - T_{m-2}
			applyScaled(t2, t1)
			for i := range t2 {
				t2[i] = 2*t2[i] - t0[i]
			}
			mu[m] += dot(r0, t2)
			t0, t1, t2 = t1, t2, t0
		}
	}
	norm := float64(samples) * float64(n)
	for m := range mu {
		mu[m] /= norm
	}

	// Jackson kernel damping.
	M := float64(moments)
	for m := range mu {
		mf := float64(m)
		g := ((M-mf+1)*math.Cos(math.Pi*mf/(M+1)) +
			math.Sin(math.Pi*mf/(M+1))/math.Tan(math.Pi/(M+1))) / (M + 1)
		mu[m] *= g
	}
	res.Moments = mu

	// Reconstruct ρ(x) = (μ₀ + 2 Σ μ_m T_m(x)) / (π √(1-x²)).
	res.Energies = make([]float64, points)
	res.Density = make([]float64, points)
	for k := 0; k < points; k++ {
		x := math.Cos(math.Pi * (float64(k) + 0.5) / float64(points))
		sum := mu[0]
		for m := 1; m < moments; m++ {
			sum += 2 * mu[m] * math.Cos(float64(m)*math.Acos(x))
		}
		res.Energies[k] = a*x + b
		res.Density[k] = sum / (math.Pi * math.Sqrt(1-x*x) * a)
	}
	// Ascending energies for plotting.
	for i, j := 0, points-1; i < j; i, j = i+1, j-1 {
		res.Energies[i], res.Energies[j] = res.Energies[j], res.Energies[i]
		res.Density[i], res.Density[j] = res.Density[j], res.Density[i]
	}
	return res, nil
}
