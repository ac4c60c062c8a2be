package solver

import "fmt"

// CGResult reports the outcome of a conjugate-gradient solve.
type CGResult struct {
	Iterations int
	Residual   float64 // final ‖b - Ax‖₂ / ‖b‖₂
	Converged  bool
	MVMs       int
	// History holds the relative residual after each iteration.
	History []float64
}

// CG solves A·x = b for symmetric positive definite A, starting from the
// given x (commonly zero), until the relative residual drops below tol or
// maxIter iterations elapse. This is the solver setting of the paper's
// sAMG test case (§1.3.1): Poisson systems where spMVM dominates run time.
func CG(op Operator, b, x []float64, tol float64, maxIter int) (CGResult, error) {
	n := op.Dim()
	if len(b) != n || len(x) != n {
		return CGResult{}, fmt.Errorf("solver: CG dimension mismatch: op %d, b %d, x %d", n, len(b), len(x))
	}
	if tol <= 0 || maxIter < 1 {
		return CGResult{}, fmt.Errorf("solver: CG needs tol > 0 and maxIter ≥ 1")
	}
	bNorm := Norm2(b)
	if bNorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return CGResult{Converged: true}, nil
	}

	r := make([]float64, n)
	ap := make([]float64, n)
	res := CGResult{}

	op.Apply(ap, x)
	res.MVMs++
	for i := range r {
		r[i] = b[i] - ap[i]
	}
	p := append([]float64(nil), r...)
	rr := Dot(r, r)

	for k := 0; k < maxIter; k++ {
		op.Apply(ap, p)
		res.MVMs++
		pap := Dot(p, ap)
		if pap <= 0 {
			return res, fmt.Errorf("solver: CG broke down (pᵀAp = %g ≤ 0); operator not SPD?", pap)
		}
		alpha := rr / pap
		rrNew := cgUpdate(alpha, p, ap, x, r)
		res.Iterations = k + 1
		rel := sqrtNonneg(rrNew) / bNorm
		res.History = append(res.History, rel)
		res.Residual = rel
		if rel < tol {
			res.Converged = true
			return res, nil
		}
		beta := rrNew / rr
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rr = rrNew
	}
	return res, nil
}

func sqrtNonneg(v float64) float64 {
	if v < 0 {
		v = 0
	}
	return mathSqrt(v)
}
