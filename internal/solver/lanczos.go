package solver

import (
	"fmt"
	"math"
	"math/rand"
)

// LanczosResult reports extremal Ritz values after m Lanczos steps.
type LanczosResult struct {
	// Eigenvalues are the Ritz values in ascending order (length ≤ m).
	Eigenvalues []float64
	// Steps is the number of Lanczos iterations actually performed
	// (early breakdown terminates the recursion).
	Steps int
	// MVMs counts matrix-vector multiplications, the paper's dominant cost.
	MVMs int
}

// Lanczos runs m steps of the symmetric Lanczos iteration with full
// reorthogonalization (adequate at the moderate m the examples use) and
// returns the Ritz values. The operator must be symmetric.
func Lanczos(op Operator, m int, seed int64) (LanczosResult, error) {
	n := op.Dim()
	if n == 0 {
		return LanczosResult{}, fmt.Errorf("solver: Lanczos on empty operator")
	}
	if m < 1 {
		return LanczosResult{}, fmt.Errorf("solver: Lanczos needs m ≥ 1, got %d", m)
	}
	if m > n {
		m = n
	}
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	scale(1/norm2(v), v)

	var alphas, betas []float64
	basis := [][]float64{append([]float64(nil), v...)}
	w := make([]float64, n)
	res := LanczosResult{}

	for j := 0; j < m; j++ {
		op.Apply(w, basis[j])
		res.MVMs++
		alpha := dot(basis[j], w)
		alphas = append(alphas, alpha)
		axpy(-alpha, basis[j], w)
		if j > 0 {
			axpy(-betas[j-1], basis[j-1], w)
		}
		// Full reorthogonalization against the whole basis.
		for _, u := range basis {
			axpy(-dot(u, w), u, w)
		}
		beta := norm2(w)
		res.Steps = j + 1
		if beta < 1e-12 || j == m-1 {
			break
		}
		betas = append(betas, beta)
		next := append([]float64(nil), w...)
		scale(1/beta, next)
		basis = append(basis, next)
	}

	eigs, err := symTridiagEigenvalues(alphas, betas)
	if err != nil {
		return res, err
	}
	res.Eigenvalues = eigs
	return res, nil
}

// GroundState returns the lowest Ritz value after m Lanczos steps — the
// quantity the exact-diagonalization application computes (§1.3.1).
func GroundState(op Operator, m int, seed int64) (float64, error) {
	r, err := Lanczos(op, m, seed)
	if err != nil {
		return 0, err
	}
	if len(r.Eigenvalues) == 0 {
		return 0, fmt.Errorf("solver: Lanczos produced no Ritz values")
	}
	return r.Eigenvalues[0], nil
}

// symTridiagEigenvalues returns the eigenvalues of the symmetric
// tridiagonal matrix with the given diagonal and off-diagonal, ascending.
// It implements the implicit QL iteration with Wilkinson shifts (tql1).
func symTridiagEigenvalues(diag, off []float64) ([]float64, error) {
	n := len(diag)
	if n == 0 {
		return nil, nil
	}
	if len(off) < n-1 {
		return nil, fmt.Errorf("solver: off-diagonal length %d < %d", len(off), n-1)
	}
	d := append([]float64(nil), diag...)
	e := make([]float64, n)
	copy(e, off[:n-1])

	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			if iter > 50 {
				return nil, fmt.Errorf("solver: QL iteration did not converge at row %d", l)
			}
			// Find a small subdiagonal element.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= 1e-15*dd {
					break
				}
			}
			if m == l {
				break
			}
			// Wilkinson shift.
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	sortFloats(d)
	return d, nil
}

func sortFloats(x []float64) {
	// Insertion sort: n is small (Lanczos subspace size).
	for i := 1; i < len(x); i++ {
		v := x[i]
		j := i - 1
		for j >= 0 && x[j] > v {
			x[j+1] = x[j]
			j--
		}
		x[j+1] = v
	}
}
