// Package solver implements the iterative algorithms that motivate the
// paper's spMVM kernel (§1, §1.3.1): Lanczos for extremal eigenvalues of
// the Hamiltonian matrices, conjugate gradients for the Poisson systems,
// and the kernel polynomial method (Chebyshev expansion) for spectral
// densities. All algorithms run against an abstract operator, so the same
// code executes on the serial kernel, the node-parallel kernel, or the
// distributed hybrid kernels.
package solver

import (
	"math"

	"repro/internal/matrix"
	"repro/internal/spmv"
)

// Operator is a linear operator y = A·x on vectors of fixed dimension.
type Operator interface {
	Dim() int
	Apply(y, x []float64)
}

// CSROperator applies a CSR matrix with the serial kernel.
type CSROperator struct{ A *matrix.CSR }

// Dim returns the operator dimension.
func (o CSROperator) Dim() int { return o.A.NumRows }

// Apply computes y = A·x.
func (o CSROperator) Apply(y, x []float64) { o.A.MulVec(y, x) }

// TeamOperator applies a sparse matrix — in any storage format — with the
// node-parallel kernel on a worker team (the paper's OpenMP-parallel
// baseline).
type TeamOperator struct {
	P    *spmv.Parallel
	Team *spmv.Team
}

// NewTeamOperator chunks a CSR matrix for the team.
func NewTeamOperator(a *matrix.CSR, team *spmv.Team) *TeamOperator {
	return &TeamOperator{P: spmv.NewParallel(a, team.Size()), Team: team}
}

// Dim returns the operator dimension.
func (o *TeamOperator) Dim() int { return o.P.Rows() }

// Apply computes y = A·x on the team.
func (o *TeamOperator) Apply(y, x []float64) { o.P.MulVec(o.Team, y, x) }

// dot returns xᵀy. It keeps four partial sums — element i goes into sum
// i mod 4 — and combines them as (s0+s1)+(s2+s3): one chain of dependent
// additions runs at the adder's latency, four run at its throughput.
// Every dot product in this package goes through here (or through
// cgUpdate, which accumulates in the same order), so solves stay
// bit-identical across transports, modes and restarts.
func dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < len(x); i++ { // at most three, into sums 0, 1, 2
		switch v := x[i] * y[i]; i & 3 {
		case 0:
			s0 += v
		case 1:
			s1 += v
		default:
			s2 += v
		}
	}
	return (s0 + s1) + (s2 + s3)
}

// cgUpdate is the vector update of one CG iteration in a single sweep:
// x += a·p, r −= a·ap, and the return value is rᵀr of the updated r —
// bit for bit what axpy(a, p, x), axpy(-a, ap, r), dot(r, r) produce, with
// each vector read once instead of r three times.
func cgUpdate(a float64, p, ap, x, r []float64) float64 {
	n := len(r)
	p, ap, x = p[:n], ap[:n], x[:n]
	na := -a
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		x[i] += a * p[i]
		x[i+1] += a * p[i+1]
		x[i+2] += a * p[i+2]
		x[i+3] += a * p[i+3]
		r0 := r[i] + na*ap[i]
		r1 := r[i+1] + na*ap[i+1]
		r2 := r[i+2] + na*ap[i+2]
		r3 := r[i+3] + na*ap[i+3]
		r[i], r[i+1], r[i+2], r[i+3] = r0, r1, r2, r3
		s0 += r0 * r0
		s1 += r1 * r1
		s2 += r2 * r2
		s3 += r3 * r3
	}
	for ; i < n; i++ {
		x[i] += a * p[i]
		r[i] += na * ap[i]
		switch v := r[i] * r[i]; i & 3 {
		case 0:
			s0 += v
		case 1:
			s1 += v
		default:
			s2 += v
		}
	}
	return (s0 + s1) + (s2 + s3)
}

// norm2 returns ‖x‖₂.
func norm2(x []float64) float64 {
	return math.Sqrt(dot(x, x))
}

// axpy computes y += a·x.
func axpy(a float64, x, y []float64) {
	for i := range x {
		y[i] += a * x[i]
	}
}

// scale multiplies x by a in place.
func scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}
