// Package genmat generates the study's test matrices: the Holstein–Hubbard
// exact-diagonalization Hamiltonian (the paper's HMEp/HMeP matrices), an
// sAMG-like Poisson operator (substitute for the proprietary car-geometry
// matrix), and random matrices for testing.
package genmat

import "fmt"

// FockSpace enumerates bosonic occupation vectors m ∈ ℕ^Modes with
// Σ m ≤ MaxTotal, in lexicographic order. This is the phonon basis of the
// Holstein–Hubbard Hamiltonian: the paper's configuration (15 phonons on a
// six-site lattice) corresponds to 5 coupled normal modes (the uniform mode
// decouples for a fixed electron number) and MaxTotal = 15, giving
// dimension C(20,5) = 15504 and the paper's N = 400 × 15504 = 6,201,600.
type FockSpace struct {
	Modes    int
	MaxTotal int
	// binom[k][b] = C(b+k, k) = number of occupation vectors of length k
	// with total ≤ b, for k ≤ Modes, b ≤ MaxTotal.
	binom [][]int64
}

// newFockSpace builds the enumeration tables for the given mode count and
// total-quantum cutoff.
func newFockSpace(modes, maxTotal int) (*FockSpace, error) {
	if modes < 0 || maxTotal < 0 {
		return nil, fmt.Errorf("genmat: invalid Fock space (%d modes, max %d)", modes, maxTotal)
	}
	f := &FockSpace{Modes: modes, MaxTotal: maxTotal}
	f.binom = make([][]int64, modes+1)
	for k := 0; k <= modes; k++ {
		f.binom[k] = make([]int64, maxTotal+1)
		for b := 0; b <= maxTotal; b++ {
			if k == 0 {
				f.binom[k][b] = 1 // only the empty vector
				continue
			}
			// C(b+k,k) = C(b-1+k,k) + C(b+k-1,k-1)
			v := f.binom[k-1][b]
			if b > 0 {
				v += f.binom[k][b-1]
			}
			f.binom[k][b] = v
			if v < 0 {
				return nil, fmt.Errorf("genmat: Fock dimension overflow at modes=%d max=%d", modes, maxTotal)
			}
		}
	}
	return f, nil
}

// dim returns the number of basis states, C(MaxTotal+Modes, Modes).
func (f *FockSpace) dim() int64 {
	return f.binom[f.Modes][f.MaxTotal]
}

// countLE returns the number of occupation vectors with k modes and total ≤ b.
func (f *FockSpace) countLE(k, b int) int64 {
	if b < 0 {
		return 0
	}
	return f.binom[k][b]
}

// rank returns the lexicographic index of occupation vector m.
// It panics if m is outside the space.
func (f *FockSpace) rank(m []int) int64 {
	if len(m) != f.Modes {
		panic(fmt.Sprintf("genmat: Rank on vector of length %d, want %d", len(m), f.Modes))
	}
	var r int64
	budget := f.MaxTotal
	for j, mj := range m {
		if mj < 0 || mj > budget {
			panic(fmt.Sprintf("genmat: occupation %v outside Fock space (mode %d)", m, j))
		}
		// States with smaller value at position j, any valid suffix.
		rest := f.Modes - j - 1
		for v := 0; v < mj; v++ {
			r += f.countLE(rest, budget-v)
		}
		budget -= mj
	}
	return r
}

// unrank writes the occupation vector with lexicographic index r into m,
// which must have length Modes. It panics if r is out of range.
func (f *FockSpace) unrank(r int64, m []int) {
	if len(m) != f.Modes {
		panic(fmt.Sprintf("genmat: Unrank into vector of length %d, want %d", len(m), f.Modes))
	}
	if r < 0 || r >= f.dim() {
		panic(fmt.Sprintf("genmat: Unrank index %d outside [0,%d)", r, f.dim()))
	}
	budget := f.MaxTotal
	for j := 0; j < f.Modes; j++ {
		rest := f.Modes - j - 1
		v := 0
		for {
			c := f.countLE(rest, budget-v)
			if r < c {
				break
			}
			r -= c
			v++
		}
		m[j] = v
		budget -= v
	}
}

// sumQuanta returns the total quantum number Σ m.
func sumQuanta(m []int) int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}
