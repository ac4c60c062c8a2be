package genmat

import (
	"fmt"
	"math"

	"repro/internal/matrix"
)

// Ordering selects how the tensor-product basis |electron⟩⊗|phonon⟩ is
// numbered, producing the paper's two sparsity patterns (Fig. 1a/1b).
//
// Naming follows the paper: in "HMEp" the capital E marks the electronic
// index as the slowly varying (outer, block) index, so the *phononic* basis
// elements are numbered contiguously (Fig. 1a); in "HMeP" the phononic
// index is outer and the *electronic* elements are contiguous (Fig. 1b).
// HMeP is the study's reference problem (κ ≈ 2.5); HMEp has the worse RHS
// locality (κ ≈ 3.79, ≈ 50% more excess B(:) traffic, ≈ 10% slower).
type Ordering int

const (
	// ElectronsContiguous numbers electronic basis elements contiguously:
	// global index = p·Ne + e. This is the paper's HMeP pattern (Fig. 1b).
	ElectronsContiguous Ordering = iota
	// PhononsContiguous numbers phononic basis elements contiguously:
	// global index = e·Np + p. This is the paper's HMEp pattern (Fig. 1a).
	PhononsContiguous
)

func (o Ordering) String() string {
	switch o {
	case ElectronsContiguous:
		return "HMeP"
	case PhononsContiguous:
		return "HMEp"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// HMeP is the paper's reference ordering (electronic elements contiguous).
const HMeP = ElectronsContiguous

// HMEp is the ordering with worse RHS locality (phononic elements contiguous).
const HMEp = PhononsContiguous

// HolsteinConfig describes a Holstein–Hubbard Hamiltonian
//
//	H = -t Σ_{⟨i,j⟩σ} c†_{iσ}c_{jσ} + U Σ_i n_{i↑}n_{i↓}
//	    + ω₀ Σ_k b†_k b_k - g ω₀ Σ_k λ_k(n) (b†_k + b_k)
//
// on a periodic ring, with phonons expressed in the Sites-1 non-uniform real
// normal modes (the uniform mode couples only to the conserved total
// electron number and is dropped, exactly as in exact-diagonalization
// practice) and a cutoff on the total phonon number.
type HolsteinConfig struct {
	Sites   int // lattice sites on the ring
	NumUp   int // spin-up electrons
	NumDown int // spin-down electrons

	MaxPhonons int // cutoff on the total phonon quantum number

	T     float64 // hopping amplitude t
	U     float64 // on-site Hubbard repulsion
	Omega float64 // phonon frequency ω₀
	G     float64 // dimensionless electron-phonon coupling g

	Ordering Ordering
}

// PaperConfig returns the full-scale configuration of the paper:
// six electrons on six sites (electronic dimension 400) coupled to
// 15 phonons (phononic dimension 15504), N = 6,201,600.
func PaperConfig(o Ordering) HolsteinConfig {
	return HolsteinConfig{
		Sites: 6, NumUp: 3, NumDown: 3,
		MaxPhonons: 15,
		T:          1, U: 4, Omega: 1, G: 1,
		Ordering: o,
	}
}

// SmallConfig returns a reduced configuration (N = 50,400) with the same
// lattice and tensor structure as the paper's matrix, sized for unit tests
// and host-scale benchmarks.
func SmallConfig(o Ordering) HolsteinConfig {
	c := PaperConfig(o)
	c.MaxPhonons = 4 // phononic dimension C(9,5) = 126 → N = 50,400
	return c
}

// Holstein is a Holstein–Hubbard Hamiltonian exposed as a streaming
// matrix.ValueSource: rows are generated on demand and never stored, which
// lets the full-scale N = 6.2M matrix be consumed structurally without
// materializing its ~1.5 GB of CSR data.
//
// The matrix is real symmetric. Row generation is safe for concurrent use.
type Holstein struct {
	cfg  HolsteinConfig
	up   *FermionBasis
	down *FermionBasis
	fock *FockSpace

	ne int   // electronic dimension = up.dim()*down.dim()
	np int64 // phononic dimension

	// coupling[k][e] = λ_k for electron state e and mode k:
	// Σ_i φ_k(i)·n_i(e), premultiplied by -G·Omega.
	coupling [][]float64
	// diagEl[e] = U · (double occupancies in e)
	diagEl []float64
	// sqrtTab[n] = √n for phonon ladder amplitudes.
	sqrtTab []float64
}

// NewHolstein validates the configuration and precomputes the electronic
// bases, mode shapes and coupling tables.
func NewHolstein(cfg HolsteinConfig) (*Holstein, error) {
	if cfg.Sites < 2 {
		return nil, fmt.Errorf("genmat: Holstein needs ≥ 2 sites, got %d", cfg.Sites)
	}
	up, err := newFermionBasis(cfg.Sites, cfg.NumUp)
	if err != nil {
		return nil, err
	}
	down, err := newFermionBasis(cfg.Sites, cfg.NumDown)
	if err != nil {
		return nil, err
	}
	fock, err := newFockSpace(cfg.Sites-1, cfg.MaxPhonons)
	if err != nil {
		return nil, err
	}
	h := &Holstein{
		cfg: cfg, up: up, down: down, fock: fock,
		ne: up.dim() * down.dim(),
		np: fock.dim(),
	}
	// Column indices are int32 throughout the library (Eq. 1 counts 4-byte
	// index traffic), so the global dimension must fit in int32.
	if int64(h.ne)*h.np > math.MaxInt32 {
		return nil, fmt.Errorf("genmat: Holstein dimension %d exceeds int32 indexing", int64(h.ne)*h.np)
	}

	modes := normalModes(cfg.Sites)
	h.coupling = make([][]float64, len(modes))
	h.diagEl = make([]float64, h.ne)
	for e := 0; e < h.ne; e++ {
		iu, id := e/down.dim(), e%down.dim()
		var docc float64
		for i := 0; i < cfg.Sites; i++ {
			if up.occupied(iu, i) && down.occupied(id, i) {
				docc++
			}
		}
		h.diagEl[e] = cfg.U * docc
	}
	for k, phi := range modes {
		h.coupling[k] = make([]float64, h.ne)
		for e := 0; e < h.ne; e++ {
			iu, id := e/down.dim(), e%down.dim()
			var lam float64
			for i := 0; i < cfg.Sites; i++ {
				var n float64
				if up.occupied(iu, i) {
					n++
				}
				if down.occupied(id, i) {
					n++
				}
				lam += phi[i] * n
			}
			h.coupling[k][e] = -cfg.G * cfg.Omega * lam
		}
	}
	h.sqrtTab = make([]float64, cfg.MaxPhonons+2)
	for n := range h.sqrtTab {
		h.sqrtTab[n] = math.Sqrt(float64(n))
	}
	return h, nil
}

// normalModes returns the Sites-1 orthonormal real normal modes of a ring,
// excluding the uniform (q=0) mode: cosine and sine running waves plus, for
// even site counts, the alternating mode.
func normalModes(sites int) [][]float64 {
	var modes [][]float64
	norm := math.Sqrt(2 / float64(sites))
	for q := 1; 2*q < sites; q++ {
		cosM := make([]float64, sites)
		sinM := make([]float64, sites)
		for i := 0; i < sites; i++ {
			th := 2 * math.Pi * float64(q) * float64(i) / float64(sites)
			cosM[i] = norm * math.Cos(th)
			sinM[i] = norm * math.Sin(th)
		}
		modes = append(modes, cosM, sinM)
	}
	if sites%2 == 0 {
		alt := make([]float64, sites)
		for i := 0; i < sites; i++ {
			alt[i] = math.Pow(-1, float64(i)) / math.Sqrt(float64(sites))
		}
		modes = append(modes, alt)
	}
	return modes
}

// ElectronDim returns the dimension of the electronic subspace.
func (h *Holstein) ElectronDim() int { return h.ne }

// PhononDim returns the dimension of the phononic subspace.
func (h *Holstein) PhononDim() int64 { return h.np }

// Dims implements matrix.PatternSource.
func (h *Holstein) Dims() (rows, cols int) {
	n := int(int64(h.ne) * h.np)
	return n, n
}

// decode splits a global row index into (electron state, phonon rank)
// according to the configured ordering.
func (h *Holstein) decode(r int) (e int, p int64) {
	switch h.cfg.Ordering {
	case PhononsContiguous:
		return r / int(h.np), int64(r % int(h.np))
	default: // ElectronsContiguous
		return r % h.ne, int64(r / h.ne)
	}
}

// encode is the inverse of decode.
func (h *Holstein) encode(e int, p int64) int32 {
	switch h.cfg.Ordering {
	case PhononsContiguous:
		return int32(int64(e)*h.np + p)
	default:
		return int32(p*int64(h.ne) + int64(e))
	}
}

// AppendRow implements matrix.PatternSource.
func (h *Holstein) AppendRow(i int, dst []int32) []int32 {
	cols, _ := h.row(i, dst, nil, false)
	return cols
}

// AppendRowValues implements matrix.ValueSource.
func (h *Holstein) AppendRowValues(i int, cols []int32, vals []float64) ([]int32, []float64) {
	return h.row(i, cols, vals, true)
}

// row generates one Hamiltonian row. The phonon occupation vector lives in a
// fixed-size stack array so concurrent calls do not share state.
func (h *Holstein) row(r int, cols []int32, vals []float64, withVals bool) ([]int32, []float64) {
	e, p := h.decode(r)
	var mArr [32]int
	m := mArr[:h.fock.Modes]
	h.fock.unrank(p, m)
	total := sumQuanta(m)

	// Diagonal: Hubbard repulsion + phonon energy.
	cols = append(cols, int32(r))
	if withVals {
		vals = append(vals, h.diagEl[e]+h.cfg.Omega*float64(total))
	}

	// Hopping: off-diagonal in the electronic index, diagonal in phonons.
	iu, id := e/h.down.dim(), e%h.down.dim()
	for _, hop := range h.up.hops[iu] {
		e2 := int(hop.To)*h.down.dim() + id
		cols = append(cols, h.encode(e2, p))
		if withVals {
			vals = append(vals, -h.cfg.T*float64(hop.Sign))
		}
	}
	for _, hop := range h.down.hops[id] {
		e2 := iu*h.down.dim() + int(hop.To)
		cols = append(cols, h.encode(e2, p))
		if withVals {
			vals = append(vals, -h.cfg.T*float64(hop.Sign))
		}
	}

	// Electron-phonon coupling: diagonal in the electronic index,
	// one quantum up/down in a single mode.
	for k := 0; k < h.fock.Modes; k++ {
		lam := h.coupling[k][e]
		if lam == 0 {
			continue
		}
		if m[k] > 0 { // lowering: b_k
			m[k]--
			cols = append(cols, h.encode(e, h.fock.rank(m)))
			m[k]++
			if withVals {
				vals = append(vals, lam*h.sqrtTab[m[k]])
			}
		}
		if total < h.cfg.MaxPhonons { // raising: b†_k
			m[k]++
			cols = append(cols, h.encode(e, h.fock.rank(m)))
			m[k]--
			if withVals {
				vals = append(vals, lam*h.sqrtTab[m[k]+1])
			}
		}
	}
	return cols, vals
}

var _ matrix.ValueSource = (*Holstein)(nil)
