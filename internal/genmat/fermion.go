package genmat

import (
	"fmt"
	"math/bits"
)

// FermionBasis enumerates the occupation-number basis of n spinless fermions
// on a ring of `sites` sites and precomputes all nearest-neighbour hopping
// matrix elements with the correct Jordan–Wigner signs. One basis per spin
// species; the Hubbard basis is the tensor product of an up and a down copy.
//
// The paper's electronic subspace (six electrons on six sites, dimension 400)
// is FermionBasis{Sites: 6, N: 3}² = 20² = 400.
type FermionBasis struct {
	Sites, N int
	// Masks lists the occupation bitmasks in ascending order; the position
	// in this slice is the basis index.
	Masks []uint32
	index map[uint32]int32
	// hops[s] lists the states reachable from state s by one
	// nearest-neighbour hop, with amplitudes ±1 (the fermionic sign).
	hops [][]Hop
}

// Hop is a single hopping matrix element <to| c†_b c_a |from> = Sign.
type Hop struct {
	To   int32
	Sign int8
}

// newFermionBasis enumerates the basis and hop table for n fermions on a
// periodic ring.
func newFermionBasis(sites, n int) (*FermionBasis, error) {
	if sites < 1 || sites > 30 || n < 0 || n > sites {
		return nil, fmt.Errorf("genmat: invalid fermion basis (sites=%d, n=%d)", sites, n)
	}
	b := &FermionBasis{Sites: sites, N: n, index: make(map[uint32]int32)}
	for mask := uint32(0); mask < 1<<sites; mask++ {
		if bits.OnesCount32(mask) == n {
			b.index[mask] = int32(len(b.Masks))
			b.Masks = append(b.Masks, mask)
		}
	}
	b.hops = make([][]Hop, len(b.Masks))
	// Ring bonds (a, a+1 mod sites). On a two-site ring the wrap bond (1,0)
	// coincides with bond (0,1), so it is skipped to avoid double counting.
	bonds := sites
	if sites == 2 {
		bonds = 1
	}
	if sites == 1 {
		bonds = 0
	}
	for s, mask := range b.Masks {
		for a := 0; a < bonds; a++ {
			bSite := (a + 1) % sites
			for _, pair := range [2][2]int{{a, bSite}, {bSite, a}} {
				from, to := pair[0], pair[1]
				if mask&(1<<from) == 0 || mask&(1<<to) != 0 {
					continue
				}
				newMask := mask&^(1<<from) | 1<<to
				sign := hopSign(mask, from, to)
				b.hops[s] = append(b.hops[s], Hop{To: b.index[newMask], Sign: sign})
			}
		}
	}
	return b, nil
}

// hopSign computes the fermionic sign of c†_to c_from acting on mask:
// the parity of the number of occupied sites the operator string crosses.
func hopSign(mask uint32, from, to int) int8 {
	// sign(c_from): (-1)^(occupied sites below from)
	s := bits.OnesCount32(mask & (1<<from - 1))
	// After annihilation:
	m2 := mask &^ (1 << from)
	// sign(c†_to): (-1)^(occupied sites below to)
	s += bits.OnesCount32(m2 & (1<<to - 1))
	if s%2 == 0 {
		return 1
	}
	return -1
}

// dim returns the number of basis states, C(Sites, N).
func (b *FermionBasis) dim() int { return len(b.Masks) }

// occupied reports whether site i is occupied in basis state s.
func (b *FermionBasis) occupied(s, i int) bool {
	return b.Masks[s]&(1<<i) != 0
}
