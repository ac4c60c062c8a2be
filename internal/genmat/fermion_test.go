package genmat

import (
	"math/bits"
	"testing"
)

func TestFermionBasisDims(t *testing.T) {
	cases := []struct {
		sites, n, want int
	}{
		{6, 3, 20}, // the paper: C(6,3) = 20 per spin, 20² = 400 total
		{4, 2, 6},
		{2, 1, 2},
		{5, 0, 1},
		{5, 5, 1},
	}
	for _, c := range cases {
		b, err := newFermionBasis(c.sites, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if b.dim() != c.want {
			t.Errorf("Dim(sites=%d,n=%d) = %d, want %d", c.sites, c.n, b.dim(), c.want)
		}
	}
}

func TestFermionBasisInvalid(t *testing.T) {
	if _, err := newFermionBasis(0, 0); err == nil {
		t.Error("0 sites accepted")
	}
	if _, err := newFermionBasis(4, 5); err == nil {
		t.Error("too many fermions accepted")
	}
	if _, err := newFermionBasis(31, 1); err == nil {
		t.Error("oversized lattice accepted")
	}
}

func TestFermionIndexRoundTrip(t *testing.T) {
	b, err := newFermionBasis(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, mask := range b.Masks {
		if got := indexOf(b, mask); got != int32(i) {
			t.Errorf("Index(Masks[%d]) = %d", i, got)
		}
		if bits.OnesCount32(mask) != 3 {
			t.Errorf("mask %b has wrong particle number", mask)
		}
	}
	if indexOf(b, 0b101100) == -1 {
		t.Error("valid mask rejected")
	}
	if indexOf(b, 0b1) != -1 {
		t.Error("wrong particle number accepted")
	}
}

func TestHopsPreserveParticleNumber(t *testing.T) {
	b, err := newFermionBasis(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for s := range b.Masks {
		for _, h := range b.hops[s] {
			if bits.OnesCount32(b.Masks[h.To]) != 3 {
				t.Fatalf("hop from %d to %d changes particle number", s, h.To)
			}
			if h.Sign != 1 && h.Sign != -1 {
				t.Fatalf("hop sign %d", h.Sign)
			}
		}
	}
}

// TestHopsHermitian verifies that the hopping matrix built from the hop
// lists is symmetric: each hop s→s' with sign σ has a partner s'→s with the
// same sign (real Hamiltonian).
func TestHopsHermitian(t *testing.T) {
	for _, cfg := range []struct{ sites, n int }{{6, 3}, {5, 2}, {4, 2}, {2, 1}} {
		b, err := newFermionBasis(cfg.sites, cfg.n)
		if err != nil {
			t.Fatal(err)
		}
		// Accumulate the dense hop matrix.
		d := make([][]int, b.dim())
		for i := range d {
			d[i] = make([]int, b.dim())
		}
		for s := range b.Masks {
			for _, h := range b.hops[s] {
				d[s][h.To] += int(h.Sign)
			}
		}
		for i := range d {
			for j := range d[i] {
				if d[i][j] != d[j][i] {
					t.Fatalf("sites=%d n=%d: hop matrix asymmetric at (%d,%d): %d vs %d",
						cfg.sites, cfg.n, i, j, d[i][j], d[j][i])
				}
			}
		}
	}
}

func TestHopSignKnownCase(t *testing.T) {
	// Three fermions on a 4-ring. State |1110⟩ (sites 0,1,2 occupied).
	// Hop 2→3: c†_3 c_2 crosses no occupied sites between 2 and 3 → +1 after
	// the two Jordan-Wigner strings: c_2 gives (-1)^2, c†_3 gives (-1)^2.
	mask := uint32(0b0111)
	if got := hopSign(mask, 2, 3); got != 1 {
		t.Errorf("hopSign(0111, 2→3) = %d, want +1", got)
	}
	// Wrap hop 3→0 from |1101⟩ (sites 0,2,3): c_3 crosses sites 0,2 → (-1)²;
	// c†_0 crosses nothing → total +1.
	if got := hopSign(0b1101, 3, 1); got != -1 {
		// c_3: occupied below 3 in 1101 = sites 0,2 → +1. c†_1: occupied
		// below 1 in 0101 = site 0 → -1. Total -1.
		t.Errorf("hopSign(1101, 3→1) = %d, want -1", got)
	}
}

func TestHopCountsTwoSites(t *testing.T) {
	// One fermion on two sites: exactly one bond, two directed hops total,
	// one per state.
	b, err := newFermionBasis(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for s := range b.Masks {
		if len(b.hops[s]) != 1 {
			t.Errorf("state %d has %d hops, want 1 (single bond)", s, len(b.hops[s]))
		}
	}
}

func TestOccupied(t *testing.T) {
	b, err := newFermionBasis(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := int(indexOf(b, 0b0101))
	for i, want := range []bool{true, false, true, false} {
		if b.occupied(s, i) != want {
			t.Errorf("Occupied(%d, %d) = %v, want %v", s, i, !want, want)
		}
	}
}

// indexOf returns the basis index of an occupation mask, or -1 if the mask
// has the wrong particle number.
func indexOf(b *FermionBasis, mask uint32) int32 {
	if i, ok := b.index[mask]; ok {
		return i
	}
	return -1
}
