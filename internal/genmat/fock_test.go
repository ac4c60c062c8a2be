package genmat

import (
	"testing"
	"testing/quick"
)

func TestFockDimPaperScale(t *testing.T) {
	// The paper's phonon subspace: 5 modes, ≤ 15 quanta → C(20,5) = 15504.
	f, err := newFockSpace(5, 15)
	if err != nil {
		t.Fatal(err)
	}
	if f.dim() != 15504 {
		t.Errorf("Dim = %d, want 15504 (the paper's 1.55e4 phonon subspace)", f.dim())
	}
}

func TestFockDimSmallCases(t *testing.T) {
	cases := []struct {
		modes, max int
		want       int64
	}{
		{0, 0, 1}, {0, 5, 1}, {1, 0, 1}, {1, 3, 4}, {2, 2, 6}, {3, 2, 10},
	}
	for _, c := range cases {
		f, err := newFockSpace(c.modes, c.max)
		if err != nil {
			t.Fatal(err)
		}
		if f.dim() != c.want {
			t.Errorf("Dim(modes=%d, max=%d) = %d, want %d", c.modes, c.max, f.dim(), c.want)
		}
	}
}

func TestFockRankUnrankRoundTrip(t *testing.T) {
	f, err := newFockSpace(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	m := make([]int, 4)
	seen := make(map[[4]int]bool)
	for r := int64(0); r < f.dim(); r++ {
		f.unrank(r, m)
		if sumQuanta(m) > 6 {
			t.Fatalf("Unrank(%d) = %v exceeds cutoff", r, m)
		}
		if got := f.rank(m); got != r {
			t.Fatalf("Rank(Unrank(%d)) = %d", r, got)
		}
		var key [4]int
		copy(key[:], m)
		if seen[key] {
			t.Fatalf("duplicate state %v at rank %d", m, r)
		}
		seen[key] = true
	}
	if int64(len(seen)) != f.dim() {
		t.Errorf("enumerated %d states, want %d", len(seen), f.dim())
	}
}

func TestFockUnrankLexicographic(t *testing.T) {
	f, err := newFockSpace(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {2, 0}}
	m := make([]int, 2)
	for r, w := range want {
		f.unrank(int64(r), m)
		if m[0] != w[0] || m[1] != w[1] {
			t.Errorf("Unrank(%d) = %v, want %v", r, m, w)
		}
	}
}

func TestFockPanics(t *testing.T) {
	f, _ := newFockSpace(2, 3)
	mustPanic(t, "short vector", func() { f.rank([]int{1}) })
	mustPanic(t, "over budget", func() { f.rank([]int{2, 2}) })
	mustPanic(t, "negative rank", func() { f.unrank(-1, make([]int, 2)) })
	mustPanic(t, "rank too large", func() { f.unrank(f.dim(), make([]int, 2)) })
}

func TestFockInvalidConfig(t *testing.T) {
	if _, err := newFockSpace(-1, 3); err == nil {
		t.Error("negative modes accepted")
	}
	if _, err := newFockSpace(2, -1); err == nil {
		t.Error("negative cutoff accepted")
	}
}

func TestFockRankMonotoneProperty(t *testing.T) {
	f, err := newFockSpace(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &quick.Config{MaxCount: 200}
	prop := func(r1, r2 uint16) bool {
		a := int64(r1) % f.dim()
		b := int64(r2) % f.dim()
		if a > b {
			a, b = b, a
		}
		ma := make([]int, 3)
		mb := make([]int, 3)
		f.unrank(a, ma)
		f.unrank(b, mb)
		// Lexicographic order of vectors must match rank order.
		return a == b || lexLess(ma, mb)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
