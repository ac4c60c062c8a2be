package perfmodel

import (
	"math"
	"testing"
)

func almost(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.6g, want %.6g", name, got, want)
	}
}

func TestCodeBalancePaperValues(t *testing.T) {
	// §2: Nnzr = 15, κ = 0 → B = 6.8 bytes/flop; with 18.1 GB/s the socket
	// ceiling is 2.66 GFlop/s and with STREAM 21.2 GB/s it is 3.12.
	b := CodeBalance(15, 0)
	almost(t, "B_CRS(15,0)", b, 6.8, 1e-12)
	almost(t, "max perf @18.1GB/s", MaxPerformance(18.1e9, b)/1e9, 2.66, 0.01)
	almost(t, "max perf @21.2GB/s", MaxPerformance(21.2e9, b)/1e9, 3.12, 0.01)
}

func TestKappaExtractionPaperValue(t *testing.T) {
	// §2: measured 2.25 GFlop/s at 18.1 GB/s, Nnzr = 15 → κ ≈ 2.5
	// (37.3 bytes per row ⇒ 2.49 bytes per inner iteration).
	kappa := KappaFromMeasurement(18.1e9, 2.25e9, 15)
	if kappa < 2.2 || kappa > 2.8 {
		t.Errorf("κ = %.3f, paper finds ≈ 2.5", kappa)
	}
}

func TestRHSLoadFactorPaperValue(t *testing.T) {
	// §2: κ = 2.5, Nnzr = 15 → "the complete vector B(:) is loaded six
	// times from main memory".
	f := RHSLoadFactor(2.5, 15)
	if math.Abs(f-5.7) > 0.6 {
		t.Errorf("RHS load factor = %.2f, paper says about 6", f)
	}
}

func TestSplitPenaltyPaperRange(t *testing.T) {
	// §3.1: for Nnzr = 7…15 and κ = 0 the split-kernel penalty is between
	// 15% and 8%, and smaller for κ > 0.
	p7 := SplitPenalty(7, 0)
	p15 := SplitPenalty(15, 0)
	if math.Abs(p7-0.146) > 0.02 {
		t.Errorf("penalty(Nnzr=7) = %.3f, want ≈ 0.15", p7)
	}
	if math.Abs(p15-0.076) > 0.02 {
		t.Errorf("penalty(Nnzr=15) = %.3f, want ≈ 0.08", p15)
	}
	if SplitPenalty(7, 3) >= p7 {
		t.Error("penalty should shrink for κ > 0")
	}
}

func TestHMEpKappaImpliesTenPercentDrop(t *testing.T) {
	// §2: κ(HMEp) = 3.79 vs κ(HMeP) = 2.5 → ≈10% performance drop at equal
	// bandwidth.
	drop := 1 - CodeBalance(15, 2.5)/CodeBalance(15, 3.79)
	if math.Abs(drop-0.074) > 0.04 {
		t.Errorf("predicted HMEp drop = %.3f, paper reports about 10%%", drop)
	}
}

func TestSplitVsPlainBalanceRelation(t *testing.T) {
	// B_split - B_CRS = 8/Nnzr exactly, for any κ.
	for _, nnzr := range []float64{3, 7, 15, 40} {
		for _, kappa := range []float64{0, 1.3, 5} {
			diff := splitCodeBalance(nnzr, kappa) - CodeBalance(nnzr, kappa)
			almost(t, "B_split-B_CRS", diff, 8/nnzr, 1e-12)
		}
	}
}

func TestKappaRoundTrip(t *testing.T) {
	// KappaFromMeasurement inverts CodeBalance.
	for _, kappa := range []float64{0, 1.0, 2.5, 3.79} {
		nnzr := 15.0
		bw := 18.1e9
		perf := MaxPerformance(bw, CodeBalance(nnzr, kappa))
		almost(t, "κ round trip", KappaFromMeasurement(bw, perf, nnzr), kappa, 1e-9)
	}
}

func TestKappaFromTraffic(t *testing.T) {
	// 2.5 extra bytes per nonzero: extra = 2.5 × nnz.
	almost(t, "KappaFromTraffic", KappaFromTraffic(2.5e6, 1e6), 2.5, 1e-12)
}

func TestPredictBundle(t *testing.T) {
	p := Predict(18.1e9, 15, 2.5)
	almost(t, "Balance", p.Balance, 8.05, 1e-9)
	almost(t, "MaxGFlops", p.MaxGFlops, 2.66, 0.01)
	almost(t, "ExpectedGFlops", p.ExpectedGFlops, 2.25, 0.01)
	if p.SplitBalance <= p.Balance {
		t.Error("split balance must exceed plain balance")
	}
}

func TestPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"CodeBalance":          func() { CodeBalance(0, 0) },
		"splitCodeBalance":     func() { splitCodeBalance(-1, 0) },
		"MaxPerformance":       func() { MaxPerformance(1e9, 0) },
		"KappaFromMeasurement": func() { KappaFromMeasurement(1e9, 0, 15) },
		"KappaFromTraffic":     func() { KappaFromTraffic(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on invalid input", name)
				}
			}()
			f()
		}()
	}
}
