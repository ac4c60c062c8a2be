// Package perfmodel implements the paper's node-level performance model
// (§1.2): the code balance of the CRS spMVM kernel (Eq. 1), its split-kernel
// variant (Eq. 2), roofline-style performance bounds from measured
// bandwidth, and the experimental extraction of the κ parameter (the extra
// B(:) traffic caused by limited cache capacity).
package perfmodel

import "fmt"

// CodeBalance returns B_CRS in bytes/flop (Eq. 1):
//
//	B_CRS = 6 + 12/Nnzr + κ/2
//
// where Nnzr is the average number of nonzeros per row and κ the extra
// bytes of B(:) traffic per inner-loop iteration.
func CodeBalance(nnzr, kappa float64) float64 {
	if nnzr <= 0 {
		panic(fmt.Sprintf("perfmodel: nnzr %g must be positive", nnzr))
	}
	return 6 + 12/nnzr + kappa/2
}

// splitCodeBalance returns the split-kernel balance (Eq. 2):
//
//	B_split = 6 + 20/Nnzr + κ/2
//
// The extra 8/Nnzr bytes/flop come from writing the result vector twice in
// the overlap variants (Fig. 4b/4c).
func splitCodeBalance(nnzr, kappa float64) float64 {
	if nnzr <= 0 {
		panic(fmt.Sprintf("perfmodel: nnzr %g must be positive", nnzr))
	}
	return 6 + 20/nnzr + kappa/2
}

// MaxPerformance returns the bandwidth-limited performance ceiling in
// flop/s for a given memory bandwidth (bytes/s) and code balance
// (bytes/flop) — the roofline the paper evaluates with κ = 0.
func MaxPerformance(bandwidth, balance float64) float64 {
	if balance <= 0 {
		panic(fmt.Sprintf("perfmodel: balance %g must be positive", balance))
	}
	return bandwidth / balance
}

// KappaFromMeasurement inverts Eq. 1: given the measured spMVM memory
// bandwidth (bytes/s), the measured performance (flop/s) and Nnzr, it
// returns the experimentally realized κ (§2: κ = 2.5 for HMeP on Nehalem).
//
//repro:api the paper's model, kept for the reproduction scorecard (ROADMAP item 9)
func KappaFromMeasurement(bandwidth, performance, nnzr float64) float64 {
	if performance <= 0 {
		panic(fmt.Sprintf("perfmodel: performance %g must be positive", performance))
	}
	balance := bandwidth / performance
	return 2 * (balance - 6 - 12/nnzr)
}

// KappaFromTraffic converts measured excess B(:) traffic into κ: extra is
// the number of bytes of B(:) loaded from memory beyond the compulsory
// first load, nnz the number of inner-loop iterations.
//
//repro:api the paper's model, kept for the reproduction scorecard (ROADMAP item 9)
func KappaFromTraffic(extraBytes float64, nnz int64) float64 {
	if nnz <= 0 {
		panic("perfmodel: nnz must be positive")
	}
	return extraBytes / float64(nnz)
}

// RHSLoadFactor returns how many times the full B(:) vector is effectively
// loaded from main memory: 1 (compulsory) + κ·Nnzr/8 extra. The paper's §2
// example: κ = 2.5, Nnzr = 15 → B(:) loaded about six times.
//
//repro:api the paper's model, kept for the reproduction scorecard (ROADMAP item 9)
func RHSLoadFactor(kappa, nnzr float64) float64 {
	return 1 + kappa*nnzr/8
}

// SplitPenalty returns the predicted relative slowdown of the split kernel
// versus the monolithic kernel at equal bandwidth: B_split/B_CRS - 1.
// For Nnzr ≈ 7…15 and κ = 0 this is the paper's "between 15% and 8%".
//
//repro:api the paper's model, kept for the reproduction scorecard (ROADMAP item 9)
func SplitPenalty(nnzr, kappa float64) float64 {
	return splitCodeBalance(nnzr, kappa)/CodeBalance(nnzr, kappa) - 1
}

// Prediction bundles the model outputs for one machine/matrix combination.
type Prediction struct {
	Nnzr           float64
	Kappa          float64
	Balance        float64 // bytes/flop, Eq. 1
	SplitBalance   float64 // bytes/flop, Eq. 2
	MaxGFlops      float64 // bandwidth / balance at κ=0 (upper bound)
	ExpectedGFlops float64 // bandwidth / balance at the given κ
}

// Predict evaluates the model for a measured bandwidth (bytes/s).
//
//repro:api the paper's model, kept for the reproduction scorecard (ROADMAP item 9)
func Predict(bandwidth, nnzr, kappa float64) Prediction {
	return Prediction{
		Nnzr:           nnzr,
		Kappa:          kappa,
		Balance:        CodeBalance(nnzr, kappa),
		SplitBalance:   splitCodeBalance(nnzr, kappa),
		MaxGFlops:      MaxPerformance(bandwidth, CodeBalance(nnzr, 0)) / 1e9,
		ExpectedGFlops: MaxPerformance(bandwidth, CodeBalance(nnzr, kappa)) / 1e9,
	}
}
