// Package stream implements the STREAM kernels (McCalpin) used by the paper
// as the practical upper bandwidth limit for the spMVM (§2, Fig. 3). The
// triad a(i) = b(i) + s·c(i) is the reference; reported bandwidths include
// the write-allocate transfer on the store stream (the paper scales its
// numbers by 4/3 for the same reason).
package stream

import (
	"fmt"
	"time"

	"repro/internal/spmv"
)

// Result is one STREAM measurement.
type Result struct {
	Kernel      string
	N           int
	Workers     int
	BytesPerSec float64 // effective bandwidth including write-allocate
	BestTime    float64 // seconds for one sweep
}

// Triad measures a(i) = b(i) + s·c(i) over n elements with the given worker
// team, taking the best of `reps` sweeps. Counted traffic per element:
// 8 (load b) + 8 (load c) + 8 (write-allocate a) + 8 (store a) = 32 bytes.
func Triad(n, reps, workers int) Result {
	return run("triad", n, reps, workers, 32, func(a, b, c []float64, lo, hi int) {
		const s = 3.0
		for i := lo; i < hi; i++ {
			a[i] = b[i] + s*c[i]
		}
	})
}

func run(kernel string, n, reps, workers, bytesPerElem int, body func(a, b, c []float64, lo, hi int)) Result {
	if n < 1 || reps < 1 || workers < 1 {
		panic(fmt.Sprintf("stream: invalid parameters n=%d reps=%d workers=%d", n, reps, workers))
	}
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range b {
		b[i] = float64(i)
		c[i] = 2
	}
	team := spmv.NewTeam(workers)
	defer team.Close()
	chunk := func(w int) (int, int) {
		return w * n / workers, (w + 1) * n / workers
	}
	// Warm-up sweep (faults pages, fills caches).
	team.Run(func(w int) {
		lo, hi := chunk(w)
		body(a, b, c, lo, hi)
	})
	best := float64(0)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		team.Run(func(w int) {
			lo, hi := chunk(w)
			body(a, b, c, lo, hi)
		})
		dt := time.Since(t0).Seconds()
		if best == 0 || dt < best {
			best = dt
		}
	}
	return Result{
		Kernel:      kernel,
		N:           n,
		Workers:     workers,
		BytesPerSec: float64(n) * float64(bytesPerElem) / best,
		BestTime:    best,
	}
}
