package tcpmpi_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/matrix"
	"repro/internal/solver"
	"repro/internal/tcpmpi"
)

// BenchmarkDistCGTransports is one CG iteration on Poisson Small at two
// ranks of one thread in vector mode — a halo exchange, a kernel pass and
// two scalar allreduces — over the chan transport and over a tcp pair on
// loopback. The tolerance is out of reach, so every solve runs its full
// iteration budget and ms/iteration is wall time over that budget.
func BenchmarkDistCGTransports(b *testing.B) {
	const ranks, iters = 2, 50
	src, err := genmat.NewPoisson(genmat.SmallPoissonConfig())
	if err != nil {
		b.Fatal(err)
	}
	a := matrix.Materialize(src)
	plan, err := core.BuildPlan(a, core.PartitionByNnz(a, ranks), true)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, a.NumRows)
	for i := range rhs {
		rhs[i] = 1 / float64(i%17+1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for _, tr := range []string{"chan", "tcp"} {
		b.Run(tr, func(b *testing.B) {
			var cls []*core.Cluster
			if tr == "chan" {
				cl, err := core.NewCluster(plan, core.WithMode(core.VectorNoOverlap))
				if err != nil {
					b.Fatal(err)
				}
				cls = []*core.Cluster{cl}
			} else {
				addr := freeAddr(b)
				cls = make([]*core.Cluster, ranks)
				errs := make([]error, ranks)
				var wg sync.WaitGroup
				for r := range cls {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						cls[r], errs[r] = core.NewCluster(plan, core.WithMode(core.VectorNoOverlap),
							core.WithTransport(&tcpmpi.Transport{Addr: addr, Coordinate: r == 0, RankLo: r, RankHi: r + 1}),
							core.WithDialContext(ctx))
					}(r)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			defer func() {
				for _, cl := range cls {
					cl.Close()
				}
			}()
			xs := make([][]float64, len(cls))
			for i := range xs {
				xs[i] = make([]float64, a.NumRows)
			}
			solve := func() {
				errs := make([]error, len(cls))
				var wg sync.WaitGroup
				for i, cl := range cls {
					wg.Add(1)
					go func(i int, cl *core.Cluster) {
						defer wg.Done()
						clear(xs[i])
						_, errs[i] = solver.DistCG(cl, rhs, xs[i], 1e-300, iters)
					}(i, cl)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			solve()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solve()
			}
			b.ReportMetric(1e3*b.Elapsed().Seconds()/float64(b.N*iters), "ms/iteration")
		})
	}
}
