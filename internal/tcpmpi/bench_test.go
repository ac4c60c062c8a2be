package tcpmpi_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/matrix"
	"repro/internal/solver"
	"repro/internal/tcpmpi"
)

// haloElems is one rank's halo on HMeP Small at two ranks: the
// hmep-mul-tcp workload's core.halo_elems_per_step (29,676) over its two
// ranks.
const haloElems = 14838

// BenchmarkHaloExchangeTCP is one halo exchange per iteration on a tcp
// pair on loopback: each rank starts one persistent receive and one
// persistent send of haloElems float64s and waits for the receive — the
// communication of one hmep-mul-tcp step without the kernel. GB/s counts
// the payload bytes both ranks receive.
func BenchmarkHaloExchangeTCP(b *testing.B) {
	cs := comms(b, dialSplit(b, 2, [][2]int{{0, 1}, {1, 2}}), 2)
	b.ReportAllocs()
	if err := spmd(cs, func(c core.Comm) error {
		peer := 1 - c.Rank()
		out, in := make([]float64, haloElems), make([]float64, haloElems)
		for i := range out {
			out[i] = float64(c.Rank()*haloElems + i)
		}
		recv, err := c.RecvInit(peer, 0, in)
		if err != nil {
			return err
		}
		send, err := c.SendInit(peer, 0, out)
		if err != nil {
			return err
		}
		exchange := func() error {
			if err := recv.Start(); err != nil {
				return err
			}
			if err := send.Start(); err != nil {
				return err
			}
			return recv.Wait()
		}
		// Outside the clock: one halo that arrives before its receive is
		// posted (it is ahead of the peer's barrier frame on the same
		// connection), which sizes the mailbox's carrier, then one
		// exchange, then a barrier to line the ranks up.
		if err := send.Start(); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := recv.Start(); err != nil {
			return err
		}
		if err := recv.Wait(); err != nil {
			return err
		}
		if err := exchange(); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if err := exchange(); err != nil {
				return err
			}
		}
		if in[haloElems-1] != float64(peer*haloElems+haloElems-1) {
			return fmt.Errorf("rank %d: halo not delivered", c.Rank())
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(2*8*haloElems*b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
}

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
