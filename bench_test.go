// Benchmark harness: one benchmark per figure/experiment of the paper's
// evaluation, plus kernel microbenchmarks. Figure benchmarks run at Small
// scale so the whole suite completes in minutes; the cmd/ tools regenerate
// the same experiments at medium or full (paper) scale.
package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/formats"
	"repro/internal/genmat"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/perfmodel"
	"repro/internal/rcm"
	"repro/internal/simnet"
	"repro/internal/solver"
	"repro/internal/spmv"
	"repro/internal/stream"
)

// ---- shared fixtures -------------------------------------------------

var (
	hmePSmall *matrix.CSR
	samgSmall *matrix.CSR
)

func holsteinSmall(b *testing.B, o genmat.Ordering) *matrix.CSR {
	b.Helper()
	if o == genmat.HMeP && hmePSmall != nil {
		return hmePSmall
	}
	h, err := expt.HolsteinSource(o, expt.Small)
	if err != nil {
		b.Fatal(err)
	}
	a := matrix.Materialize(h)
	if o == genmat.HMeP {
		hmePSmall = a
	}
	return a
}

func poissonSmall(b *testing.B) *matrix.CSR {
	b.Helper()
	if samgSmall != nil {
		return samgSmall
	}
	p, err := expt.PoissonSource(expt.Small)
	if err != nil {
		b.Fatal(err)
	}
	samgSmall = matrix.Materialize(p)
	return samgSmall
}

func randomX(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// reportSpmv attaches GFlop/s to a kernel benchmark.
func reportSpmv(b *testing.B, nnz int64) {
	b.ReportMetric(2*float64(nnz)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

// ---- node-level kernels (host-real, Fig. 3 companions) ----------------

func BenchmarkSpMVSerialHMeP(b *testing.B) {
	b.ReportAllocs()
	a := holsteinSmall(b, genmat.HMeP)
	x := randomX(a.NumCols)
	y := make([]float64, a.NumRows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spmv.Serial(y, a, x)
	}
	reportSpmv(b, a.Nnz())
}

func BenchmarkSpMVSerialSAMG(b *testing.B) {
	b.ReportAllocs()
	a := poissonSmall(b)
	x := randomX(a.NumCols)
	y := make([]float64, a.NumRows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spmv.Serial(y, a, x)
	}
	reportSpmv(b, a.Nnz())
}

func BenchmarkSpMVParallel(b *testing.B) {
	b.ReportAllocs()
	a := holsteinSmall(b, genmat.HMeP)
	x := randomX(a.NumCols)
	y := make([]float64, a.NumRows)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			team := spmv.NewTeam(workers)
			defer team.Close()
			p := spmv.NewParallel(a, workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.MulVec(team, y, x)
			}
			reportSpmv(b, a.Nnz())
		})
	}
}

// BenchmarkSplitPenalty measures the §3.1 effect on the host: the split
// (local+remote) kernel writes the result twice and runs measurably slower
// than the monolithic kernel (Eq. 2 vs Eq. 1 predicts 8–15%).
func BenchmarkSplitPenalty(b *testing.B) {
	b.ReportAllocs()
	a := holsteinSmall(b, genmat.HMeP)
	x := randomX(a.NumCols)
	y := make([]float64, a.NumRows)
	split := spmv.NewSplit(a, a.NumCols/2).AsFormatSplit()
	team := spmv.NewTeam(4)
	defer team.Close()
	localChunks := split.LocalChunks(4)
	remoteChunks := split.RemoteChunks(4)
	b.Run("monolithic", func(b *testing.B) {
		b.ReportAllocs()
		p := spmv.NewParallel(a, 4)
		for i := 0; i < b.N; i++ {
			p.MulVec(team, y, x)
		}
		reportSpmv(b, a.Nnz())
	})
	b.Run("split", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			split.MulVecLocal(team, localChunks, y, x)
			split.MulVecRemoteAdd(team, remoteChunks, y, x)
		}
		reportSpmv(b, a.Nnz())
	})
}

// BenchmarkRowKernels times each CSR-family row loop serially over all its
// rows: the full CSR product, and the two halves of the column split at
// NumCols/2 — the LocalView prefix pass and the CompactCSR remote pass.
// GFlop/s counts each kernel's own stored entries.
func BenchmarkRowKernels(b *testing.B) {
	for _, m := range []struct {
		name string
		a    func(*testing.B) *matrix.CSR
	}{
		{"HMeP", func(b *testing.B) *matrix.CSR { return holsteinSmall(b, genmat.HMeP) }},
		{"Poisson", poissonSmall},
	} {
		a := m.a(b)
		x := randomX(a.NumCols)
		y := make([]float64, a.NumRows)
		split := spmv.NewSplit(a, a.NumCols/2)
		rem := split.Remote
		for _, k := range []struct {
			name string
			nnz  int64
			run  func()
		}{
			{"CSR", a.Nnz(), func() { a.MulVecBlocks(y, x, 0, a.NumRows) }},
			{"LocalView", split.Local.Nnz(), func() { split.Local.MulVecBlocks(y, x, 0, a.NumRows) }},
			{"CompactCSR", rem.Nnz(), func() { rem.MulStoredRowsAdd(y, x, 0, rem.NumStoredRows()) }},
		} {
			b.Run(m.name+"/"+k.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k.run()
				}
				reportSpmv(b, k.nnz)
			})
		}
	}
}

// BenchmarkFormats compares the two formats the runtime runs, CRS and
// SELL-C-σ, on the HMeP matrix — §1.2 chooses CRS as "the most efficient
// format for general sparse matrices on cache-based microprocessors".
func BenchmarkFormats(b *testing.B) {
	b.ReportAllocs()
	a := holsteinSmall(b, genmat.HMeP)
	x := randomX(a.NumCols)
	y := make([]float64, a.NumRows)
	b.Run("CRS", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spmv.Serial(y, a, x)
		}
		reportSpmv(b, a.Nnz())
	})
	b.Run("SELL-32-256", func(b *testing.B) {
		b.ReportAllocs()
		s, err := formats.NewSELLCSigma(a, 32, 256)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.PaddingRatio(), "padding-ratio")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.MulVec(y, x)
		}
		reportSpmv(b, a.Nnz())
	})
}

// BenchmarkSellCSigma measures the SELL-C-σ kernel on the Holstein HMeP
// fixture for several chunk heights, serial and on the team, verifying the
// result stays bit-identical to the serial CRS kernel.
func BenchmarkSellCSigma(b *testing.B) {
	b.ReportAllocs()
	a := holsteinSmall(b, genmat.HMeP)
	x := randomX(a.NumCols)
	want := make([]float64, a.NumRows)
	spmv.Serial(want, a, x)
	for _, cfg := range []struct{ c, sigma int }{{8, 64}, {32, 256}, {64, 512}} {
		s, err := formats.NewSELLCSigma(a, cfg.c, cfg.sigma)
		if err != nil {
			b.Fatal(err)
		}
		y := make([]float64, a.NumRows)
		s.MulVec(y, x)
		for i := range want {
			if y[i] != want[i] {
				b.Fatalf("C=%d σ=%d: not bit-identical to serial CRS at row %d", cfg.c, cfg.sigma, i)
			}
		}
		b.Run(fmt.Sprintf("C=%d/sigma=%d/serial", cfg.c, cfg.sigma), func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(s.PaddingRatio(), "padding-ratio")
			for i := 0; i < b.N; i++ {
				s.MulVec(y, x)
			}
			reportSpmv(b, a.Nnz())
		})
		b.Run(fmt.Sprintf("C=%d/sigma=%d/workers=4", cfg.c, cfg.sigma), func(b *testing.B) {
			b.ReportAllocs()
			team := spmv.NewTeam(4)
			defer team.Close()
			p := spmv.NewParallelFormat(s, 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.MulVec(team, y, x)
			}
			reportSpmv(b, a.Nnz())
		})
	}
}

// BenchmarkTeamBarrier isolates the per-parallel-region dispatch overhead of
// the worker team — the cost the sense-reversing barrier attacks. The body
// is empty, so ns/op is pure fork/join latency. The ad-hoc Run path
// allocates one region descriptor + closure per region; the compiled path
// (what the resident distributed workers use) restarts a precompiled
// region and allocates nothing.
func BenchmarkTeamBarrier(b *testing.B) {
	b.ReportAllocs()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			team := spmv.NewTeam(workers)
			defer team.Close()
			noop := func(int) {}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				team.Run(noop)
			}
		})
		b.Run(fmt.Sprintf("workers=%d/compiled", workers), func(b *testing.B) {
			b.ReportAllocs()
			team := spmv.NewTeam(workers)
			defer team.Close()
			region := team.Compile(workers, func(int) {})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				team.Exec(region)
			}
		})
	}
}

// BenchmarkAblationTorusFragmentation quantifies the paper's "job topology
// and machine load" observation: the same XE6 job, compact vs scattered.
func BenchmarkAblationTorusFragmentation(b *testing.B) {
	b.ReportAllocs()
	h, err := expt.HolsteinSource(genmat.HMeP, expt.Small)
	if err != nil {
		b.Fatal(err)
	}
	wc := expt.NewWorkloadCache("HMeP", h, 2.5)
	wl, err := wc.For(16)
	if err != nil {
		b.Fatal(err)
	}
	run := func(occupancy float64) float64 {
		res, err := simnet.RunPoint(simnet.PointConfig{
			Cluster: machine.CrayXE6(), Nodes: 16, Layout: simnet.ProcPerNode,
			Mode: core.VectorNoOverlap, Iters: 8, TorusOccupancy: occupancy,
		}, wl)
		if err != nil {
			b.Fatal(err)
		}
		return res.GFlops
	}
	var compact, scattered float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compact = run(1.0)
		scattered = run(0.2)
	}
	b.ReportMetric(compact, "compact-GFlop/s")
	b.ReportMetric(scattered, "scattered-GFlop/s")
}

func BenchmarkSTREAMTriad(b *testing.B) {
	b.ReportAllocs()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var r stream.Result
			for i := 0; i < b.N; i++ {
				r = stream.Triad(1<<22, 1, workers)
			}
			b.ReportMetric(r.BytesPerSec/1e9, "GB/s")
		})
	}
}

// ---- distributed kernels on the real message-passing runtime ----------

func BenchmarkDistributedModes(b *testing.B) {
	b.ReportAllocs()
	a := holsteinSmall(b, genmat.HMeP)
	x := randomX(a.NumCols)
	y := make([]float64, a.NumRows)
	part := core.PartitionByNnz(a, 4)
	plan, err := core.BuildPlan(a, part, true)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := core.NewCluster(plan, core.WithThreads(2))
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	for _, mode := range core.Modes {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			if err := cl.SetMode(mode); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.Mul(y, x, 1); err != nil {
					b.Fatal(err)
				}
			}
			reportSpmv(b, a.Nnz())
		})
	}
}

// BenchmarkDistributedModesSELL is BenchmarkDistributedModes on a
// SELL-C-σ-converted session: the full local matrix and the split's local
// half run in SELL-32-256 in every mode, the compacted remote pass stays
// CSR. CI's benchmark smoke runs the overlap-mode cases so the
// format-generic split pipeline is exercised on every push.
func BenchmarkDistributedModesSELL(b *testing.B) {
	b.ReportAllocs()
	a := holsteinSmall(b, genmat.HMeP)
	x := randomX(a.NumCols)
	y := make([]float64, a.NumRows)
	part := core.PartitionByNnz(a, 4)
	plan, err := core.BuildPlan(a, part, true)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := core.NewCluster(plan, core.WithThreads(2),
		core.WithFormat(formats.SELLBuilder{C: 32, Sigma: 256}))
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	for _, mode := range core.Modes {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			if err := cl.SetMode(mode); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.Mul(y, x, 1); err != nil {
					b.Fatal(err)
				}
			}
			reportSpmv(b, a.Nnz())
		})
	}
}

// BenchmarkClusterReuse quantifies what the session API buys: one
// multiplication on a resident core.Cluster (rank goroutines, teams, halo
// buffers reused) against a throwaway cluster per multiplication, which
// spawns a fresh world + teams every call. The matrix is deliberately small
// so setup dominates — the shape of a solver iteration, where the
// multiplication itself is cheap and the runtime must already be there.
func BenchmarkClusterReuse(b *testing.B) {
	b.ReportAllocs()
	const n, ranks, threads = 2000, 4, 2
	g, err := genmat.NewRandomBand(genmat.RandomBandConfig{
		N: n, Bandwidth: 60, PerRow: 5, Seed: 7, Symmetric: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	a := matrix.Materialize(g)
	x := randomX(n)
	y := make([]float64, n)
	plan, err := core.BuildPlan(a, core.PartitionByNnz(a, ranks), true)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("resident-cluster", func(b *testing.B) {
		b.ReportAllocs()
		cl, err := core.NewCluster(plan, core.WithMode(core.TaskMode), core.WithThreads(threads))
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := cl.Mul(y, x, 1); err != nil {
				b.Fatal(err)
			}
		}
		reportSpmv(b, a.Nnz())
	})
	b.Run("per-call-world", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cl, err := core.NewCluster(plan, core.WithMode(core.TaskMode), core.WithThreads(threads))
			if err != nil {
				b.Fatal(err)
			}
			if err := cl.Mul(y, x, 1); err != nil {
				b.Fatal(err)
			}
			cl.Close()
		}
		reportSpmv(b, a.Nnz())
	})
}

// BenchmarkSetup is what a supervisor restart, a Register and a worker
// bring-up wait for: source → Materialize → PartitionByNnz → BuildPlan at 2
// ranks. MB/s is plan bytes built per second; B/op next to Plan.Bytes plus
// the matrix shows whether set-up still allocates every array once, at its
// final size (the Holstein generator's own 256 bytes per row come on top).
func BenchmarkSetup(b *testing.B) {
	poisson, err := expt.PoissonSource(expt.Small)
	if err != nil {
		b.Fatal(err)
	}
	holstein, err := expt.HolsteinSource(genmat.HMeP, expt.Small)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		src  matrix.ValueSource
	}{{"poisson-small", poisson}, {"hmep-small", holstein}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var plan *core.Plan
			for i := 0; i < b.N; i++ {
				a := matrix.Materialize(c.src)
				var err error
				if plan, err = core.BuildPlan(a, core.PartitionByNnz(a, 2), true); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(plan.Bytes())
		})
	}
}

// ---- Fig. 1: sparsity pattern extraction ------------------------------

func BenchmarkFig1Occupancy(b *testing.B) {
	b.ReportAllocs()
	h, err := expt.HolsteinSource(genmat.HMeP, expt.Small)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		matrix.BlockOccupancy(h, 48)
	}
}

// ---- Fig. 3: node-level model ------------------------------------------

func BenchmarkFig3aModel(b *testing.B) {
	b.ReportAllocs()
	var rows []expt.Fig3Row
	for i := 0; i < b.N; i++ {
		rows = expt.Fig3(machine.NehalemEP(), 15, 2.5)
	}
	// Report the socket-level anchor the paper measures: 2.25 GFlop/s.
	b.ReportMetric(rows[3].SpmvGFlops, "GFlop/s@4cores")
}

func BenchmarkFig3bModel(b *testing.B) {
	b.ReportAllocs()
	var wsm, amd []expt.Fig3Row
	for i := 0; i < b.N; i++ {
		wsm = expt.Fig3(machine.WestmereEP(), 15, 2.5)
		amd = expt.Fig3(machine.MagnyCours(), 15, 2.5)
	}
	b.ReportMetric(wsm[len(wsm)-1].SpmvGFlops, "Westmere-node-GFlop/s")
	b.ReportMetric(amd[len(amd)-1].SpmvGFlops, "MagnyCours-node-GFlop/s")
}

// ---- §2: κ via cache simulation ----------------------------------------

func BenchmarkKappaHMePvsHMEp(b *testing.B) {
	b.ReportAllocs()
	cache := cachesim.Config{SizeBytes: 128 << 10, Ways: 16, LineBytes: 64}
	aGood := holsteinSmall(b, genmat.HMeP)
	aBad := holsteinSmall(b, genmat.HMEp)
	var kGood, kBad float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trG, err := cachesim.SpMVTraffic(aGood, cache)
		if err != nil {
			b.Fatal(err)
		}
		trB, err := cachesim.SpMVTraffic(aBad, cache)
		if err != nil {
			b.Fatal(err)
		}
		kGood, kBad = trG.Kappa, trB.Kappa
	}
	b.ReportMetric(kGood, "kappa-HMeP")
	b.ReportMetric(kBad, "kappa-HMEp")
	if kBad <= kGood {
		b.Fatalf("κ ordering violated: HMEp %.3f ≤ HMeP %.3f", kBad, kGood)
	}
}

// ---- Figs. 5 and 6: strong scaling on the simulated clusters -----------

func scalingBench(b *testing.B, name string, kappa float64, src matrix.PatternSource) {
	wc := expt.NewWorkloadCache(name, src, kappa)
	study := &expt.ScalingStudy{
		Cluster:    machine.WestmereCluster(),
		NodeCounts: []int{1, 4, 16},
		Iters:      6,
	}
	var points []expt.ScalingPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		points, err = study.Run(wc)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the 16-node task-mode vs no-overlap per-LD comparison — the
	// figure's headline.
	var task, noov float64
	for _, p := range points {
		if p.Nodes == 16 && p.Layout == simnet.ProcPerLD {
			switch p.Mode {
			case core.TaskMode:
				task = p.GFlops
			case core.VectorNoOverlap:
				noov = p.GFlops
			}
		}
	}
	b.ReportMetric(task, "task-GFlop/s@16")
	b.ReportMetric(noov, "noov-GFlop/s@16")
}

func BenchmarkFig5ScalingHMeP(b *testing.B) {
	b.ReportAllocs()
	h, err := expt.HolsteinSource(genmat.HMeP, expt.Small)
	if err != nil {
		b.Fatal(err)
	}
	scalingBench(b, "HMeP", expt.PaperKappa("HMeP"), h)
}

func BenchmarkFig6ScalingSAMG(b *testing.B) {
	b.ReportAllocs()
	p, err := expt.PoissonSource(expt.Small)
	if err != nil {
		b.Fatal(err)
	}
	scalingBench(b, "sAMG", expt.PaperKappa("sAMG"), p)
}

// BenchmarkCrayReference simulates the XE6 best-variant sweep (the "best
// Cray" line of Figs. 5/6).
func BenchmarkCrayReference(b *testing.B) {
	b.ReportAllocs()
	h, err := expt.HolsteinSource(genmat.HMeP, expt.Small)
	if err != nil {
		b.Fatal(err)
	}
	wc := expt.NewWorkloadCache("HMeP", h, expt.PaperKappa("HMeP"))
	study := &expt.ScalingStudy{
		Cluster:    machine.CrayXE6(),
		NodeCounts: []int{1, 8},
		Iters:      6,
	}
	var best map[int]expt.ScalingPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := study.Run(wc)
		if err != nil {
			b.Fatal(err)
		}
		best = expt.BestPerNodeCount(points)
	}
	b.ReportMetric(best[8].GFlops, "bestCray-GFlop/s@8")
}

// ---- ablations ----------------------------------------------------------

// BenchmarkAblationAsyncProgress quantifies the §5 outlook: an MPI library
// with a progress thread rescues naive overlap.
func BenchmarkAblationAsyncProgress(b *testing.B) {
	b.ReportAllocs()
	h, err := expt.HolsteinSource(genmat.HMeP, expt.Small)
	if err != nil {
		b.Fatal(err)
	}
	cluster := machine.WestmereCluster()
	cluster.Net.EagerThreshold = 0
	wc := expt.NewWorkloadCache("HMeP", h, 2.5)
	wl, err := wc.For(16)
	if err != nil {
		b.Fatal(err)
	}
	run := func(async bool) float64 {
		res, err := simnet.RunPoint(simnet.PointConfig{
			Cluster: cluster, Nodes: 8, Layout: simnet.ProcPerLD,
			Mode: core.VectorNaiveOverlap, Iters: 8, AsyncProgress: async,
		}, wl)
		if err != nil {
			b.Fatal(err)
		}
		return res.GFlops
	}
	var plain, async float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plain = run(false)
		async = run(true)
	}
	b.ReportMetric(plain, "std-GFlop/s")
	b.ReportMetric(async, "async-GFlop/s")
}

// BenchmarkAblationPartitioning compares nonzero-balanced against naive
// row-balanced partitioning (§3.1 footnote 2).
func BenchmarkAblationPartitioning(b *testing.B) {
	b.ReportAllocs()
	h, err := expt.HolsteinSource(genmat.HMeP, expt.Small)
	if err != nil {
		b.Fatal(err)
	}
	rows, _ := h.Dims()
	var byNnz, byRows float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		byNnz = core.PartitionByNnz(h, 16).Imbalance(h)
		byRows = core.PartitionByRows(rows, 16).Imbalance(h)
	}
	b.ReportMetric(byNnz, "imbalance-nnz")
	b.ReportMetric(byRows, "imbalance-rows")
}

// ---- §1.3.1: RCM -----------------------------------------------------

func BenchmarkRCM(b *testing.B) {
	b.ReportAllocs()
	a := poissonSmall(b)
	var p *rcm.Permutation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p = rcm.ReverseCuthillMcKee(a)
	}
	bw := rcm.Bandwidth(rcm.ApplySymmetric(a, p))
	b.ReportMetric(float64(bw), "bandwidth-after")
	b.ReportMetric(float64(rcm.Bandwidth(a)), "bandwidth-before")
}

// ---- application solvers ------------------------------------------------

func BenchmarkLanczosGroundState(b *testing.B) {
	b.ReportAllocs()
	a := holsteinSmall(b, genmat.HMeP)
	op := solver.CSROperator{A: a}
	var e0 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		e0, err = solver.GroundState(op, 40, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(e0, "E0")
}

func BenchmarkCGPoisson(b *testing.B) {
	b.ReportAllocs()
	a := poissonSmall(b)
	n := a.NumRows
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	op := solver.CSROperator{A: a}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, n)
		if _, err := solver.CG(op, rhs, x, 1e-6, 5000); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- model sanity anchor -------------------------------------------------

func BenchmarkModelAnchors(b *testing.B) {
	b.ReportAllocs()
	var kappa float64
	for i := 0; i < b.N; i++ {
		kappa = perfmodel.KappaFromMeasurement(18.1e9, 2.25e9, 15)
	}
	b.ReportMetric(kappa, "paper-kappa")
}
