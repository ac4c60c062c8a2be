// Command spmv-bench reproduces the node-level analysis of the paper:
// the machine topologies (Fig. 2), the calibrated node-level performance
// model (Fig. 3a/3b), and — with -host — the same experiment measured for
// real on the machine running this binary (Go kernels: STREAM triad and the
// parallel CRS spMVM).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/formats"
	"repro/internal/genmat"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/spmv"
)

func main() {
	var (
		topology   = flag.Bool("topology", false, "print the benchmark node topologies (Fig. 2)")
		fig3a      = flag.Bool("fig3a", false, "print the Nehalem EP node-level analysis (Fig. 3a)")
		fig3b      = flag.Bool("fig3b", false, "print the Westmere / Magny Cours analysis (Fig. 3b)")
		host       = flag.Bool("host", false, "measure STREAM and spMVM on this machine")
		scale      = flag.String("scale", "small", "matrix scale for -host: small|medium|full")
		kappa      = flag.Float64("kappa", 2.5, "κ (extra B(:) bytes per nonzero) for the model")
		workers    = flag.Int("workers", runtime.NumCPU(), "max workers for -host")
		reps       = flag.Int("reps", 5, "repetitions for -host measurements")
		snapshot   = flag.String("snapshot", "", "write a kernel GFlop/s snapshot (JSON) to this path and exit")
		modeFlag   = flag.String("mode", "", "with -snapshot: restrict the distributed sweep to one kernel mode (vector-no-overlap, vector-naive-overlap, task-mode); default all")
		transFlag  = flag.String("transport", "chan", "with -snapshot: transport backend for the distributed sweep ("+strings.Join(core.TransportTokens(), ", ")+")")
		fmtFlag    = flag.String("format", "", "with -snapshot: restrict the distributed sweep to one storage format (crs or sell-<C>-<sigma>); default both crs and sell-32-256")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this path (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write an allocation profile at exit to this path (go tool pprof)")
	)
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		// Registered with fatal too: an error exit must still flush the
		// profile collected so far (os.Exit skips defers).
		atExit(pprof.StopCPUProfile)
	}
	if *memProfile != "" {
		path := *memProfile
		atExit(func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "spmv-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-object stats before the heap dump
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "spmv-bench: memprofile:", err)
			}
		})
	}
	defer runExitHooks()
	modes := core.Modes
	if *modeFlag != "" {
		if *snapshot == "" {
			fatal(fmt.Errorf("-mode only applies to the -snapshot distributed sweep"))
		}
		m, err := core.ParseMode(*modeFlag)
		if err != nil {
			fatal(err)
		}
		modes = []core.Mode{m}
	}
	sweepFormats := []matrix.FormatBuilder{matrix.CSRBuilder{}, formats.SELLBuilder{C: 32, Sigma: 256}}
	if *fmtFlag != "" {
		if *snapshot == "" {
			fatal(fmt.Errorf("-format only applies to the -snapshot distributed sweep"))
		}
		b, err := core.ParseFormat(*fmtFlag)
		if err != nil {
			fatal(err)
		}
		sweepFormats = []matrix.FormatBuilder{b}
	}
	transport, err := core.ParseTransport(*transFlag)
	if err != nil {
		fatal(err)
	}
	if transport != core.TransportChan && *snapshot == "" {
		fatal(fmt.Errorf("-transport only applies to the -snapshot distributed sweep"))
	}
	if *snapshot != "" {
		if err := writeSnapshot(*snapshot, *workers, *reps, modes, sweepFormats, transport); err != nil {
			fatal(err)
		}
		return
	}
	if !*topology && !*fig3a && !*fig3b && !*host {
		*topology, *fig3a, *fig3b = true, true, true
	}
	out := os.Stdout

	if *topology {
		fmt.Fprintln(out, "Node topologies (paper Fig. 2):")
		if err := expt.Fig2(out); err != nil {
			fatal(err)
		}
	}
	if *fig3a {
		fmt.Fprintln(out, "\nFig. 3a — Nehalem EP node-level performance (HMeP, calibrated model):")
		if err := expt.RenderFig3(out, []machine.NodeSpec{machine.NehalemEP()}, 15, *kappa); err != nil {
			fatal(err)
		}
	}
	if *fig3b {
		fmt.Fprintln(out, "\nFig. 3b — Westmere EP and AMD Magny Cours (HMeP, calibrated model):")
		if err := expt.RenderFig3(out, []machine.NodeSpec{machine.WestmereEP(), machine.MagnyCours()}, 15, *kappa); err != nil {
			fatal(err)
		}
	}
	if *host {
		sc, err := expt.ParseScale(*scale)
		if err != nil {
			fatal(err)
		}
		h, err := expt.HolsteinSource(genmat.HMeP, sc)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(out, "\nHost measurement (HMeP at %s scale, real Go kernels):\n", sc)
		a := matrix.Materialize(h)
		rows := expt.HostNodePerf(a, *kappa, *workers, *reps)
		tbl := expt.NewTable("workers", "triad [GB/s]", "spMVM [GFlop/s]", "implied BW [GB/s]", "κ=0 ceiling [GFlop/s]")
		for _, r := range rows {
			tbl.Row(r.Workers,
				fmt.Sprintf("%.1f", r.TriadGBs),
				fmt.Sprintf("%.2f", r.SpmvGFlops),
				fmt.Sprintf("%.1f", r.SpmvImplGBs),
				fmt.Sprintf("%.2f", r.ModelCeiling))
		}
		if err := tbl.Render(out); err != nil {
			fatal(err)
		}
	}
}

// exitHooks are flush actions (profile writers) that must run on BOTH the
// normal return path (deferred in main) and the fatal error path, where
// os.Exit would skip defers. Hooks run once, latest first.
var exitHooks []func()

func atExit(f func()) { exitHooks = append(exitHooks, f) }

func runExitHooks() {
	for i := len(exitHooks) - 1; i >= 0; i-- {
		exitHooks[i]()
	}
	exitHooks = nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spmv-bench:", err)
	runExitHooks()
	os.Exit(1)
}

// kernelPoint is one (fixture, kernel) measurement in the snapshot:
// throughput plus the steady-state overhead metrics the zero-allocation
// work targets — wall time and heap allocations per multiplication.
type kernelPoint struct {
	Matrix        string  `json:"matrix"`
	Kernel        string  `json:"kernel"`
	Workers       int     `json:"workers"`
	GFlops        float64 `json:"gflops"`
	NsPerIter     float64 `json:"ns_per_iter"`
	AllocsPerIter float64 `json:"allocs_per_iter"`
}

// benchSnapshot is the perf-trajectory record emitted by -snapshot; one file
// per PR (BENCH_<n>.json) lets successive sessions compare kernels.
type benchSnapshot struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	Scale     string `json:"scale"`
	// Transport is the backend the distributed sweep ran on (-transport):
	// chan, tcp (loopback pair), or sim (virtual time).
	Transport  string            `json:"transport"`
	Kernels    []kernelPoint     `json:"kernels"`
	Resilience []resiliencePoint `json:"resilience"`
	// Serving is the multi-tenant service sweep (cmd/spmv-serve driven by
	// the load generator): req/s and latency percentiles per tenants ×
	// concurrency cell, every response verified bit-identical against a
	// reference cluster.
	Serving []servePoint `json:"serving"`
	// Reprolint is the static-contract finding count of cmd/reprolint over
	// the whole module at snapshot time — 0 on a clean tree (the CI gate);
	// nonzero marks a snapshot taken with contract violations outstanding.
	// Omitted when the suite could not run (snapshot taken outside the
	// module, no go toolchain).
	Reprolint *int `json:"reprolint_findings,omitempty"`
	// Modeled is the simulated strong-scaling sweep (cmd/spmv-sim's model
	// at full scale): the kernel-mode crossover rank and each mode's
	// modeled GFlop/s at thousands of virtual ranks. Omitted when the
	// sweep failed or ran out of budget.
	Modeled *modeledScaling `json:"modeled_scaling,omitempty"`
}

// reprolintFindings runs the internal/analysis suite over the module
// containing the working directory and returns the finding count.
func reprolintFindings() (int, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return 0, err
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return 0, fmt.Errorf("not inside a module")
	}
	pkgs, err := analysis.Load(filepath.Dir(gomod), true, "./...")
	if err != nil {
		return 0, err
	}
	count := 0
	for _, pkg := range pkgs {
		diags, err := analysis.RunAnalyzers(pkg, analysis.All())
		if err != nil {
			return 0, err
		}
		count += len(diags)
	}
	return count, nil
}

// measure times fn (which performs one y = A·x) and returns the point:
// GFlop/s at 2 flops per nonzero (best of reps repetitions), mean ns per
// iteration, and heap allocations per iteration from the runtime's malloc
// counter. A forced GC runs between kernels — after the warm-up, before
// the counters are read — so one kernel's garbage does not bleed into the
// next measurement's timing or allocation numbers.
func measure(matrixName, kernel string, workers int, nnz int64, reps int, fn func()) kernelPoint {
	fn() // warm up
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	best := 0.0
	totalIters := 0
	totalSecs := 0.0
	for r := 0; r < reps; r++ {
		iters := 10
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		secs := time.Since(start).Seconds()
		totalIters += iters
		totalSecs += secs
		if g := 2 * float64(nnz) / (secs / float64(iters)) / 1e9; g > best {
			best = g
		}
	}
	runtime.ReadMemStats(&after)
	return kernelPoint{
		Matrix:        matrixName,
		Kernel:        kernel,
		Workers:       workers,
		GFlops:        best,
		NsPerIter:     totalSecs / float64(totalIters) * 1e9,
		AllocsPerIter: float64(after.Mallocs-before.Mallocs) / float64(totalIters),
	}
}

// writeSnapshot measures the serial CRS, parallel CRS and SELL-C-σ node
// kernels plus the distributed modes × formats sweep (all three kernel
// organizations of Fig. 4, each with a CSR and a SELL-C-σ local part) on
// the Holstein HMeP and Poisson sAMG fixtures and writes the results as
// JSON — one file per PR (BENCH_<n>.json) tracks the repo's performance
// trajectory. The distributed sweep runs on one resident core.Cluster per
// fixture (modes switch with SetMode, formats with Convert), plus one
// "dist-…-percall" reference point that brings up a throwaway cluster per
// multiplication, quantifying what session reuse saves. modes and sweepFormats
// restrict the sweep (the -mode and -format flags); pass core.Modes and
// the default builder pair for the full matrix.
func writeSnapshot(path string, workers, reps int, modes []core.Mode, sweepFormats []matrix.FormatBuilder, transport core.TransportKind) error {
	if workers < 1 {
		return fmt.Errorf("-workers must be ≥ 1, got %d", workers)
	}
	if reps < 1 {
		return fmt.Errorf("-reps must be ≥ 1, got %d", reps)
	}
	snap := benchSnapshot{
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Scale:     "small",
		Transport: transport.String(),
	}
	fixtures := []struct {
		name string
		src  func() (matrix.ValueSource, error)
	}{
		{"HMeP", func() (matrix.ValueSource, error) { return expt.HolsteinSource(genmat.HMeP, expt.Small) }},
		{"sAMG", func() (matrix.ValueSource, error) { return expt.PoissonSource(expt.Small) }},
	}
	for _, fx := range fixtures {
		src, err := fx.src()
		if err != nil {
			return err
		}
		a := matrix.Materialize(src)
		x := make([]float64, a.NumCols)
		for i := range x {
			x[i] = 1 / float64(i+1)
		}
		y := make([]float64, a.NumRows)
		sell, err := formats.NewSELLCSigma(a, 32, 256)
		if err != nil {
			return err
		}
		team := spmv.NewTeam(workers)
		par := spmv.NewParallel(a, workers)
		parSell := spmv.NewParallelFormat(sell, workers)
		snap.Kernels = append(snap.Kernels,
			measure(fx.name, "crs-serial", 1, a.Nnz(), reps, func() { spmv.Serial(y, a, x) }),
			measure(fx.name, "crs-parallel", workers, a.Nnz(), reps, func() { par.MulVec(team, y, x) }),
			measure(fx.name, "sell-32-256-serial", 1, a.Nnz(), reps, func() { sell.MulVec(y, x) }),
			measure(fx.name, "sell-32-256-parallel", workers, a.Nnz(), reps, func() { parSell.MulVec(team, y, x) }),
		)
		team.Close()

		// Distributed modes × formats sweep on one resident core.Cluster per
		// fixture: 4 ranks × 2 threads brought up once, modes switched live
		// with SetMode and the SELL-C-σ round applied with Convert. Timings
		// cover the whole resident multiplication (halo exchange + kernel),
		// as a long-running application pays for it — no per-call world or
		// team spawn.
		const distRanks, distThreads = 4, 2
		part := core.PartitionByNnz(a, distRanks)
		buildPlan := func() (*core.Plan, error) { return core.BuildPlan(a, part, true) }
		err = func() error {
			world, err := dialSweepWorld(transport, buildPlan, a.NumRows, distThreads)
			if err != nil {
				return err
			}
			defer world.close()
			sweep := func(fmtName string) error {
				for _, mode := range modes {
					if err := world.setMode(mode); err != nil {
						return err
					}
					snap.Kernels = append(snap.Kernels, measure(
						fx.name,
						fmt.Sprintf("dist-%s-%s", mode, fmtName),
						distRanks*distThreads,
						a.Nnz(), reps,
						func() {
							if err := world.mul(x); err != nil {
								panic(err)
							}
						},
					))
				}
				return nil
			}
			// Reference point while the plan is still CSR: the same
			// multiplication on a throwaway cluster, paying world + team
			// spawn each call. The gap to the resident dist-…-crs numbers
			// is the session API's reuse win.
			snap.Kernels = append(snap.Kernels, measure(
				fx.name,
				fmt.Sprintf("dist-%s-crs-percall", modes[0]),
				distRanks*distThreads,
				a.Nnz(), reps,
				func() {
					cl, err := core.NewCluster(world.plans[0], core.WithMode(modes[0]), core.WithThreads(distThreads))
					if err != nil {
						panic(err)
					}
					defer cl.Close()
					if err := cl.Mul(y, x, 1); err != nil {
						panic(err)
					}
				},
			))
			for _, b := range sweepFormats {
				if err := world.convert(b); err != nil {
					return err
				}
				if err := sweep(b.Name()); err != nil {
					return err
				}
			}
			return nil
		}()
		if err != nil {
			return err
		}
	}

	// Resilience experiments need an SPD system for CG (HMeP is symmetric
	// but indefinite), so they run on the same deterministic SPD fixture
	// cmd/spmv-worker and examples/tcp solve: heartbeat + checkpoint
	// steady-state overhead on a loopback tcpmpi pair and time-to-recover
	// from an injected kill. See resilience.go.
	resReps := reps
	if resReps > 3 {
		resReps = 3 // whole-solve repetitions, not single iterations
	}
	rp, err := measureSPDResilience(resReps)
	if err != nil {
		return err
	}
	snap.Resilience = append(snap.Resilience, rp)
	// Serving sweep: the multi-tenant service measured end to end over
	// loopback HTTP, with bit-identity verification as a hard gate.
	sp, err := measureServing(1500 * time.Millisecond)
	if err != nil {
		return err
	}
	snap.Serving = sp
	// Modeled strong scaling: the full-scale capacity-planning sweep on the
	// simulated transport (see modeled.go). Soft-fail like reprolint — a
	// busy machine blowing the budget costs the section, not the snapshot.
	if ms, err := measureModeledScaling(90 * time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "spmv-bench: skipping modeled scaling: %v\n", err)
	} else {
		snap.Modeled = ms
	}
	// Record the static-contract state alongside the numbers; a snapshot
	// is a claim about the repo, not just the machine. Soft-fail: missing
	// toolchain context downgrades to a warning, not a lost benchmark.
	if n, err := reprolintFindings(); err != nil {
		fmt.Fprintf(os.Stderr, "spmv-bench: skipping reprolint finding count: %v\n", err)
	} else {
		snap.Reprolint = &n
	}
	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
