// Command benchmark is the repository's ruler: five workloads that stress
// different layers of the hybrid SpMV runtime, measured so that two sets of
// runs of the same code agree. README.md in this directory explains the
// workloads, the estimators and how each layer metric relates to the
// end-to-end ones.
//
//	go run ./benchmark -seed 1
//	    All five workloads: 26 round-robin rounds, then the traced pass.
//	    Prints every metric by name with its unit and writes result.json
//	    and trace-<workload>.json under -out.
//
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//	    One workload, as BENCHMARK.json's driver runs it. The last line of
//	    standard output is one JSON object: correct, attempted, failed and
//	    the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//
//	go run ./benchmark -quick
//	    Small sizes, two rounds: keeps the harness alive under `go test`.
//
//	go run ./benchmark -compare dirA dirB
//	    Compares two sets of result files (see aa.sh).
//
// It exits non-zero if any op's output differs from its reference.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "workload seed: every input vector and the random-band matrix derive from it")
		out      = flag.String("out", "benchmark/out", "directory for result.json and trace-<workload>.json")
		quick    = flag.Bool("quick", false, "small sizes, 2 rounds, 2 set-up repetitions: a smoke run, not a measurement")
		compare  = flag.Bool("compare", false, "compare two directories of result files: -compare dirA dirB")
		workload = flag.String("workload", "", "run this workload alone and end with the driver's one-line JSON result")
		seconds  = flag.Int("seconds", 0, "with -workload: measure for about this many seconds")
		trace    = flag.Int("trace", 0, "with -workload: 1 runs the traced pass and reports the per-layer metrics")
		childOf  = flag.String("child", "", "internal: serve this workload's blocks to a parent over stdin/stdout")
	)
	flag.Parse()
	sz := sizing{quick: *quick, out: *out}

	var err error
	switch {
	case *childOf != "":
		err = runChild(*childOf, *seed, sz)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two directories")
		} else {
			err = runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace == 1, sz)
	default:
		err = runAll(*seed, sz)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runContext bounds a run and ends it on SIGINT or SIGTERM; either way the
// context kills the children and run waits for them before returning.
func runContext(limit time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(ctx, limit)
	return ctx, func() { cancel(); stop() }
}

// runAll is the full benchmark: every workload, round-robin, traced pass.
func runAll(seed int64, sz sizing) error {
	pl := runPlan{specs: specs, seed: seed, sz: sz, rounds: fullRounds, trace: true, paired: pairedBlocks}
	if sz.quick {
		pl.rounds, pl.k, pl.paired = 2, 2, 1
	}
	ctx, cancel := runContext(10 * time.Minute)
	defer cancel()
	file, err := run(ctx, pl)
	if err != nil {
		return err
	}
	file.print()
	if err := file.write(sz.out); err != nil {
		return err
	}
	return file.failures()
}

// runOne is the contract of BENCHMARK.json: one workload, a time budget,
// and a last line of JSON. With tracing the window is split between the
// untraced rounds, which still give the tracing overhead its baseline, and
// the traced pass.
func runOne(name string, seed int64, seconds int, trace bool, sz sizing) error {
	sp, err := findSpec(name)
	if err != nil {
		return err
	}
	pl := runPlan{specs: []spec{sp}, seed: seed, sz: sz, rounds: minRounds, seconds: seconds, trace: trace, paired: pairedBlocks}
	if trace {
		pl.rounds, pl.seconds = minRounds/2, seconds/2
	}
	ctx, cancel := runContext(170 * time.Second)
	defer cancel()
	file, err := run(ctx, pl)
	if err != nil {
		return err
	}
	file.print()
	if err := file.write(sz.out); err != nil {
		return err
	}
	r := file.Workloads[name]
	line := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.EndToEnd}
	if trace {
		// The contract wants every per-layer metric on every workload; one
		// that does not apply to this workload reads 0.
		line.Metrics = make(metrics)
		for _, d := range perLayer {
			line.Metrics.set(d.Name, r.PerLayer[d.Name].Value)
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return file.failures()
}

// print lists every metric of every workload by name, with its unit.
func (f *resultFile) print() {
	fmt.Printf("host: %s, %d CPUs (GOMAXPROCS %d), L2 %s, L3 %s, %s, linux %s, commit %s\n",
		f.Host.CPUModel, f.Host.NProc, f.Host.GoMaxProcs, f.Host.L2, f.Host.L3, f.Host.GoVersion, f.Host.Kernel, f.Host.GitCommit)
	fmt.Printf("run: seed %d, %d rounds, %.1f s wall, %d steal ticks\n", f.Seed, f.Rounds, f.WallS, f.StealTicks)
	for _, sp := range specs {
		r, ok := f.Workloads[sp.name]
		if !ok {
			continue
		}
		fmt.Printf("\n%s: %d ops/block x %d blocks, %d set-up repetitions, %d ops attempted, %d failed\n",
			sp.name, r.OpsPerBlock, r.Blocks, r.K, r.Attempted, r.Failed)
		for _, d := range endToEnd {
			fmt.Printf("  %-28s %14.6g %s\n", d.Name, r.EndToEnd[d.Name].Value, d.Unit)
		}
		for _, d := range perLayer {
			if v, ok := r.PerLayer[d.Name]; ok {
				fmt.Printf("  %-28s %14.6g %s\n", d.Name, v.Value, d.Unit)
			}
		}
	}
}

// failures reports ops whose output failed verification as an error.
func (f *resultFile) failures() error {
	for _, sp := range specs {
		if r := f.Workloads[sp.name]; r.Failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed verification: %s", sp.name, r.Failed, r.Attempted, r.FirstError)
		}
	}
	return nil
}
