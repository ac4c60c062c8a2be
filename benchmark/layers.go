package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/perfmodel"
	"repro/internal/serve"
	"repro/internal/spmv"
	"repro/internal/stream"
)

// The layer micro-benchmarks run once per invocation, after the rounds, in
// the traced pass. Each reports a median over fixed-work repetitions, so a
// neighbour's burst costs a few repetitions, not the figure.

// medianSeconds runs f once untimed and then reps times, and returns the
// median duration of one call in seconds.
func medianSeconds(reps int, f func()) float64 {
	f()
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = time.Since(t0).Seconds()
	}
	return median(d)
}

// medianSecondsErr is medianSeconds for a call that can fail.
func medianSecondsErr(reps int, f func() error) (float64, error) {
	var first error
	s := medianSeconds(reps, func() {
		if err := f(); err != nil && first == nil {
			first = err
		}
	})
	return s, first
}

// streamElems is the STREAM array length: three arrays of 128 MiB each, 384
// MiB in all, which exceeds the host's whole shared L3 (260 MiB) and is 32
// times one core's L2, so the triad cannot run from cache.
const streamElems = 16 << 20

// kernelLayers measures the node kernel on the workload's full matrix: the
// plain single-threaded CRS baseline, the two-thread team, the Eq. 2 cost
// of splitting rank 0's kernel, SELL-32-256, and the fraction of the Eq. 1
// bandwidth bound with the triad measured in the same pass at the same
// worker count. perfmodel.code_balance is computed (κ = 0), not measured.
func kernelLayers(m metrics, a *matrix.CSR, plan *core.Plan, sz sizing) error {
	reps := sz.pick(9, 2)
	flops := 2 * float64(len(a.Val))
	x := make([]float64, a.NumCols)
	y := make([]float64, a.NumRows)
	serve.FillVector(x, 1)

	m.set("spmv.serial_gflops", flops/medianSeconds(reps, func() { spmv.Serial(y, a, x) })/1e9)

	team := spmv.NewTeam(ranks)
	defer team.Close()
	par := spmv.NewParallel(a, ranks)
	parallel := flops / medianSeconds(reps, func() { par.MulVec(team, y, x) }) / 1e9
	m.set("spmv.parallel_gflops", parallel)
	const forks = 100
	m.set("spmv.team_forkjoin_us", 1e6/forks*medianSeconds(reps, func() {
		for i := 0; i < forks; i++ {
			team.Run(func(int) {})
		}
	}))

	rp := plan.Ranks[0]
	one := spmv.NewTeam(1)
	defer one.Close()
	xl := make([]float64, rp.VectorLen())
	yl := make([]float64, rp.Rows.Len())
	serve.FillVector(xl, 2)
	split := rp.Split.AsFormatSplit()
	local, remote := split.LocalChunks(1), split.RemoteChunks(1)
	unsplit := medianSeconds(reps, func() { spmv.Serial(yl, rp.A, xl) })
	both := medianSeconds(reps, func() {
		split.MulVecLocal(one, local, yl, xl)
		split.MulVecRemoteAdd(one, remote, yl, xl)
	})
	m.set("spmv.split_penalty_pct", 100*(both-unsplit)/unsplit)

	t0 := time.Now()
	sell, err := formats.NewSELLCSigma(a, 32, 256)
	if err != nil {
		return err
	}
	m.set("formats.sell_convert_s", time.Since(t0).Seconds())
	m.set("formats.sell_beta", 1/sell.PaddingRatio())
	m.set("formats.sell_serial_gflops", flops/medianSeconds(reps, func() { sell.MulVec(y, x) })/1e9)

	n := sz.pick(streamElems, 1<<18)
	m.set("stream.triad_gbs.1", stream.Triad(n, sz.pick(5, 2), 1).BytesPerSec/1e9)
	triad := stream.Triad(n, sz.pick(5, 2), ranks).BytesPerSec
	m.set("stream.triad_gbs.2", triad/1e9)
	balance := perfmodel.CodeBalance(float64(len(a.Val))/float64(a.NumRows), 0)
	bound := perfmodel.MaxPerformance(triad, balance) / 1e9
	m.set("perfmodel.code_balance", balance)
	m.set("perfmodel.bound_gflops", bound)
	m.set("spmv.frac_of_bound", parallel/bound)
	return nil
}

// stepLayers measures the cluster step on the workload's own world: one
// multiplication in each of the paper's three kernel organisations, the
// cost of submitting a job that does nothing, and the heap allocations of
// one op (the runtime's contract is zero on the chan transport).
func stepLayers(m metrics, w *world, x []float64, sz sizing, home core.Mode, op func() error) error {
	reps := sz.pick(41, 3)
	ms := make(map[core.Mode]float64)
	for _, mode := range core.Modes {
		if err := w.setMode(mode); err != nil {
			return err
		}
		s, err := medianSecondsErr(reps, func() error { return w.mul(x, 1) })
		if err != nil {
			return err
		}
		ms[mode] = 1e3 * s
	}
	if err := w.setMode(home); err != nil {
		return err
	}
	m.set("core.mvm_ms.task", ms[core.TaskMode])
	m.set("core.mvm_ms.vector", ms[core.VectorNoOverlap])
	m.set("core.mvm_ms.naive", ms[core.VectorNaiveOverlap])
	m.set("core.overlap_gain_pct", 100*(ms[core.VectorNoOverlap]-ms[core.TaskMode])/ms[core.VectorNoOverlap])

	submit, err := medianSecondsErr(sz.pick(201, 5), func() error {
		return w.run(func(*core.Worker) error { return nil })
	})
	if err != nil {
		return err
	}
	m.set("core.job_submit_us", 1e6*submit)

	allocs, err := allocsPerCall(sz.pick(10, 2), op)
	if err != nil {
		return err
	}
	m.set("core.allocs_per_op", allocs)
	return nil
}

// allocsPerCall returns the mean number of heap allocations of one call of f.
func allocsPerCall(calls int, f func() error) (float64, error) {
	if err := f(); err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(calls), nil
}

// commLayers measures the world's transport from a Run body, on the same
// communicators the workload's ops use: half the round trip of an 8-byte
// message, the one-way rate of one message of the workload's halo size, a
// scalar allreduce and a barrier. Rank 0 keeps the clock.
func commLayers(m metrics, w *world, sz sizing) error {
	prefix := "chanmpi."
	if len(w.cls) > 1 {
		prefix = "tcpmpi."
	}
	const batch = 10
	samples := sz.pick(101, 3)
	halo := max(w.plan.Ranks[0].HaloSize(), 1)
	var pingpong, bulk, allreduce, barrier []float64
	err := w.run(func(wk *core.Worker) error {
		c := wk.Comm
		me, peer := c.Rank(), 1-c.Rank()
		send := func(buf []float64) error {
			req, err := c.Isend(peer, 7, buf)
			if err != nil {
				return err
			}
			return req.Wait()
		}
		recv := func(buf []float64) error {
			req, err := c.Irecv(peer, 7, buf)
			if err != nil {
				return err
			}
			return req.Wait()
		}
		// sample times batch repetitions of f and returns the seconds of one.
		sample := func(f func() error) (float64, error) {
			t0 := time.Now()
			for i := 0; i < batch; i++ {
				if err := f(); err != nil {
					return 0, err
				}
			}
			return time.Since(t0).Seconds() / batch, nil
		}
		roundTrip := func(buf []float64) func() error {
			return func() error {
				first, second := send, recv
				if me != 0 {
					first, second = recv, send
				}
				if err := first(buf); err != nil {
					return err
				}
				return second(buf)
			}
		}
		kinds := []struct {
			out *[]float64
			f   func() error
		}{
			{&pingpong, roundTrip(make([]float64, 1))},
			{&bulk, roundTrip(make([]float64, halo))},
			{&allreduce, func() error { _, err := c.AllreduceScalar(core.OpSum, 1); return err }},
			{&barrier, c.Barrier},
		}
		for _, k := range kinds {
			for i := 0; i <= samples; i++ {
				s, err := sample(k.f)
				if err != nil {
					return err
				}
				if me == 0 && i > 0 { // sample 0 is the warm-up
					*k.out = append(*k.out, s)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set(prefix+"pingpong_us", 1e6*median(pingpong)/2)
	m.set(prefix+"bulk_gbs", 8*float64(halo)/(median(bulk)/2)/1e9)
	m.set(prefix+"allreduce_us", 1e6*median(allreduce))
	m.set(prefix+"barrier_us", 1e6*median(barrier))
	return nil
}
