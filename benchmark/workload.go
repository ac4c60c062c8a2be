package main

import (
	"fmt"
	"time"
)

// workload is one named set of inputs and the operation measured on them.
// The child process owns exactly one.
type workload interface {
	// setup performs the complete set-up a user of the system pays before
	// the first result — source, matrix, partition, plan, world, first op —
	// recording one span per stage. It may be called again after teardown.
	setup(tr *tracer) error
	// reference computes, once, the outputs every later op is compared
	// with. It is harness work and excluded from set-up time.
	reference() error
	// block runs one untimed warm-up op and then ops timed ops.
	block(tr *tracer, ops int) blockResult
	// layers runs the workload's layer micro-benchmarks into m.
	layers(m metrics) error
	// facts reports the exact, seed-stable quantities of the set-up.
	facts(m metrics)
	teardown()
}

// blockResult is what one block measured. WallNs is the time the block's
// timed ops took (verification excluded), OpNs the time of each, CPUNs the
// process's user+system CPU over the same ops; Failed counts ops whose
// output differed from the reference or that returned an error.
type blockResult struct {
	WallNs int64   `json:"wall_ns"`
	OpNs   []int64 `json:"op_ns"`
	CPUNs  int64   `json:"cpu_ns"`
	Ops    int     `json:"ops"`
	Failed int     `json:"failed"`
	Err    string  `json:"err,omitempty"`
}

// serialBlock is block for workloads whose ops run one after another. op
// performs one operation under the root span serialBlock opened for it; it
// is handed a nil tracer for the warm-up and when tracing is off. Timing and
// CPU accounting stop before verify compares the output with the reference.
func serialBlock(tr *tracer, ops int, op func(tr *tracer, id, root int) error, verify func() error) blockResult {
	res := blockResult{Ops: ops}
	fail := func(err error) {
		res.Failed++
		if res.Err == "" {
			res.Err = err.Error()
		}
	}
	if err := op(nil, -1, -1); err != nil { // warm-up, untimed and untraced
		fail(err)
	}
	for i := 0; i < ops; i++ {
		id := tr.nextOp()
		cpu0, t0 := cpuTime(), time.Now()
		root := tr.begin("op", id, -1, -1)
		err := op(tr, id, root)
		tr.end(root)
		d := time.Since(t0)
		res.CPUNs += int64(cpuTime() - cpu0)
		res.OpNs = append(res.OpNs, d.Nanoseconds())
		res.WallNs += d.Nanoseconds()
		if err == nil {
			err = verify()
		}
		if err != nil {
			fail(err)
		}
	}
	return res
}

// stage times one set-up stage under the set-up's root span.
func stage[T any](tr *tracer, root int, name string, f func() (T, error)) (T, error) {
	id := tr.begin(name, -1, root, -1)
	v, err := f()
	tr.end(id)
	if err != nil {
		return v, fmt.Errorf("%s: %w", name, err)
	}
	return v, nil
}

// sizing is how large a run is. The full sizes are the benchmark; quick
// sizes exist so that `go test` can keep the harness alive in seconds.
type sizing struct {
	quick bool
	// out is the directory result and trace files go to; scratch files
	// (the checkpoint the solver layer saves) stay under it too.
	out string
}

// pick returns full or quick.
func (s sizing) pick(full, quick int) int {
	if s.quick {
		return quick
	}
	return full
}

// spec declares a workload: its name, why it exists (BENCHMARK.json and
// README.md quote it), its fixed work per block, and its constructor.
type spec struct {
	name string
	why  string
	// opsPerBlock is the fixed count of timed ops in one block, sized so a
	// block lasts about half a second on the reference host.
	opsPerBlock, quickOps int
	build                 func(seed int64, sz sizing) (workload, error)
}

var specs = []spec{
	{
		name:        "samg-mul-chan",
		why:         "memory-bound regime: 96 MB of Poisson matrix streamed per MVM, halo <0.3% of traffic; kernel and format work shows here, transport work must not",
		opsPerBlock: 15, quickOps: 3,
		build: newSamgMul,
	},
	{
		name:        "hmep-mul-tcp",
		why:         "communication-heavy regime: cache-resident HMeP over a tcp pair, halo 60% of the local vector, so gather, framing and the task-mode rendezvous are ~30% of the op",
		opsPerBlock: 50, quickOps: 4,
		build: newHmepMul,
	},
	{
		name:        "samg-cg-tcp",
		why:         "time to a solution of stated accuracy: CG to 1e-8 over tcp in vector mode, 2 latency-bound allreduces per iteration; small-message latency shows here",
		opsPerBlock: 4, quickOps: 1,
		build: newSamgCG,
	},
	{
		name:        "serve-mul-http",
		why:         "request path: closed loop, 2 clients x 2 tenants POST /v1/mul with explicit x; ~93% of the op is HTTP/JSON/admission/dispatch, kernel work must not show",
		opsPerBlock: 160, quickOps: 20,
		build: newServeMul,
	},
	{
		name:        "sim-sweep",
		why:         "capacity planning: task/vector/naive RunPoint of HMeP at 128 virtual ranks; des/fluid/simnet do all the work and event counts repeat exactly",
		opsPerBlock: 1, quickOps: 1,
		build: newSimSweep,
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

func (s spec) ops(sz sizing) int { return sz.pick(s.opsPerBlock, s.quickOps) }
