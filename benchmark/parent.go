package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// plan says what one invocation measures.
type runPlan struct {
	specs []spec
	seed  int64
	sz    sizing
	// rounds is the least number of blocks every workload runs; with
	// seconds > 0 the rounds go on until that much time has been measured.
	rounds  int
	seconds int
	// k fixes the set-up repetitions (0: the setupReps rule).
	k int
	// trace adds the traced pass: paired traced blocks alternating with as
	// many untraced ones, then the layer micro-benchmarks.
	trace  bool
	paired int
}

const (
	// fullRounds spreads each workload's blocks over the whole measurement
	// window, so that a neighbour's burst of some seconds costs every
	// workload a few blocks — which a median ignores — and not one workload
	// all of them. minRounds is the least a median of blocks is taken over.
	fullRounds = 26
	minRounds  = 12
	// pairedBlocks traced blocks are enough for a median over a few hundred
	// ops and keep the traced pass to a few seconds per workload.
	pairedBlocks = 4
	// childGrace is how long a child gets to leave its loop once its input
	// is closed: longer than any block or layer benchmark, shorter than the
	// driver's patience.
	childGrace = 20 * time.Second
)

// proc is the parent's handle on one resident child.
type proc struct {
	spec  spec
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	setup []float64
	// blocks are the untraced rounds; traced-pass blocks only add to the
	// attempted and failed counts.
	blocks            []blockResult
	rssMB, rssPeakMB  float64
	attempted, failed int
	firstErr          string
	layer             metrics
}

// ask sends one request and reads the reply.
func (p *proc) ask(req request) (reply, error) {
	var rep reply
	line, err := json.Marshal(req)
	if err != nil {
		return rep, err
	}
	if _, err := p.in.Write(append(line, '\n')); err != nil {
		return rep, fmt.Errorf("%s: %w", p.spec.name, err)
	}
	data, err := p.out.ReadBytes('\n')
	if err != nil {
		return rep, fmt.Errorf("%s: child ended: %w", p.spec.name, err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", p.spec.name, err)
	}
	if rep.Err != "" {
		return rep, fmt.Errorf("%s: %s", p.spec.name, rep.Err)
	}
	return rep, nil
}

// block asks for one block and books it.
func (p *proc) block(req request) error {
	req.Cmd = "block"
	rep, err := p.ask(req)
	if err != nil {
		return err
	}
	b := rep.Block
	p.attempted += b.Ops
	p.failed += b.Failed
	if p.firstErr == "" {
		p.firstErr = b.Err
	}
	if !req.Paired {
		p.blocks = append(p.blocks, *b)
	}
	return nil
}

// result is one workload's part of a result file.
type result struct {
	OpsPerBlock int    `json:"ops_per_block"`
	K           int    `json:"setup_reps"`
	Blocks      int    `json:"blocks"`
	Attempted   int    `json:"attempted"`
	Failed      int    `json:"failed"`
	FirstError  string `json:"first_error,omitempty"`
	// BlockS is the wall time of every untraced block in the order they
	// ran: the series shows an episode of neighbour noise as a run of slow
	// blocks, which no summary does.
	BlockS []float64 `json:"block_s"`
	// SetupS is the time of every set-up repetition, the cold first one
	// included.
	SetupS   []float64 `json:"setup_rep_s"`
	EndToEnd metrics   `json:"end_to_end"`
	PerLayer metrics   `json:"per_layer,omitempty"`
}

// resultFile is what result.json holds: enough about the host and the run
// to judge whether two files are comparable, then the numbers.
type resultFile struct {
	Host       hostFacts         `json:"host"`
	Seed       int64             `json:"seed"`
	Quick      bool              `json:"quick"`
	Rounds     int               `json:"rounds"`
	WallS      float64           `json:"wall_s"`
	StealTicks int64             `json:"steal_ticks"`
	Workloads  map[string]result `json:"workloads"`
}

// run executes the plan: one resident child per workload, set up one after
// another, then rounds in which every workload runs one block, strictly one
// child at a time; then, if asked, the traced pass, again child by child.
func run(ctx context.Context, pl runPlan) (*resultFile, error) {
	start, steal := time.Now(), stealTicks()
	if err := os.MkdirAll(pl.sz.out, 0o755); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var procs []*proc
	defer func() {
		// No path out of run leaves a child behind: each leaves its loop at
		// end of input, and one that has not ended within the grace period —
		// stuck in a block after an error — is killed. Wait returns only
		// once the process is gone.
		for _, p := range procs {
			p.in.Close()
		}
		for _, p := range procs {
			kill := time.AfterFunc(childGrace, func() { p.cmd.Process.Kill() })
			p.cmd.Wait()
			kill.Stop()
		}
	}()
	for _, sp := range pl.specs {
		args := []string{"-child", sp.name, "-seed", strconv.FormatInt(pl.seed, 10), "-out", pl.sz.out}
		if pl.sz.quick {
			args = append(args, "-quick")
		}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stderr = os.Stderr
		in, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		p := &proc{spec: sp, cmd: cmd, in: in, out: bufio.NewReader(out)}
		procs = append(procs, p)
		rep, err := p.ask(request{Cmd: "setup", K: pl.k})
		if err != nil {
			return nil, err
		}
		p.setup = rep.SetupS
	}

	rounds, window := 0, time.Duration(pl.seconds)*time.Second
	for t0 := time.Now(); rounds < pl.rounds || time.Since(t0) < window; rounds++ {
		for _, p := range procs {
			if err := p.block(request{}); err != nil {
				return nil, err
			}
		}
	}
	for _, p := range procs {
		rep, err := p.ask(request{Cmd: "rss"})
		if err != nil {
			return nil, err
		}
		p.rssMB, p.rssPeakMB = rep.RSSMB, rep.RSSPeakMB
	}
	if pl.trace {
		for _, p := range procs {
			for i := 0; i < pl.paired; i++ {
				for _, traced := range []bool{false, true} {
					if err := p.block(request{Paired: true, Traced: traced}); err != nil {
						return nil, err
					}
				}
			}
			rep, err := p.ask(request{Cmd: "layers"})
			if err != nil {
				return nil, err
			}
			p.layer = rep.Metrics
		}
	}

	file := &resultFile{
		Host: readHostFacts(), Seed: pl.seed, Quick: pl.sz.quick, Rounds: rounds,
		Workloads: make(map[string]result),
	}
	for _, p := range procs {
		file.Workloads[p.spec.name] = p.result(pl)
	}
	file.WallS, file.StealTicks = time.Since(start).Seconds(), stealTicks()-steal
	return file, nil
}

// result turns a child's blocks into the metrics. Every block yields its own
// figures — rate, median op time, CPU per op — and the run reports the quiet
// decile of each (see quiet): what the quietest tenth of the run reached.
func (p *proc) result(pl runPlan) result {
	ops := p.spec.ops(pl.sz)
	var blockS, rate, p50, cpu, opMs []float64
	var wallNs int64
	for _, b := range p.blocks {
		ms := nsToMs(b.OpNs)
		blockS = append(blockS, float64(b.WallNs)/1e9)
		rate = append(rate, float64(ops)/(float64(b.WallNs)/1e9))
		p50 = append(p50, median(ms))
		cpu = append(cpu, float64(b.CPUNs)/1e6/float64(ops))
		opMs = append(opMs, ms...)
		wallNs += b.WallNs
	}
	warm := p.setup
	if len(warm) > 1 {
		warm = warm[1:]
	}
	e := make(metrics)
	e.set("setup_s", quiet(warm, false))
	e.set("ops_per_s", quiet(rate, true))
	e.set("op_ms_p50", quiet(p50, false))
	e.set("cpu_ms_per_op", quiet(cpu, false))
	e.set("rss_mb", p.rssMB)
	r := result{
		OpsPerBlock: ops, K: len(p.setup), Blocks: len(p.blocks),
		Attempted: p.attempted, Failed: p.failed, FirstError: p.firstErr, BlockS: blockS, SetupS: p.setup, EndToEnd: e,
	}
	if p.layer != nil {
		l := p.layer
		t, pct := tail(opMs)
		q1, q2, q3 := quartiles(blockS)
		l.set("harness.op_ms_tail", t)
		l.set("harness.op_tail_pct", pct)
		l.set("harness.op_samples", float64(len(opMs)))
		l.set("harness.op_ms_median", median(opMs))
		l.set("harness.ops_per_s_median", median(rate))
		l.set("harness.ops_per_s_mean", float64(ops*len(p.blocks))/(float64(wallNs)/1e9))
		l.set("harness.block_iqr_pct", 100*(q3-q1)/q2)
		l.set("harness.rss_peak_mb", p.rssPeakMB)
		r.PerLayer = l
	}
	return r
}

// quiet is the estimator behind every timed end-to-end metric: the value a
// tenth of the way in from the best of the fixed-work units measured
// (blocks, set-up repetitions) — the best but one of 12 blocks, the best of
// fewer than ten. The noise of a shared host is one-sided: a neighbour can
// make a block slower, nothing makes it faster than the machine allows. It
// also comes in episodes of seconds to minutes that cover a third or more
// of a run, so a mean moves with every episode and a median as soon as half
// the blocks are hit, while the quiet end of the distribution holds as long
// as a tenth of the run was undisturbed. Stepping in from the very best
// unit keeps one freak block from setting the figure.
func quiet(v []float64, higherIsBetter bool) float64 {
	s := sorted(v)
	if len(s) == 0 {
		return 0
	}
	i := len(s) / 10
	if higherIsBetter {
		i = len(s) - 1 - i
	}
	return s[i]
}

// write stores the result file under the out directory.
func (f *resultFile) write(dir string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), append(data, '\n'), 0o644)
}
