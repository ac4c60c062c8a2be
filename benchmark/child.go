package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// The parent and each child talk over the child's stdin and stdout, one
// JSON object per line each way. Between requests a child is blocked in a
// pipe read, so only the child the parent has just asked can be running.

// request is one line from the parent.
type request struct {
	// Cmd is "setup", "block", "rss" or "layers". Closing the pipe ends the
	// child.
	Cmd string `json:"cmd"`
	// K, for setup, fixes the number of set-up repetitions (0: by rule).
	K int `json:"k,omitempty"`
	// Traced, for block, records spans; Paired marks the blocks of the
	// traced pass, where traced and untraced blocks alternate so that the
	// tracing overhead is read from neighbours in time.
	Traced bool `json:"traced,omitempty"`
	Paired bool `json:"paired,omitempty"`
}

// reply is one line from the child; which fields are set follows the request.
type reply struct {
	Err string `json:"err,omitempty"`
	// setup: seconds of every repetition, first (cold) one included.
	SetupS []float64 `json:"setup_s,omitempty"`
	// block
	Block *blockResult `json:"block,omitempty"`
	// rss: resident set after a collection, and its high-water mark.
	RSSMB     float64 `json:"rss_mb,omitempty"`
	RSSPeakMB float64 `json:"rss_peak_mb,omitempty"`
	// layers
	Metrics metrics `json:"metrics,omitempty"`
}

// child is the resident process of one workload.
type child struct {
	spec spec
	seed int64
	sz   sizing
	w    workload

	setupSpans []span               // stages of the set-up that was kept
	stages     map[string][]float64 // seconds per stage, warm repetitions
	coldS      float64
	tr         *tracer   // the traced pass
	plainMs    []float64 // op times of the traced pass's untraced blocks
	tracedMs   []float64 // and of its traced ones
}

// runChild serves the parent's requests until the pipe closes.
func runChild(name string, seed int64, sz sizing) error {
	runtime.GOMAXPROCS(computeProcs())
	sp, err := findSpec(name)
	if err != nil {
		return err
	}
	c := &child{spec: sp, seed: seed, sz: sz, stages: make(map[string][]float64)}
	if c.w, err = sp.build(seed, sz); err != nil {
		return err
	}
	defer func() { c.w.teardown() }()
	in := bufio.NewReader(os.Stdin)
	out := json.NewEncoder(os.Stdout)
	for {
		line, err := in.ReadBytes('\n')
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		var req request
		if err := json.Unmarshal(line, &req); err != nil {
			return err
		}
		rep := c.serve(req)
		if err := out.Encode(rep); err != nil {
			return err
		}
	}
}

func (c *child) serve(req request) reply {
	var rep reply
	var err error
	switch req.Cmd {
	case "setup":
		rep.SetupS, err = c.setup(req.K)
	case "block":
		tr := (*tracer)(nil)
		if req.Traced {
			if c.tr == nil {
				c.tr = newTracer()
			}
			tr = c.tr
		}
		res := c.w.block(tr, c.spec.ops(c.sz))
		switch {
		case req.Paired && req.Traced:
			c.tracedMs = append(c.tracedMs, nsToMs(res.OpNs)...)
		case req.Paired:
			c.plainMs = append(c.plainMs, nsToMs(res.OpNs)...)
		}
		rep.Block = &res
	case "rss":
		// What the set-up workload holds once garbage is gone: collect, hand
		// freed pages back, then read the resident set. The high-water mark
		// beside it also counts what set-up repetitions left lying about
		// until the collector caught up, which depends on when it ran.
		runtime.GC() // a second cycle, below, also empties the sync.Pools
		debug.FreeOSMemory()
		rep.RSSMB, rep.RSSPeakMB = statusMB("VmRSS:"), statusMB("VmHWM:")
	case "layers":
		rep.Metrics, err = c.layers()
	default:
		err = fmt.Errorf("unknown command %q", req.Cmd)
	}
	if err != nil {
		rep.Err = err.Error()
	}
	return rep
}

// setupReps is how often the complete set-up is repeated: often enough to
// fill three seconds, at least 9 and at most 31 times. The first repetition
// pays the page faults of a fresh heap and is reported on its own
// (harness.setup_cold_s); setup_s comes from the others.
func setupReps(cold time.Duration) int {
	return max(9, min(31, int(math.Ceil(3/cold.Seconds()))))
}

// setup repeats the workload's complete set-up, keeps the last one for the
// rounds, and computes the reference outputs on it.
func (c *child) setup(k int) ([]float64, error) {
	var all []float64
	for rep := 1; ; rep++ {
		runtime.GC() // each repetition starts from a collected heap; the collector stays on
		tr := newTracer()
		t0 := time.Now()
		if err := c.w.setup(tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		all = append(all, d.Seconds())
		if rep == 1 {
			c.coldS = d.Seconds()
			if k == 0 {
				k = setupReps(d)
			}
		} else {
			for _, s := range tr.spans {
				c.stages[s.Name] = append(c.stages[s.Name], float64(s.EndNs-s.StartNs)/1e9)
			}
		}
		if rep >= k {
			c.setupSpans = tr.spans
			break
		}
		c.w.teardown()
	}
	if err := c.w.reference(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return all, nil
}

// stageMetrics maps set-up span names to the per-layer metrics they feed.
var stageMetrics = map[string]string{
	"genmat.source":         "genmat.source_s",
	"matrix.materialize":    "matrix.materialize_s",
	"core.partition":        "core.partition_s",
	"core.plan_build":       "core.plan_build_s",
	"core.cluster_up":       "core.cluster_up_s",
	"serve.register":        "serve.register_s",
	"simnet.workload_build": "simnet.workload_build_s",
}

// layers closes the traced pass: exact facts, set-up stages, the workload's
// layer micro-benchmarks, and what the spans of the traced blocks say. It
// writes the trace file.
func (c *child) layers() (metrics, error) {
	m := make(metrics)
	c.w.facts(m)
	m.set("harness.setup_cold_s", c.coldS)
	for stage, name := range stageMetrics {
		if s, ok := c.stages[stage]; ok {
			m.set(name, median(s))
		}
	}
	if err := c.w.layers(m); err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	var spans []span
	if c.tr != nil {
		spans = c.tr.spans
	}
	sum := summarize(spans)
	m.set("harness.trace_self_sum_pct", sum.SelfSumPct)
	if sum.SkewPct > 0 {
		m.set("core.step_skew_pct", sum.SkewPct)
	}
	if base := median(c.plainMs); base > 0 {
		m.set("harness.trace_overhead_pct", 100*(median(c.tracedMs)-base)/base)
	}
	return m, c.writeTrace(sum, spans)
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Summary  traceSummary `json:"summary"`
	Setup    []span       `json:"setup_spans"`
	Ops      []span       `json:"op_spans"`
}

func (c *child) writeTrace(sum traceSummary, spans []span) error {
	data, err := json.Marshal(traceFile{Workload: c.spec.name, Seed: c.seed, Summary: sum, Setup: c.setupSpans, Ops: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(c.sz.out, "trace-"+c.spec.name+".json"), data, 0o644)
}
