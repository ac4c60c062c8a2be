package simnet

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

// traceRun simulates a 2-node per-LD run of the given mode with tracing.
func traceRun(t *testing.T, mode core.Mode) *Trace {
	t.Helper()
	const ranks = 4
	rows := 30000
	wl := uniformRing(ranks, rows, int64(rows*12), int64(rows*3), 90000)
	cluster := machine.WestmereCluster()
	cluster.Net.EagerThreshold = 0
	tr := &Trace{}
	cfg := PointConfig{
		Cluster: cluster, Nodes: 2, Layout: ProcPerLD, Mode: mode,
		Warmup: 1, Iters: 2, Trace: tr,
	}
	if _, err := RunPoint(cfg, wl); err != nil {
		t.Fatal(err)
	}
	return tr
}

func spansByPhase(spans []Span, rank int) map[string][]Span {
	m := map[string][]Span{}
	for _, s := range spans {
		if s.Rank == rank {
			m[s.Phase] = append(m[s.Phase], s)
		}
	}
	return m
}

func TestTracePhasesPerMode(t *testing.T) {
	cases := []struct {
		mode core.Mode
		want []string
	}{
		{core.VectorNoOverlap, []string{"gather", "exchange", "full"}},
		{core.VectorNaiveOverlap, []string{"gather", "local", "exchange", "remote"}},
		{core.TaskMode, []string{"gather", "local", "exchange", "remote"}},
	}
	for _, c := range cases {
		tr := traceRun(t, c.mode)
		phases := spansByPhase(tr.Spans, 0)
		for _, p := range c.want {
			if len(phases[p]) == 0 {
				t.Errorf("%v: no %q spans traced", c.mode, p)
			}
		}
	}
}

// TestTaskModeOverlapVisibleInTrace is Fig. 4c as data: in task mode the
// exchange span and the local-compute span of the same rank overlap; in
// naive overlap mode they do not (the transfer happens inside Waitall,
// after the local part).
func TestTaskModeOverlapVisibleInTrace(t *testing.T) {
	overlap := func(mode core.Mode) float64 {
		tr := traceRun(t, mode)
		spans := tr.LastIteration()
		phases := spansByPhase(spans, 0)
		if len(phases["exchange"]) == 0 || len(phases["local"]) == 0 {
			t.Fatalf("%v: missing spans", mode)
		}
		ex := phases["exchange"][0]
		lo := phases["local"][0]
		start := ex.T0
		if lo.T0 > start {
			start = lo.T0
		}
		end := ex.T1
		if lo.T1 < end {
			end = lo.T1
		}
		if end < start {
			return 0
		}
		return end - start
	}
	taskOverlap := overlap(core.TaskMode)
	naiveOverlap := overlap(core.VectorNaiveOverlap)
	if taskOverlap <= 0 {
		t.Errorf("task mode shows no comm/compute overlap in the trace")
	}
	if naiveOverlap > taskOverlap/10 {
		t.Errorf("naive overlap (%g) should show ~no overlap vs task (%g)", naiveOverlap, taskOverlap)
	}
}

func TestRenderGantt(t *testing.T) {
	tr := traceRun(t, core.TaskMode)
	var buf bytes.Buffer
	if err := RenderGantt(&buf, tr.LastIteration(), 72); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"rank  0 C", "W │", "E", "L"} {
		if !strings.Contains(out, want) {
			t.Errorf("gantt missing %q:\n%s", want, out)
		}
	}
	if err := RenderGantt(&buf, nil, 72); err == nil {
		t.Error("empty trace accepted")
	}
	if err := RenderGantt(&buf, tr.Spans, 5); err == nil {
		t.Error("tiny width accepted")
	}
}

// TestTraceDoesNotPerturbPoint: tracing observes a point without moving
// it — the same time per iteration and the same DES event count.
func TestTraceDoesNotPerturbPoint(t *testing.T) {
	wl := uniformRing(4, 30000, 30000*12, 30000*3, 90000)
	for _, mode := range core.Modes {
		cfg := PointConfig{Cluster: machine.WestmereCluster(), Nodes: 2, Layout: ProcPerLD, Mode: mode}
		plain := run(t, cfg, wl)
		cfg.Trace = &Trace{}
		traced := run(t, cfg, wl)
		if traced.TimePerIter != plain.TimePerIter || traced.Events != plain.Events {
			t.Errorf("%v: traced (t=%v, events=%d) vs untraced (t=%v, events=%d)",
				mode, traced.TimePerIter, traced.Events, plain.TimePerIter, plain.Events)
		}
		if len(cfg.Trace.Spans) == 0 {
			t.Errorf("%v: nothing traced", mode)
		}
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.add(0, "x", 0, 1) // must not panic
}

func TestTraceWindow(t *testing.T) {
	tr := &Trace{Spans: []Span{
		{Rank: 0, Phase: "a", T0: 0, T1: 1},
		{Rank: 0, Phase: "b", T0: 2, T1: 3},
	}}
	w := tr.Window(1.5, 2.5)
	if len(w) != 1 || w[0].Phase != "b" {
		t.Errorf("window = %+v", w)
	}
}
