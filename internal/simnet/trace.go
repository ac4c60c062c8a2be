package simnet

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Span is one traced phase interval of one rank.
type Span struct {
	Rank  int
	Phase string // "gather", "exchange", "local", "remote", "full"
	T0    float64
	T1    float64
}

// Trace collects phase intervals during a simulated point (safe without
// locking: session procs execute one at a time). Attach one to
// PointConfig.Trace to enable tracing; a nil Trace records nothing.
type Trace struct {
	Spans []Span
}

func (t *Trace) add(rank int, phase string, t0, t1 float64) {
	if t == nil {
		return
	}
	t.Spans = append(t.Spans, Span{Rank: rank, Phase: phase, T0: t0, T1: t1})
}

// window returns the spans overlapping [t0, t1].
func (t *Trace) window(t0, t1 float64) []Span {
	var out []Span
	for _, s := range t.Spans {
		if s.T1 > t0 && s.T0 < t1 {
			out = append(out, s)
		}
	}
	return out
}

// LastIteration heuristically extracts the final iteration of each rank:
// the spans after the last "gather" start of rank 0.
func (t *Trace) LastIteration() []Span {
	var cut float64 = -1
	for _, s := range t.Spans {
		if s.Rank == 0 && s.Phase == "gather" && s.T0 > cut {
			cut = s.T0
		}
	}
	if cut < 0 {
		return t.Spans
	}
	return t.window(cut, 1e18)
}

// phaseGlyphs maps phases to Gantt characters, mirroring Fig. 4's legend:
// g = local gather (copy) of elements to be transferred, E = MPI exchange
// (Irecv/Isend/Waitall), L = spMVM of local elements, R = spMVM of
// nonlocal elements, F = spMVM of all elements.
var phaseGlyphs = map[string]byte{
	"gather":   'g',
	"exchange": 'E',
	"local":    'L',
	"remote":   'R',
	"full":     'F',
}

// RenderGantt draws the spans as an ASCII timeline, one communication lane
// ("C") and one worker lane ("W") per rank — the measured counterpart of
// the paper's Fig. 4 schematic. Overlap between the E bar in the C lane and
// the L bar in the W lane is exactly the paper's task-mode overlap.
func RenderGantt(w io.Writer, spans []Span, width int) error {
	if len(spans) == 0 {
		return fmt.Errorf("simnet: empty trace")
	}
	if width < 20 {
		return fmt.Errorf("simnet: gantt width %d too small", width)
	}
	t0, t1 := spans[0].T0, spans[0].T1
	maxRank := 0
	for _, s := range spans {
		if s.T0 < t0 {
			t0 = s.T0
		}
		if s.T1 > t1 {
			t1 = s.T1
		}
		if s.Rank > maxRank {
			maxRank = s.Rank
		}
	}
	if t1 <= t0 {
		t1 = t0 + 1e-9
	}
	col := func(t float64) int {
		c := int((t - t0) / (t1 - t0) * float64(width-1))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	type lane struct{ comm, work []byte }
	lanes := make([]lane, maxRank+1)
	for r := range lanes {
		lanes[r] = lane{
			comm: []byte(strings.Repeat(".", width)),
			work: []byte(strings.Repeat(".", width)),
		}
	}
	sorted := append([]Span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].T0 < sorted[j].T0 })
	for _, s := range sorted {
		g, ok := phaseGlyphs[s.Phase]
		if !ok {
			g = '?'
		}
		row := lanes[s.Rank].work
		if s.Phase == "exchange" {
			row = lanes[s.Rank].comm
		}
		for c := col(s.T0); c <= col(s.T1); c++ {
			row[c] = g
		}
	}
	for r := range lanes {
		if _, err := fmt.Fprintf(w, "rank %2d C │%s│\n", r, lanes[r].comm); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "        W │%s│\n", lanes[r].work); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "          %s\n  %.1f µs total   g=gather E=MPI exchange L=local spMVM R=nonlocal spMVM F=full spMVM\n",
		strings.Repeat("─", width+2), (t1-t0)*1e6)
	return err
}
