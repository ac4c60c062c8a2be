package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Op identifies the
// operation (all spans of one op share it; set-up spans carry -1), Parent
// is the ID of the span that caused this one (-1 for a root), and Rank is
// the message-passing rank the call ran on (-1 for calls made by the
// harness goroutine itself). Times are nanoseconds since the tracer's epoch.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	Rank    int    `json:"rank"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the child exits. A nil *tracer is the
// tracing-off state: begin and end do nothing, so the untraced rounds pay
// one nil check per layer boundary.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), op: -1} }

// nextOp starts a new operation and returns its identifier.
func (t *tracer) nextOp() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op++
	return t.op
}

// begin opens a span and returns its ID (-1 when tracing is off).
func (t *tracer) begin(name string, op, parent, rank int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Op: op, Parent: parent, Rank: rank, StartNs: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// add records a span whose interval the caller worked out (the serving
// split a server reports inside its response) and returns its ID.
func (t *tracer) add(name string, op, parent int, startNs, endNs int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Op: op, Parent: parent, Rank: -1, StartNs: startNs, EndNs: endNs})
	return id
}

// now returns the tracer's clock, for callers that compute span intervals.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Nanoseconds()
}

// layerTime is one row of a trace summary: how often a span name occurred
// and how much time it held, in total and by itself.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// traceSummary condenses the spans of the traced ops. Self time is a span's
// duration minus the part of it its children cover (children of different
// ranks run side by side, so their union is what counts). SelfSumPct checks
// the books: per op, the self times of the harness-side spans plus those of
// the rank that finished last — the one the op waited for — should add up
// to the op's own duration. SkewPct is how much less the other rank spent
// in the same calls: time the slower rank kept the faster one waiting.
type traceSummary struct {
	Ops        int         `json:"ops"`
	OpMs       float64     `json:"op_ms_p50"`
	SelfSumPct float64     `json:"self_sum_pct"`
	SkewPct    float64     `json:"rank_skew_pct"`
	Layers     []layerTime `json:"layers"`
}

func summarize(spans []span) traceSummary {
	children := make(map[int][]int)
	byOp := make(map[int][]int)
	for i, s := range spans {
		if s.Op < 0 {
			continue
		}
		byOp[s.Op] = append(byOp[s.Op], i)
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	// self is a span's duration less the union of its children's intervals.
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(spans[k].StartNs, edge), min(spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndNs - s.StartNs - covered
	}
	layers := make(map[string]*layerTime)
	var opMs, sumPct, skewPct []float64
	for _, idx := range byOp {
		root, lastRank, lastEnd := -1, -1, int64(0)
		perRank := make(map[int]int64)
		for _, i := range idx {
			s := spans[i]
			if s.Parent < 0 {
				root = i
			}
			if s.Rank >= 0 {
				perRank[s.Rank] += self[i]
				if s.EndNs >= lastEnd {
					lastRank, lastEnd = s.Rank, s.EndNs
				}
			}
		}
		if root < 0 {
			continue
		}
		var sum int64
		for _, i := range idx {
			s := spans[i]
			l := layers[s.Name]
			if l == nil {
				l = &layerTime{Name: s.Name}
				layers[s.Name] = l
			}
			l.Count++
			l.TotalMs += float64(s.EndNs-s.StartNs) / 1e6
			l.SelfMs += float64(self[i]) / 1e6
			if s.Rank < 0 || s.Rank == lastRank {
				sum += self[i]
			}
		}
		dur := float64(spans[root].EndNs - spans[root].StartNs)
		opMs = append(opMs, dur/1e6)
		sumPct = append(sumPct, 100*float64(sum)/dur)
		if len(perRank) > 1 {
			lo, hi := int64(math.MaxInt64), int64(0)
			for _, v := range perRank {
				lo, hi = min(lo, v), max(hi, v)
			}
			skewPct = append(skewPct, 100*float64(hi-lo)/float64(hi))
		}
	}
	out := traceSummary{Ops: len(opMs), OpMs: median(opMs), SelfSumPct: median(sumPct), SkewPct: median(skewPct)}
	for _, l := range layers {
		out.Layers = append(out.Layers, *l)
	}
	sort.Slice(out.Layers, func(a, b int) bool { return out.Layers[a].Name < out.Layers[b].Name })
	return out
}
