package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestQuickRun builds the command, runs it at quick sizes and checks that
// every metric the catalogue names comes out with its unit, that every op
// verified, and that each workload left a trace file. It keeps the harness
// alive under `go test ./...` without paying for a measurement.
func TestQuickRun(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-quick", "-seed", "3", "-out", dir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("benchmark -quick: %v\n%s%s", err, stdout.String(), stderr.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.Host.GoVersion == "" || file.Host.NProc < 1 || file.WallS <= 0 || file.Seed != 3 {
		t.Errorf("host facts incomplete: %+v", file)
	}
	seen := make(map[string]bool)
	for _, sp := range specs {
		r, ok := file.Workloads[sp.name]
		if !ok {
			t.Errorf("%s: missing from result.json", sp.name)
			continue
		}
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %s", sp.name, r.Failed, r.Attempted, r.FirstError)
		}
		for _, d := range endToEnd {
			if v, ok := r.EndToEnd[d.Name]; !ok || v.Unit != d.Unit || v.Value <= 0 {
				t.Errorf("%s: %s = %+v, want a positive value in %s", sp.name, d.Name, v, d.Unit)
			}
			if !strings.Contains(stdout.String(), d.Name) {
				t.Errorf("%s is not printed", d.Name)
			}
		}
		for name, v := range r.PerLayer {
			seen[name] = true
			if v.Unit != units[name] {
				t.Errorf("%s: %s has unit %q, want %q", sp.name, name, v.Unit, units[name])
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+sp.name+".json")); err != nil {
			t.Errorf("%s: %v", sp.name, err)
		}
	}
	for _, d := range perLayer {
		if !seen[d.Name] {
			t.Errorf("per-layer metric %s was measured on no workload", d.Name)
		}
	}
}

// TestContractFile keeps BENCHMARK.json and the catalogue in step.
func TestContractFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the catalogue:\n%+v\n%+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the catalogue")
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(specs))
	}
	for i, sp := range specs {
		if doc.Workloads[i].Name != sp.name || doc.Workloads[i].Why != sp.why {
			t.Errorf("workload %d is %+v, want %s: %s", i, doc.Workloads[i], sp.name, sp.why)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4),
// which the driver judging the benchmark uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 4, 7, 2, 9, 3, 8, 5, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

// TestCompareVerdicts feeds -compare two synthetic sets and checks the rule:
// within the bound is same, beyond it worse, and a spread wider than the
// bound is unresolved unless the sets do not overlap.
func TestCompareVerdicts(t *testing.T) {
	set := func(dir string, opsPerS ...float64) {
		for i, v := range opsPerS {
			e := metrics{}
			for _, d := range endToEnd {
				e.set(d.Name, 1)
			}
			e.set("ops_per_s", v)
			f := resultFile{Workloads: map[string]result{"sim-sweep": {EndToEnd: e}}}
			run := filepath.Join(dir, "run"+string(rune('0'+i)))
			if err := os.MkdirAll(run, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := f.write(run); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := t.TempDir()
	a, same, worse, noisy := base+"/a", base+"/same", base+"/worse", base+"/noisy"
	set(a, 100, 101, 99, 100, 102)
	set(same, 97, 98, 99, 97, 96)
	set(worse, 80, 81, 79, 80, 82)
	set(noisy, 70, 130, 100, 60, 140)
	for _, c := range []struct {
		dir, verdict string
		fails        bool
	}{{same, "same", false}, {worse, "worse", true}, {noisy, "unresolved", true}} {
		var out bytes.Buffer
		err := runCompare(&out, a, c.dir)
		if (err != nil) != c.fails {
			t.Errorf("%s: err = %v, want failure %v", c.verdict, err, c.fails)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "ops_per_s") && !strings.HasSuffix(line, c.verdict) {
				t.Errorf("want verdict %s, got: %s", c.verdict, line)
			}
		}
	}
}

// TestSummarizeSelfTime checks the span arithmetic on one op of two ranks:
// children of different ranks overlap, so the parent's self time is what
// their union leaves, and the books are balanced on the rank that ended last.
func TestSummarizeSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "op", Op: 0, Parent: -1, Rank: -1, StartNs: 0, EndNs: 100},
		{ID: 1, Name: "core.run", Op: 0, Parent: 0, Rank: -1, StartNs: 10, EndNs: 90},
		{ID: 2, Name: "core.step", Op: 0, Parent: 1, Rank: 0, StartNs: 20, EndNs: 60},
		{ID: 3, Name: "core.step", Op: 0, Parent: 1, Rank: 1, StartNs: 30, EndNs: 80},
		{ID: 4, Name: "setup", Op: -1, Parent: -1, Rank: -1, StartNs: 0, EndNs: 1000},
	}
	sum := summarize(spans)
	if sum.Ops != 1 || sum.OpMs != 100e-6 {
		t.Fatalf("ops %d, op %v ms", sum.Ops, sum.OpMs)
	}
	self := make(map[string]float64)
	for _, l := range sum.Layers {
		self[l.Name] = l.SelfMs * 1e6
	}
	// op: 100 − 80 = 20; run: 80 − union[20,80) = 20; steps: 40 + 50.
	if self["op"] != 20 || self["core.run"] != 20 || self["core.step"] != 90 {
		t.Errorf("self times %v", self)
	}
	// Rank 1 ended last: 20 + 20 + 50 of 100. Rank 0 spent a fifth less.
	if sum.SelfSumPct != 90 || sum.SkewPct != 20 {
		t.Errorf("self sum %v%%, skew %v%%", sum.SelfSumPct, sum.SkewPct)
	}
}

// TestQuiet pins the estimator: a tenth of the way in from the better end.
func TestQuiet(t *testing.T) {
	v := []float64{9, 3, 7, 1, 5, 11, 2, 8, 4, 6, 10, 12} // 12 blocks: the best but one
	if lo, hi := quiet(v, false), quiet(v, true); lo != 2 || hi != 11 {
		t.Errorf("quiet = %v (lower is better), %v (higher is better), want 2, 11", lo, hi)
	}
	if got := quiet([]float64{3, 1, 2}, false); got != 1 {
		t.Errorf("quiet of three = %v, want the best", got)
	}
}
