package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// exactMetrics are the per-layer counts that must be identical in every
// run at one seed; -compare checks them across both sets.
var exactMetrics = []string{
	"matrix.nnz", "core.halo_elems_per_step", "core.msgs_per_step", "solver.iterations",
	"simnet.events.task", "simnet.events.vector", "simnet.events.naive",
	"simnet.model_gflops.task", "simnet.model_gflops.vector", "simnet.model_gflops.naive",
}

// loadResults reads every result file of a set: dir/*.json and
// dir/*/result.json.
func loadResults(dir string) ([]*resultFile, error) {
	flat, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	nested, _ := filepath.Glob(filepath.Join(dir, "*", "result.json"))
	var files []*resultFile
	for _, path := range append(flat, nested...) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(f.Workloads) > 0 { // trace files share the directory
			files = append(files, &f)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files under %s", dir)
	}
	return files, nil
}

// runCompare prints, for every workload and end-to-end metric, both sets'
// quartiles, how much worse B's median is than A's, the bound and a
// verdict. The rule is the one the metrics guide gives: B is "worse" when
// its median is worse than A's by more than the bound; but when either
// set's own spread (third minus first quartile, over the median) exceeds
// the bound the pair is "unresolved" — neither same nor worse — unless
// every run of one side beats every run of the other. It returns an error
// if any pair is worse or unresolved; running it both ways round is
// therefore the test that two sets of runs of one commit agree.
func runCompare(w io.Writer, dirA, dirB string) error {
	a, err := loadResults(dirA)
	if err != nil {
		return err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %d runs under %s (commit %s)\nB: %d runs under %s (commit %s)\n\n",
		len(a), dirA, a[0].Host.GitCommit, len(b), dirB, b[0].Host.GitCommit)
	fmt.Fprintf(w, "%-15s %-14s %32s %32s %8s %6s  %s\n", "workload", "metric", "A q1/median/q3", "B q1/median/q3", "B worse", "bound", "verdict")
	bad := 0
	for _, sp := range specs {
		for _, d := range endToEnd {
			va, vb := collect(a, sp.name, d.Name, false), collect(b, sp.name, d.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			sign := 1.0 // so that positive is worse
			if d.Better == "higher" {
				sign = -1
			}
			worse := sign * (b2 - a2) / a2
			spread := max((a3-a1)/a2, (b3-b1)/b2)
			verdict := "same"
			switch {
			case spread > d.Bound && !separated(va, vb):
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "worse"
			case worse < -d.Bound:
				verdict = "better"
			}
			if verdict == "worse" || verdict == "unresolved" {
				bad++
			}
			fmt.Fprintf(w, "%-15s %-14s %32s %32s %+7.1f%% %5.0f%%  %s\n", sp.name, d.Name,
				fmt.Sprintf("%.5g/%.5g/%.5g", a1, a2, a3), fmt.Sprintf("%.5g/%.5g/%.5g", b1, b2, b3),
				100*worse, 100*d.Bound, verdict)
		}
	}
	fmt.Fprintln(w)
	for _, sp := range specs {
		for _, name := range exactMetrics {
			v := append(collect(a, sp.name, name, true), collect(b, sp.name, name, true)...)
			if len(v) == 0 {
				continue
			}
			if slices.Min(v) != slices.Max(v) {
				bad++
				fmt.Fprintf(w, "%-15s %-28s NOT exact: %v\n", sp.name, name, v)
			} else {
				fmt.Fprintf(w, "%-15s %-28s %.10g in all %d runs\n", sp.name, name, v[0], len(v))
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons are worse, unresolved or not exact", bad)
	}
	return nil
}

// collect gathers one metric of one workload over a set of runs.
func collect(files []*resultFile, workload, metric string, layer bool) []float64 {
	var v []float64
	for _, f := range files {
		m := f.Workloads[workload].EndToEnd
		if layer {
			m = f.Workloads[workload].PerLayer
		}
		if x, ok := m[metric]; ok {
			v = append(v, x.Value)
		}
	}
	return v
}

// separated reports whether every value of one set lies beyond every value
// of the other.
func separated(a, b []float64) bool {
	return slices.Max(a) < slices.Min(b) || slices.Max(b) < slices.Min(a)
}
