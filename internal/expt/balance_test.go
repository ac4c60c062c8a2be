package expt

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/machine"
	"repro/internal/simnet"
)

func TestLoadBalanceStudy(t *testing.T) {
	h, err := HolsteinSource(genmat.HMeP, Small)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := LoadBalanceStudy(machine.WestmereCluster(), "HMeP", h, 2.5, []int{4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	if r.ImbalanceNnz > r.ImbalanceRows {
		t.Errorf("nnz imbalance %.3f above row imbalance %.3f", r.ImbalanceNnz, r.ImbalanceRows)
	}
	if r.ImbalanceNnz < 1 || r.GFlopsNnz <= 0 || r.GFlopsRows <= 0 {
		t.Errorf("malformed row: %+v", r)
	}
	var buf bytes.Buffer
	if err := RenderBalance(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "imbalance") {
		t.Error("render missing header")
	}
}

func TestPlacementStudySpread(t *testing.T) {
	h, err := HolsteinSource(genmat.HMeP, Small)
	if err != nil {
		t.Fatal(err)
	}
	wc := NewWorkloadCache("HMeP", h, 2.5)
	vals, err := PlacementStudy(machine.CrayXE6(), wc, 8,
		simnet.ProcPerLD, core.VectorNoOverlap, 0.25, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 {
		t.Fatalf("%d samples", len(vals))
	}
	allEqual := true
	for _, v := range vals[1:] {
		if v != vals[0] {
			allEqual = false
		}
		if v <= 0 {
			t.Fatalf("nonpositive GFlops %g", v)
		}
	}
	if allEqual {
		t.Error("different placements produced identical performance; contention model inert?")
	}
}

func TestPlacementCompactBeatsScattered(t *testing.T) {
	h, err := HolsteinSource(genmat.HMeP, Small)
	if err != nil {
		t.Fatal(err)
	}
	wc := NewWorkloadCache("HMeP", h, 2.5)
	run := func(occ float64) float64 {
		wl, err := wc.For(16)
		if err != nil {
			t.Fatal(err)
		}
		res, err := simnet.RunPoint(simnet.PointConfig{
			Cluster: machine.CrayXE6(), Nodes: 16, Layout: simnet.ProcPerNode,
			Mode: core.VectorNoOverlap, Iters: 6, TorusOccupancy: occ,
		}, wl)
		if err != nil {
			t.Fatal(err)
		}
		return res.GFlops
	}
	compact := run(1.0)
	scattered := run(0.2)
	if scattered >= compact {
		t.Errorf("scattered placement (%.2f) not slower than compact (%.2f)", scattered, compact)
	}
}
