package machine

import (
	"math"
	"testing"
)

func TestAllSpecsValid(t *testing.T) {
	for _, spec := range []ClusterSpec{WestmereCluster(), NehalemCluster(), CrayXE6()} {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}

func TestTopologyCounts(t *testing.T) {
	neh := NehalemEP()
	if neh.LDsPerNode() != 2 || neh.CoresPerNode() != 8 {
		t.Errorf("Nehalem: %d LDs, %d cores", neh.LDsPerNode(), neh.CoresPerNode())
	}
	wsm := WestmereEP()
	if wsm.LDsPerNode() != 2 || wsm.CoresPerNode() != 12 {
		t.Errorf("Westmere: %d LDs, %d cores", wsm.LDsPerNode(), wsm.CoresPerNode())
	}
	mc := MagnyCours()
	// The paper's unique feature: four NUMA LDs per two-socket node.
	if mc.LDsPerNode() != 4 || mc.CoresPerNode() != 24 {
		t.Errorf("Magny Cours: %d LDs, %d cores", mc.LDsPerNode(), mc.CoresPerNode())
	}
	if mc.SMTWays != 1 || wsm.SMTWays != 2 {
		t.Error("SMT configuration wrong")
	}
}

// TestPaperCalibration checks the quantitative anchors of §2 / Fig. 3.
func TestPaperCalibration(t *testing.T) {
	neh := NehalemEP()
	// Single socket spMVM draws 18.1 GB/s against 21.2 GB/s STREAM (§2):
	// "more than 85% of the STREAM bandwidth can be reached".
	ratio := neh.SpmvBW[3] / neh.StreamBW[3]
	if ratio < 0.85 {
		t.Errorf("Nehalem spMVM/STREAM at 4 cores = %.3f, paper says > 0.85", ratio)
	}
	// Fig. 3a performance scaling: 0.91 → 2.25 GFlop/s from 1 to 4 cores
	// (ratio ≈ 2.47) at fixed code balance; our bandwidth table must
	// reproduce that ratio.
	scale := neh.SpmvBW[3] / neh.SpmvBW[0]
	if math.Abs(scale-2.47) > 0.15 {
		t.Errorf("Nehalem 4-core/1-core spMVM ratio %.2f, paper 2.47", scale)
	}
	// Magny Cours node ~25% faster than Westmere node (Fig. 3b) despite
	// a weaker single LD.
	wsm := WestmereEP()
	mc := MagnyCours()
	nodeRatio := mc.NodeSpmvBW() / wsm.NodeSpmvBW()
	if nodeRatio < 1.15 || nodeRatio > 1.40 {
		t.Errorf("MagnyCours/Westmere node ratio %.2f, paper ≈ 1.25", nodeRatio)
	}
	if mc.SpmvBW[5] >= wsm.SpmvBW[5] {
		t.Error("Magny Cours LD should be weaker than Westmere LD")
	}
}

func TestSaturationBehaviour(t *testing.T) {
	// STREAM saturates early; spMVM keeps benefiting through 4 cores
	// ("the spMVM bandwidth ... still benefits from the use of all cores").
	for _, n := range []NodeSpec{NehalemEP(), WestmereEP(), MagnyCours()} {
		streamGain := n.StreamBW[len(n.StreamBW)-1] / n.StreamBW[1]
		if streamGain > 1.25 {
			t.Errorf("%s: STREAM gains %.2fx beyond 2 cores; should saturate early", n.Name, streamGain)
		}
		spmvGain3to4 := n.SpmvBW[3] / n.SpmvBW[2]
		if spmvGain3to4 < 1.05 {
			t.Errorf("%s: spMVM gains only %.3fx from 3→4 cores; should still improve", n.Name, spmvGain3to4)
		}
	}
}

func TestCrayNetworkFasterLinkThanIB(t *testing.T) {
	// "The internode bandwidth of the 2D torus network is beyond the
	// capability of QDR InfiniBand."
	ib := WestmereCluster().Net
	gem := CrayXE6().Net
	if gem.LinkBW <= ib.LinkBW {
		t.Errorf("Gemini link %.1f GB/s not above QDR IB %.1f GB/s", gem.LinkBW/GB, ib.LinkBW/GB)
	}
	if gem.Kind != Torus2D || ib.Kind != FatTree {
		t.Error("network kinds wrong")
	}
}

func TestValidateCatchesBadSpecs(t *testing.T) {
	bad := NehalemEP()
	bad.StreamBW = bad.StreamBW[:2]
	if err := bad.validate(); err == nil {
		t.Error("short bandwidth table accepted")
	}
	bad2 := NehalemEP()
	bad2.SpmvBW[0] = bad2.StreamBW[0] * 2
	if err := bad2.validate(); err == nil {
		t.Error("spMVM above STREAM accepted")
	}
	bad3 := NehalemEP()
	bad3.SpmvBW[2] = bad3.SpmvBW[0] / 2
	if err := bad3.validate(); err == nil {
		t.Error("non-monotone table accepted")
	}
	bad4 := WestmereCluster()
	bad4.Net.LinkBW = 0
	if err := bad4.Validate(); err == nil {
		t.Error("zero link bandwidth accepted")
	}
}
