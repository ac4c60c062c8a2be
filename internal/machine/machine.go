// Package machine describes the benchmark systems of the paper (Fig. 2):
// dual-socket Intel Nehalem EP and Westmere EP nodes on a QDR InfiniBand
// fat tree, and dual-socket AMD Magny Cours nodes (Cray XE6) on a Gemini
// 2-D torus. A node is a set of ccNUMA locality domains (LDs); each LD has
// a saturating memory-bandwidth curve calibrated against the paper's
// published STREAM and spMVM measurements (§1.3.2, Fig. 3).
//
// All rates are bytes/second, all times seconds.
package machine

import "fmt"

// GB is 10⁹ bytes (bandwidth vendors' gigabyte).
const GB = 1e9

// NodeSpec describes one compute node.
type NodeSpec struct {
	Name string

	Sockets      int
	LDsPerSocket int // NUMA locality domains per socket (Magny Cours: 2)
	CoresPerLD   int
	SMTWays      int // hardware threads per core (1 = no SMT)

	// StreamBW[i] is the effective STREAM-triad bandwidth of one LD with
	// i+1 active cores (write-allocate included, as in the paper's scaled
	// numbers). SpmvBW[i] is the bandwidth the CRS spMVM kernel achieves —
	// lower than STREAM and saturating later (Fig. 3a).
	StreamBW []float64
	SpmvBW   []float64
}

// LDsPerNode returns the number of NUMA locality domains per node.
func (n *NodeSpec) LDsPerNode() int { return n.Sockets * n.LDsPerSocket }

// CoresPerNode returns the number of physical cores per node.
func (n *NodeSpec) CoresPerNode() int { return n.LDsPerNode() * n.CoresPerLD }

// NodeStreamBW returns the saturated full-node STREAM bandwidth.
func (n *NodeSpec) NodeStreamBW() float64 {
	return float64(n.LDsPerNode()) * n.StreamBW[len(n.StreamBW)-1]
}

// NodeSpmvBW returns the saturated full-node spMVM-achievable bandwidth.
func (n *NodeSpec) NodeSpmvBW() float64 {
	return float64(n.LDsPerNode()) * n.SpmvBW[len(n.SpmvBW)-1]
}

// validate checks internal consistency.
func (n *NodeSpec) validate() error {
	if n.Sockets < 1 || n.LDsPerSocket < 1 || n.CoresPerLD < 1 || n.SMTWays < 1 {
		return fmt.Errorf("machine: %s has nonpositive topology", n.Name)
	}
	if len(n.StreamBW) != n.CoresPerLD || len(n.SpmvBW) != n.CoresPerLD {
		return fmt.Errorf("machine: %s bandwidth tables must have %d entries", n.Name, n.CoresPerLD)
	}
	for i := 0; i < n.CoresPerLD; i++ {
		if n.StreamBW[i] <= 0 || n.SpmvBW[i] <= 0 {
			return fmt.Errorf("machine: %s nonpositive bandwidth at %d cores", n.Name, i+1)
		}
		if n.SpmvBW[i] > n.StreamBW[i]*1.05 {
			return fmt.Errorf("machine: %s spMVM bandwidth exceeds STREAM at %d cores", n.Name, i+1)
		}
		if i > 0 && (n.StreamBW[i] < n.StreamBW[i-1] || n.SpmvBW[i] < n.SpmvBW[i-1]) {
			return fmt.Errorf("machine: %s bandwidth table not monotone at %d cores", n.Name, i+1)
		}
	}
	return nil
}

// NetKind selects the interconnect model.
type NetKind int

const (
	// FatTree is a fully nonblocking fat tree (QDR InfiniBand): the only
	// shared resources are each node's injection and ejection links.
	FatTree NetKind = iota
	// Torus2D is a 2-D torus with dimension-ordered routing and link
	// contention (Cray Gemini).
	Torus2D
)

func (k NetKind) String() string {
	switch k {
	case FatTree:
		return "fat-tree"
	case Torus2D:
		return "torus-2d"
	default:
		return fmt.Sprintf("NetKind(%d)", int(k))
	}
}

// NetSpec describes the interconnect.
type NetSpec struct {
	Kind NetKind

	// LinkBW is the bandwidth of one network link (per direction):
	// the NIC link for FatTree, one torus link for Torus2D.
	LinkBW float64
	// Latency is the base internode MPI latency.
	Latency float64
	// HopLatency is the additional latency per torus hop (FatTree: unused).
	HopLatency float64

	// IntraBW and IntraLatency model intranode MPI (shared-memory copies).
	IntraBW      float64
	IntraLatency float64

	// EagerThreshold is the message size (bytes) below which the eager
	// protocol applies: the transfer starts at send time without receiver
	// progress. At or above it, the rendezvous protocol requires both
	// endpoints to drive MPI progress — the mechanism behind the paper's
	// "nonblocking MPI does not overlap" observation.
	EagerThreshold int
}

// ClusterSpec is a complete machine description.
type ClusterSpec struct {
	Name string
	Node NodeSpec
	Net  NetSpec
}

// Validate checks the full specification.
func (c *ClusterSpec) Validate() error {
	if err := c.Node.validate(); err != nil {
		return err
	}
	if c.Net.LinkBW <= 0 || c.Net.IntraBW <= 0 {
		return fmt.Errorf("machine: %s nonpositive network bandwidth", c.Name)
	}
	if c.Net.Latency < 0 || c.Net.HopLatency < 0 || c.Net.IntraLatency < 0 {
		return fmt.Errorf("machine: %s negative latency", c.Name)
	}
	return nil
}

// NehalemEP returns the Intel Nehalem EP node (Xeon X5550): two sockets,
// one LD each, four cores per LD, SMT. The spMVM curve reproduces the
// measured 0.91/1.50/1.95/2.25 GFlop/s of Fig. 3a at B_CRS(κ=2.5) ≈ 8.05
// bytes/flop: 7.3/12.1/15.7/18.1 GB/s, against 21.2 GB/s STREAM.
func NehalemEP() NodeSpec {
	return NodeSpec{
		Name:    "Nehalem EP (X5550)",
		Sockets: 2, LDsPerSocket: 1, CoresPerLD: 4, SMTWays: 2,
		StreamBW: []float64{13.0 * GB, 19.5 * GB, 21.0 * GB, 21.2 * GB},
		SpmvBW:   []float64{7.3 * GB, 12.1 * GB, 15.7 * GB, 18.1 * GB},
	}
}

// WestmereEP returns the Intel Westmere EP node (Xeon X5650): like Nehalem
// but six cores per socket at the same per-core L3 share.
func WestmereEP() NodeSpec {
	return NodeSpec{
		Name:    "Westmere EP (X5650)",
		Sockets: 2, LDsPerSocket: 1, CoresPerLD: 6, SMTWays: 2,
		StreamBW: []float64{13.5 * GB, 20.0 * GB, 21.8 * GB, 22.3 * GB, 22.4 * GB, 22.4 * GB},
		SpmvBW:   []float64{7.5 * GB, 12.5 * GB, 16.3 * GB, 18.9 * GB, 19.8 * GB, 20.3 * GB},
	}
}

// MagnyCours returns the AMD Magny Cours node (Opteron 6172) of the Cray
// XE6: a 12-core package is two 6-core dies with separate memory
// controllers, so a two-socket node has four LDs with two DDR3 channels
// each — weaker per LD than Westmere but ~25% faster per node (Fig. 3b).
func MagnyCours() NodeSpec {
	return NodeSpec{
		Name:    "AMD Magny Cours (Opteron 6172)",
		Sockets: 2, LDsPerSocket: 2, CoresPerLD: 6, SMTWays: 1,
		StreamBW: []float64{8.5 * GB, 12.2 * GB, 13.5 * GB, 14.0 * GB, 14.2 * GB, 14.3 * GB},
		SpmvBW:   []float64{5.5 * GB, 9.0 * GB, 11.3 * GB, 12.4 * GB, 12.8 * GB, 13.0 * GB},
	}
}

// WestmereCluster returns the Westmere/QDR-InfiniBand cluster of the study.
func WestmereCluster() ClusterSpec {
	return ClusterSpec{
		Name: "Westmere + QDR IB fat tree",
		Node: WestmereEP(),
		Net: NetSpec{
			Kind:           FatTree,
			LinkBW:         3.4 * GB,
			Latency:        1.7e-6,
			IntraBW:        15.0 * GB,
			IntraLatency:   0.5e-6,
			EagerThreshold: 16 << 10,
		},
	}
}

// NehalemCluster returns a Nehalem/QDR-InfiniBand cluster (Fig. 3a host).
func NehalemCluster() ClusterSpec {
	c := WestmereCluster()
	c.Name = "Nehalem + QDR IB fat tree"
	c.Node = NehalemEP()
	return c
}

// CrayXE6 returns the Cray XE6: Magny Cours nodes on a Gemini 2-D torus.
// A Gemini link is faster than QDR IB, but dimension-ordered torus routing
// shares links between flows, so non-nearest-neighbour traffic contends —
// the effect the paper observed at larger node counts.
func CrayXE6() ClusterSpec {
	return ClusterSpec{
		Name: "Cray XE6 (Magny Cours + Gemini 2D torus)",
		Node: MagnyCours(),
		Net: NetSpec{
			Kind:           Torus2D,
			LinkBW:         4.7 * GB,
			Latency:        1.4e-6,
			HopLatency:     0.1e-6,
			IntraBW:        18.0 * GB,
			IntraLatency:   0.5e-6,
			EagerThreshold: 16 << 10,
		},
	}
}
