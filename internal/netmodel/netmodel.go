// Package netmodel builds fluid-resource models of the study's two
// interconnects: a nonblocking QDR InfiniBand fat tree (Westmere cluster)
// and a Gemini-style 2-D torus with dimension-ordered routing (Cray XE6).
// A network maps a (source node, destination node) pair to the list of
// shared link resources a message crosses plus its base latency.
package netmodel

import (
	"fmt"

	"repro/internal/fluid"
	"repro/internal/machine"
)

// Network routes messages between nodes over fluid resources.
type Network struct {
	spec  machine.NetSpec
	nodes int
	slots int

	// Fat tree: per-node injection (up) and ejection (down) links.
	up, down []*fluid.Resource

	// Torus: grid dimensions and per-node directed links.
	w, h int
	// xPos[n] is node n's link toward +x, etc.
	xPos, xNeg, yPos, yNeg []*fluid.Resource

	// intra[n] is node n's shared-memory channel for intranode messages.
	intra []*fluid.Resource

	// placement[n] maps logical node n to its physical torus slot,
	// emulating fragmented job allocations (identity by default).
	placement []int
}

// NewSized builds the network with a torus of at least `slots` node slots —
// larger than the job when modeling a fragmented allocation on a big shared
// machine (the paper's "job topology and machine load" effect on the XE6).
// Fat trees ignore slots (they are nonblocking regardless of placement).
func NewSized(sys *fluid.System, spec machine.NetSpec, nodes, slots int) *Network {
	if nodes < 1 {
		panic(fmt.Sprintf("netmodel: nodes %d < 1", nodes))
	}
	if slots < nodes {
		panic(fmt.Sprintf("netmodel: %d slots cannot hold %d nodes", slots, nodes))
	}
	n := &Network{spec: spec, nodes: nodes, slots: slots}
	n.intra = make([]*fluid.Resource, nodes)
	for i := range n.intra {
		n.intra[i] = sys.NewResource(fmt.Sprintf("intra[%d]", i), fluid.ConstCapacity(spec.IntraBW))
	}
	n.placement = make([]int, nodes)
	for i := range n.placement {
		n.placement[i] = i
	}
	switch spec.Kind {
	case machine.FatTree:
		n.up = make([]*fluid.Resource, nodes)
		n.down = make([]*fluid.Resource, nodes)
		for i := 0; i < nodes; i++ {
			n.up[i] = sys.NewResource(fmt.Sprintf("nic-up[%d]", i), fluid.ConstCapacity(spec.LinkBW))
			n.down[i] = sys.NewResource(fmt.Sprintf("nic-down[%d]", i), fluid.ConstCapacity(spec.LinkBW))
		}
	case machine.Torus2D:
		n.w, n.h = torusDims(slots)
		slots := n.w * n.h
		mk := func(kind string, i int) *fluid.Resource {
			return sys.NewResource(fmt.Sprintf("link-%s[%d]", kind, i), fluid.ConstCapacity(spec.LinkBW))
		}
		n.xPos = make([]*fluid.Resource, slots)
		n.xNeg = make([]*fluid.Resource, slots)
		n.yPos = make([]*fluid.Resource, slots)
		n.yNeg = make([]*fluid.Resource, slots)
		for i := 0; i < slots; i++ {
			n.xPos[i] = mk("x+", i)
			n.xNeg[i] = mk("x-", i)
			n.yPos[i] = mk("y+", i)
			n.yNeg[i] = mk("y-", i)
		}
	default:
		panic(fmt.Sprintf("netmodel: unknown network kind %v", spec.Kind))
	}
	return n
}

// torusDims packs nodes into the most square W×H grid with W·H ≥ nodes.
func torusDims(nodes int) (w, h int) {
	w = 1
	for w*w < nodes {
		w++
	}
	h = (nodes + w - 1) / w
	return w, h
}

// Dims returns the torus grid dimensions (0,0 for a fat tree).
func (n *Network) Dims() (w, h int) { return n.w, n.h }

// SetPlacement overrides the logical→physical node mapping (torus only);
// used to emulate fragmented allocations and machine load. The slice must
// be a permutation into [0, W·H).
func (n *Network) SetPlacement(p []int) {
	if len(p) != n.nodes {
		panic(fmt.Sprintf("netmodel: placement length %d, want %d", len(p), n.nodes))
	}
	slots := n.w * n.h
	if n.spec.Kind == machine.FatTree {
		slots = n.nodes
	}
	seen := make(map[int]bool, len(p))
	for _, s := range p {
		if s < 0 || s >= slots || seen[s] {
			panic("netmodel: placement is not an injection into the slot grid")
		}
		seen[s] = true
	}
	copy(n.placement, p)
}

// Path returns the shared resources a message from node src to node dst
// crosses, and the base latency. Self-messages use the intranode channel.
func (n *Network) Path(src, dst int) ([]*fluid.Resource, float64) {
	if src < 0 || src >= n.nodes || dst < 0 || dst >= n.nodes {
		panic(fmt.Sprintf("netmodel: path %d→%d outside %d nodes", src, dst, n.nodes))
	}
	if src == dst {
		return []*fluid.Resource{n.intra[src]}, n.spec.IntraLatency
	}
	switch n.spec.Kind {
	case machine.FatTree:
		// Nonblocking core: only the endpoints' NIC links are shared.
		return []*fluid.Resource{n.up[src], n.down[dst]}, n.spec.Latency
	default: // Torus2D
		return n.torusPath(n.placement[src], n.placement[dst])
	}
}

// torusPath routes x-dimension first, then y, taking the shorter wrap
// direction in each dimension (Gemini dimension-ordered routing).
func (n *Network) torusPath(src, dst int) ([]*fluid.Resource, float64) {
	sx, sy := src%n.w, src/n.w
	dx, dy := dst%n.w, dst/n.w
	var path []*fluid.Resource

	x, y := sx, sy
	steps, dir := torusSteps(sx, dx, n.w)
	for i := 0; i < steps; i++ {
		node := y*n.w + x
		if dir > 0 {
			path = append(path, n.xPos[node])
		} else {
			path = append(path, n.xNeg[node])
		}
		x = mod(x+dir, n.w)
	}
	steps, dir = torusSteps(sy, dy, n.h)
	for i := 0; i < steps; i++ {
		node := y*n.w + x
		if dir > 0 {
			path = append(path, n.yPos[node])
		} else {
			path = append(path, n.yNeg[node])
		}
		y = mod(y+dir, n.h)
	}
	lat := n.spec.Latency + float64(len(path))*n.spec.HopLatency
	return path, lat
}

// ScatteredPlacement returns a deterministic pseudo-random placement of
// `nodes` logical nodes into `slots` physical slots (Fisher–Yates on a
// SplitMix64 stream). Use with NewSized to emulate a fragmented allocation.
func ScatteredPlacement(nodes, slots int, seed uint64) []int {
	if slots < nodes {
		panic(fmt.Sprintf("netmodel: %d slots cannot hold %d nodes", slots, nodes))
	}
	perm := make([]int, slots)
	for i := range perm {
		perm[i] = i
	}
	s := seed
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	for i := slots - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:nodes]
}

// torusSteps returns the hop count and direction (+1/-1) of the shorter way
// around a ring of size m from a to b.
func torusSteps(a, b, m int) (steps, dir int) {
	fwd := mod(b-a, m)
	bwd := mod(a-b, m)
	if fwd <= bwd {
		return fwd, 1
	}
	return bwd, -1
}

func mod(a, m int) int {
	a %= m
	if a < 0 {
		a += m
	}
	return a
}
