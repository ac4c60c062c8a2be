// Package rcm implements the Reverse Cuthill–McKee reordering the paper
// applied to the Hamiltonian matrix (§1.3.1) to improve RHS locality and
// push interprocess communication toward near-neighbour exchange.
package rcm

import (
	"sort"

	"repro/internal/matrix"
)

// Permutation maps new index → old index (perm) and old → new (inv).
type Permutation struct {
	Perm []int32 // Perm[new] = old
	Inv  []int32 // Inv[old] = new
}

// ReverseCuthillMcKee computes the RCM ordering of a structurally symmetric
// sparse matrix. Unsymmetric patterns are symmetrized implicitly (the
// ordering uses A+Aᵀ adjacency). Each connected component is seeded with a
// pseudo-peripheral vertex found by repeated BFS.
func ReverseCuthillMcKee(a *matrix.CSR) *Permutation {
	n := a.NumRows
	adj := symmetrizedAdjacency(a)
	deg := make([]int32, n)
	for i := 0; i < n; i++ {
		deg[i] = int32(len(adj[i]))
	}

	visited := make([]bool, n)
	order := make([]int32, 0, n)
	queue := make([]int32, 0, n)

	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		seed := pseudoPeripheral(int32(start), adj, deg)
		// Cuthill–McKee BFS from the seed, neighbours by ascending degree.
		visited[seed] = true
		queue = append(queue[:0], seed)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			order = append(order, v)
			nbrs := make([]int32, 0, len(adj[v]))
			for _, w := range adj[v] {
				if !visited[w] {
					visited[w] = true
					nbrs = append(nbrs, w)
				}
			}
			sort.Slice(nbrs, func(i, j int) bool {
				if deg[nbrs[i]] != deg[nbrs[j]] {
					return deg[nbrs[i]] < deg[nbrs[j]]
				}
				return nbrs[i] < nbrs[j]
			})
			queue = append(queue, nbrs...)
		}
	}

	// Reverse for RCM.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	p := &Permutation{Perm: order, Inv: make([]int32, n)}
	for newIdx, old := range order {
		p.Inv[old] = int32(newIdx)
	}
	return p
}

// symmetrizedAdjacency builds adjacency lists of A+Aᵀ without self loops.
func symmetrizedAdjacency(a *matrix.CSR) [][]int32 {
	n := a.NumRows
	adj := make([][]int32, n)
	add := func(u, v int32) {
		adj[u] = append(adj[u], v)
	}
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if int(j) == i {
				continue
			}
			add(int32(i), j)
			add(j, int32(i))
		}
	}
	// Dedup each list.
	for i := range adj {
		l := adj[i]
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		out := l[:0]
		var prev int32 = -1
		for _, v := range l {
			if v != prev {
				out = append(out, v)
				prev = v
			}
		}
		adj[i] = out
	}
	return adj
}

// pseudoPeripheral finds a vertex of (locally) maximal eccentricity in the
// component containing start, via the standard Gibbs–Poole–Stockmeyer-style
// iteration: repeat BFS and jump to a minimum-degree vertex of the last
// level until the eccentricity stops growing.
func pseudoPeripheral(start int32, adj [][]int32, deg []int32) int32 {
	cur := start
	curEcc := -1
	level := make(map[int32]int)
	for {
		last, ecc := bfsLastLevel(cur, adj, level)
		if ecc <= curEcc {
			return cur
		}
		curEcc = ecc
		// Pick the minimum-degree vertex in the last level.
		best := last[0]
		for _, v := range last[1:] {
			if deg[v] < deg[best] || (deg[v] == deg[best] && v < best) {
				best = v
			}
		}
		cur = best
	}
}

// bfsLastLevel runs BFS from s, returning the vertices of the deepest level
// and the eccentricity. The level map is reused between calls.
func bfsLastLevel(s int32, adj [][]int32, level map[int32]int) (last []int32, ecc int) {
	for k := range level {
		delete(level, k)
	}
	level[s] = 0
	queue := []int32{s}
	last = []int32{s}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, w := range adj[v] {
			if _, ok := level[w]; !ok {
				level[w] = level[v] + 1
				if level[w] > ecc {
					ecc = level[w]
					last = last[:0]
				}
				if level[w] == ecc {
					last = append(last, w)
				}
				queue = append(queue, w)
			}
		}
	}
	return last, ecc
}

// ApplySymmetric returns P·A·Pᵀ: row and column i of the result correspond
// to row and column Perm[i] of A.
func ApplySymmetric(a *matrix.CSR, p *Permutation) *matrix.CSR {
	n := a.NumRows
	out := &matrix.CSR{NumRows: n, NumCols: a.NumCols, RowPtr: make([]int64, n+1)}
	out.ColIdx = make([]int32, 0, a.Nnz())
	out.Val = make([]float64, 0, a.Nnz())
	for newI := 0; newI < n; newI++ {
		old := p.Perm[newI]
		cols, vals := a.Row(int(old))
		base := len(out.ColIdx)
		for k, c := range cols {
			out.ColIdx = append(out.ColIdx, p.Inv[c])
			out.Val = append(out.Val, vals[k])
		}
		sort.Sort(&pairSorter{out.ColIdx[base:], out.Val[base:]})
		out.RowPtr[newI+1] = int64(len(out.ColIdx))
	}
	return out
}

type pairSorter struct {
	cols []int32
	vals []float64
}

func (s *pairSorter) Len() int           { return len(s.cols) }
func (s *pairSorter) Less(i, j int) bool { return s.cols[i] < s.cols[j] }
func (s *pairSorter) Swap(i, j int) {
	s.cols[i], s.cols[j] = s.cols[j], s.cols[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// Bandwidth returns the maximum |i-j| over stored entries — the quantity RCM
// minimizes heuristically.
func Bandwidth(a *matrix.CSR) int64 {
	var bw int64
	for i := 0; i < a.NumRows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d := int64(i) - int64(a.ColIdx[k])
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

// Profile returns the envelope size Σ_i (i - min_j(i)), a finer locality
// metric than bandwidth.
func Profile(a *matrix.CSR) int64 {
	var prof int64
	for i := 0; i < a.NumRows; i++ {
		minJ := int64(i)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int64(a.ColIdx[k]) < minJ {
				minJ = int64(a.ColIdx[k])
			}
		}
		prof += int64(i) - minJ
	}
	return prof
}
