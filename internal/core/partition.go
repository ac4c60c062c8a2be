// Package core implements the paper's contribution: distributed-memory
// parallel sparse matrix-vector multiplication with three kernel
// organizations — vector mode without overlap, vector mode with naive
// nonblocking overlap, and task mode with a dedicated communication thread
// (Fig. 4) — on top of an nonzero-balanced row partition and a
// precomputed halo-exchange communication plan.
package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/matrix"
	"repro/internal/spmv"
)

// Partition assigns contiguous row blocks to ranks, balancing the nonzero
// count per rank (the paper distributes nonzeros, not rows; §3.1 footnote).
type Partition struct {
	Ranks  []spmv.Range // Ranks[r] = rows owned by rank r
	starts []int        // starts[r] = first row of rank r, plus sentinel
}

// newPartition wraps explicit row ranges (must tile [0, rows)).
func newPartition(ranges []spmv.Range) *Partition {
	p := &Partition{Ranks: ranges, starts: make([]int, len(ranges)+1)}
	for r, rg := range ranges {
		p.starts[r] = rg.Lo
	}
	if len(ranges) > 0 {
		p.starts[len(ranges)] = ranges[len(ranges)-1].Hi
	}
	return p
}

// PartitionByNnz streams the pattern once and splits the rows into `ranks`
// contiguous blocks of approximately equal nonzero count.
func PartitionByNnz(src matrix.PatternSource, ranks int) *Partition {
	if ranks < 1 {
		panic(fmt.Sprintf("core: ranks %d < 1", ranks))
	}
	counts := matrix.RowNnzCounts(src)
	prefix := make([]int64, len(counts)+1)
	for i, c := range counts {
		prefix[i+1] = prefix[i] + c
	}
	return newPartition(spmv.BalanceNnz(prefix, ranks))
}

// PartitionByRows splits rows into equal-count blocks regardless of
// nonzeros; used as the load-imbalanced baseline in ablation benchmarks.
func PartitionByRows(rows, ranks int) *Partition {
	if ranks < 1 {
		panic(fmt.Sprintf("core: ranks %d < 1", ranks))
	}
	ranges := make([]spmv.Range, ranks)
	for r := 0; r < ranks; r++ {
		ranges[r] = spmv.Range{Lo: r * rows / ranks, Hi: (r + 1) * rows / ranks}
	}
	return newPartition(ranges)
}

// NumRanks returns the number of ranks.
func (p *Partition) NumRanks() int { return len(p.Ranks) }

// Rows returns the total row count.
func (p *Partition) Rows() int {
	if len(p.Ranks) == 0 {
		return 0
	}
	return p.Ranks[len(p.Ranks)-1].Hi
}

// owner returns the rank owning the given row.
func (p *Partition) owner(row int) int {
	if row < 0 || row >= p.Rows() {
		panic(fmt.Sprintf("core: row %d outside [0,%d)", row, p.Rows()))
	}
	// Find the last start ≤ row. Empty ranges make starts non-strictly
	// monotone; the search still lands on the unique non-empty owner.
	r := sort.Search(len(p.Ranks), func(r int) bool { return p.starts[r+1] > row })
	return r
}

// validate checks that the ranges tile [0, rows).
func (p *Partition) validate() error {
	lo := 0
	for r, rg := range p.Ranks {
		if rg.Lo != lo || rg.Hi < rg.Lo {
			return fmt.Errorf("core: rank %d range %+v does not continue at %d", r, rg, lo)
		}
		lo = rg.Hi
	}
	return nil
}

// Imbalance returns maxNnz/avgNnz over ranks for the given pattern — the
// load-balance metric of the evaluation.
func (p *Partition) Imbalance(src matrix.PatternSource) float64 {
	counts := matrix.RowNnzCounts(src)
	var total, maxR int64
	for _, rg := range p.Ranks {
		var n int64
		for i := rg.Lo; i < rg.Hi; i++ {
			n += counts[i]
		}
		total += n
		if n > maxR {
			maxR = n
		}
	}
	if total == 0 {
		return 1
	}
	return float64(maxR) * float64(len(p.Ranks)) / float64(total)
}

// concurrentRanks bounds plan-building parallelism.
var concurrentRanks = 8

// forEachRank runs fn(rank) for every rank, a few in parallel. Pattern
// sources are required to support concurrent reads of disjoint rows.
func forEachRank(ranks int, fn func(r int)) {
	sem := make(chan struct{}, concurrentRanks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(r int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(r)
		}(r)
	}
	wg.Wait()
}
