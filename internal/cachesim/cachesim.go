// Package cachesim provides a set-associative LRU cache simulator used to
// measure the memory traffic of the CRS spMVM kernel — in particular the
// excess right-hand-side traffic that the paper's performance model calls κ
// (§1.2, §2). The paper obtained κ from hardware counters (LIKWID); the
// simulator measures the same quantity by replaying the kernel's exact
// access stream through a cache model.
package cachesim

import (
	"fmt"

	"repro/internal/matrix"
)

// Config describes the simulated cache (one unified last-level cache).
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity
	LineBytes int // cache line size
}

// Cache is a set-associative LRU cache with per-stream traffic accounting.
type Cache struct {
	cfg   Config
	sets  int
	tags  []uint64 // sets × ways
	valid []bool
	dirty []bool
	used  []int64 // LRU clock per line
	clock int64

	// traffic per stream id: bytes moved from memory (fills) and to memory
	// (write-backs).
	fills      []int64
	writebacks []int64
}

// newCache builds a cache; the configuration must describe a power-of-two set
// count.
func newCache(cfg Config, streams int) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.LineBytes <= 0 {
		return nil, fmt.Errorf("cachesim: nonpositive geometry %+v", cfg)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines%cfg.Ways != 0 {
		return nil, fmt.Errorf("cachesim: %d lines not divisible by %d ways", lines, cfg.Ways)
	}
	sets := lines / cfg.Ways
	if sets == 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cachesim: set count %d not a power of two", sets)
	}
	return &Cache{
		cfg:        cfg,
		sets:       sets,
		tags:       make([]uint64, lines),
		valid:      make([]bool, lines),
		dirty:      make([]bool, lines),
		used:       make([]int64, lines),
		fills:      make([]int64, streams),
		writebacks: make([]int64, streams),
	}, nil
}

// access replays one memory access of `size` bytes at `addr`, attributed to
// the given stream. Write accesses use write-allocate semantics (a store
// miss fills the line first), matching the model's 16 bytes per result
// update.
func (c *Cache) access(addr uint64, size int, write bool, stream int) {
	line := uint64(c.cfg.LineBytes)
	first := addr / line
	last := (addr + uint64(size) - 1) / line
	for l := first; l <= last; l++ {
		c.touchLine(l, write, stream)
	}
}

func (c *Cache) touchLine(lineAddr uint64, write bool, stream int) {
	c.clock++
	set := int(lineAddr) & (c.sets - 1)
	base := set * c.cfg.Ways
	// Hit?
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == lineAddr {
			c.used[i] = c.clock
			if write {
				c.dirty[i] = true
			}
			return
		}
	}
	// Miss: evict LRU.
	victim := base
	for w := 1; w < c.cfg.Ways; w++ {
		i := base + w
		if !c.valid[i] {
			victim = i
			break
		}
		if c.used[i] < c.used[victim] {
			victim = i
		}
	}
	if c.valid[victim] && c.dirty[victim] {
		// Write-back belongs to the stream that owns the evicted line; we
		// attribute it to the evicting stream for simplicity — result-vector
		// write-backs dominate and are self-attributed in the spMVM replay.
		c.writebacks[stream] += int64(c.cfg.LineBytes)
	}
	c.fills[stream] += int64(c.cfg.LineBytes)
	c.tags[victim] = lineAddr
	c.valid[victim] = true
	c.dirty[victim] = write
	c.used[victim] = c.clock
}

// fillBytes returns the bytes loaded from memory for a stream.
func (c *Cache) fillBytes(stream int) int64 { return c.fills[stream] }

// writebackBytes returns the bytes written back to memory by a stream's
// evictions.
func (c *Cache) writebackBytes(stream int) int64 { return c.writebacks[stream] }

// Stream ids of the spMVM replay.
const (
	StreamVal = iota
	StreamCol
	StreamRHS
	StreamResult
	StreamRowPtr
	numStreams
)

// Traffic is the measured memory traffic of one spMVM sweep.
type Traffic struct {
	ValBytes    int64
	ColBytes    int64
	RHSBytes    int64
	ResultBytes int64 // fills + write-backs
	RowPtrBytes int64
	TotalBytes  int64

	Nnz  int64
	Rows int

	// Kappa is the measured extra B(:) traffic per inner-loop iteration:
	// (RHS fills - compulsory 8·N) / Nnz — the κ of Eq. 1.
	Kappa float64
	// RHSLoadFactor is how many times B(:) was loaded in total.
	RHSLoadFactor float64
}

// SpMVTraffic replays one full y = A·x sweep through the cache and returns
// the measured traffic. The arrays are laid out in disjoint address regions
// (their real-machine relative alignment is irrelevant at LLC scale).
func SpMVTraffic(a *matrix.CSR, cfg Config) (Traffic, error) {
	c, err := newCache(cfg, numStreams)
	if err != nil {
		return Traffic{}, err
	}
	const region = 1 << 40
	valBase := uint64(0)
	colBase := uint64(1 * region)
	rhsBase := uint64(2 * region)
	resBase := uint64(3 * region)
	ptrBase := uint64(4 * region)

	for i := 0; i < a.NumRows; i++ {
		c.access(ptrBase+uint64(i)*8, 16, false, StreamRowPtr) // rowptr[i], rowptr[i+1]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c.access(valBase+uint64(k)*8, 8, false, StreamVal)
			c.access(colBase+uint64(k)*4, 4, false, StreamCol)
			c.access(rhsBase+uint64(a.ColIdx[k])*8, 8, false, StreamRHS)
		}
		c.access(resBase+uint64(i)*8, 8, true, StreamResult)
	}

	tr := Traffic{
		ValBytes:    c.fillBytes(StreamVal),
		ColBytes:    c.fillBytes(StreamCol),
		RHSBytes:    c.fillBytes(StreamRHS),
		ResultBytes: c.fillBytes(StreamResult) + c.writebackBytes(StreamResult),
		RowPtrBytes: c.fillBytes(StreamRowPtr),
		Nnz:         a.Nnz(),
		Rows:        a.NumRows,
	}
	tr.TotalBytes = tr.ValBytes + tr.ColBytes + tr.RHSBytes + tr.ResultBytes + tr.RowPtrBytes
	if tr.Nnz > 0 {
		compulsory := int64(8 * a.NumCols)
		extra := tr.RHSBytes - compulsory
		if extra < 0 {
			extra = 0
		}
		tr.Kappa = float64(extra) / float64(tr.Nnz)
		tr.RHSLoadFactor = float64(tr.RHSBytes) / float64(compulsory)
	}
	return tr, nil
}
