// Package spmv provides node-level sparse matrix-vector kernels: the serial
// CRS kernel of §1.2, and thread-parallel variants executed by a reusable
// worker team. The team plays the role OpenMP plays in the paper: a fixed
// pool of compute threads with static, nonzero-balanced loop chunking.
// As in the paper's task mode, work distribution is explicit ("one
// contiguous chunk of nonzeros per compute thread") because subteam
// worksharing is managed by the caller.
//
// A region is entered in one of two ways, and they are the paper's two
// thread roles. Exec (and Run, RunSubteam) is an OpenMP parallel region:
// the calling goroutine is thread 0 and runs chunk 0 itself, only threads
// 1..n-1 are woken, and a team of one runs its region as a plain function
// call — the master thread that has just finished its MPI calls goes on to
// compute (vector modes, Fig. 4a/b). Start/Join launch all n chunks on the
// pool and leave the caller free: that is the dedicated communication
// thread of task mode (Fig. 4c), which sits in the halo wait while the
// compute threads work.
package spmv

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// spinRounds is how many times a worker yields while polling for the next
// parallel region before parking on the condition variable. Back-to-back
// regions (iterative solvers, benchmarks) stay on the cheap spin path; idle
// teams park and cost nothing.
const spinRounds = 128

// Region is one parallel region: a participant count and a body, fixed at
// Compile time, plus the per-execution state (ticket, outstanding-chunk
// countdown). A compiled Region is restartable — Exec/Start republish the
// SAME descriptor under a fresh ticket, so steady-state loops (the resident
// distributed workers re-running their halo and kernel passes thousands of
// times) allocate nothing per region.
//
// The ticket is the team's epoch shifted left by one, with the low bit set
// when pool worker 0 takes part (Start) and clear when the caller runs
// chunk 0 itself (Exec). One atomic word, so a worker reads the epoch and
// its own participation together: the same Region may be Exec'd in one step
// and Started in the next.
//
// Safety of reuse: n and fn never change after Compile, and the ticket is
// atomic, so a worker still holding a stale pointer to a republished
// region reads a consistent descriptor. A lagging worker can only lag past
// executions it does not participate in (the caller cannot advance past an
// execution before all its participants finish), so when it observes a
// fresh ticket on a stale pointer that names it a participant, that pointer
// IS the current region again and participation is correct.
type Region struct {
	ticket  atomic.Uint64
	n       int
	fn      func(worker int)
	closed  bool
	pending atomic.Int32
}

// Team is a fixed pool of worker goroutines that repeatedly execute SPMD
// regions. It substitutes for an OpenMP thread team: workers are long-lived,
// numbered 0..Size-1, and every Run is a barrier-synchronized parallel
// region in which the caller is thread 0 (see Exec); Start/Join hand all
// chunks to the pool instead, for a caller that has communication to do.
//
// Dispatch uses a sense-reversing barrier instead of per-worker channels:
// a region is published under a fresh ticket, the pool is woken with one
// broadcast, and whichever pool participant decrements the outstanding
// count to zero sends a single completion token. Per-region overhead is
// therefore O(1) channel operations instead of O(workers) — and none at
// all for an Exec on a team of one, or one whose caller finishes last.
//
// A panic in a region body does not kill the process: a pool worker
// recovers it, the countdown still reaches zero, and Join/Exec re-raise
// the first one on the caller once every chunk has returned. The team
// stays usable afterwards.
//
// Run, Exec, Start, Join and Close form the caller-side surface and must
// all be invoked from one goroutine at a time (no concurrent regions on
// one team).
type Team struct {
	size     int
	epoch    uint64 // last published epoch; touched only by the caller
	cur      atomic.Pointer[Region]
	done     chan struct{} // completion token from the last pool participant
	inflight bool          // a Start awaits its Join; caller-side only
	closed   bool          // Close latch; caller-side only

	mu       sync.Mutex // parking lot; region publication happens under it
	cond     *sync.Cond
	panicked any // first panic of the current region, guarded by mu
}

// NewTeam starts a team with the given number of workers (≥ 1).
func NewTeam(size int) *Team {
	if size < 1 {
		panic(fmt.Sprintf("spmv: team size %d < 1", size))
	}
	t := &Team{size: size, done: make(chan struct{}, 1)}
	t.cond = sync.NewCond(&t.mu)
	for w := 0; w < size; w++ {
		go t.worker(w)
	}
	return t
}

// worker is the barrier loop: wait for a new region, run it if this worker
// participates, and signal completion if it is the last one out.
//
//repro:noalloc
func (t *Team) worker(w int) {
	seen := uint64(0)
	for {
		d := t.cur.Load()
		if d == nil || d.ticket.Load() == seen {
			for spun := 0; spun < spinRounds; spun++ {
				runtime.Gosched()
				if d = t.cur.Load(); d != nil && d.ticket.Load() != seen {
					break
				}
			}
			if d == nil || d.ticket.Load() == seen {
				t.mu.Lock()
				for {
					if d = t.cur.Load(); d != nil && d.ticket.Load() != seen {
						break
					}
					t.cond.Wait()
				}
				t.mu.Unlock()
			}
		}
		// Jump to the latest region: a worker idle across several subteam
		// regions must not replay them. The caller cannot advance past a
		// region this worker participates in, so participants always
		// observe their region's exact descriptor.
		seen = d.ticket.Load()
		if d.closed {
			return
		}
		// Chunk 0 belongs to the caller unless the ticket says Start.
		if first := 1 - int(seen&1); first <= w && w < d.n {
			t.runChunk(d, w)
			if d.pending.Add(-1) == 0 {
				t.done <- struct{}{}
			}
		}
	}
}

// runChunk runs one chunk of a region, keeping the first panic for the
// caller instead of letting it unwind a pool goroutine (or, on the caller,
// skip the barrier).
//
//repro:noalloc
func (t *Team) runChunk(d *Region, w int) {
	defer t.keepPanic()
	d.fn(w)
}

// keepPanic is runChunk's deferred recover.
func (t *Team) keepPanic() {
	if v := recover(); v != nil {
		t.mu.Lock()
		if t.panicked == nil {
			t.panicked = v
		}
		t.mu.Unlock()
	}
}

// rethrow re-raises on the caller what a chunk of the region just joined
// panicked with. Every chunk has returned, and its write happened before
// the countdown the caller has just observed, so the read needs no lock.
//
//repro:noalloc
func (t *Team) rethrow() {
	if v := t.panicked; v != nil {
		t.panicked = nil
		panic(v)
	}
}

// Size returns the number of workers.
func (t *Team) Size() int { return t.size }

// Run executes f(worker) once per worker index and returns when all have
// finished — an OpenMP "parallel" region with an implied barrier; index 0
// runs on the calling goroutine. Run must not be called concurrently with
// itself or Close.
func (t *Team) Run(f func(worker int)) { t.run(t.size, f) }

// RunSubteam executes f for worker indices [0, n) only; the rest stay idle.
// This is the explicit subteam worksharing of the paper's task mode (§3.2),
// where one thread is reserved for communication and the remaining threads
// compute.
func (t *Team) RunSubteam(n int, f func(worker int)) {
	if n < 0 || n > t.size {
		panic(fmt.Sprintf("spmv: subteam size %d outside [0,%d]", n, t.size))
	}
	t.run(n, f)
}

func (t *Team) run(n int, f func(worker int)) {
	if n == 0 {
		return
	}
	t.Exec(t.Compile(n, f))
}

// Compile prepares a restartable region: f will run for worker indices
// [0, n) each time the region is executed. The descriptor is allocated
// once; Exec and Start republish it with no further allocation, which is
// what makes the resident distributed workers' steady-state iteration
// allocation-free. The chunk data f reads may change between executions
// (it is read at run time), but n and f themselves are fixed.
func (t *Team) Compile(n int, f func(worker int)) *Region {
	if n < 0 || n > t.size {
		panic(fmt.Sprintf("spmv: region size %d outside [0,%d]", n, t.size))
	}
	return &Region{n: n, fn: f}
}

// Exec runs a compiled region to completion with the caller as thread 0:
// chunk 0 runs on the calling goroutine and only pool workers 1..n-1 are
// woken, which is what an OpenMP parallel region means. For n = 1 nothing
// is published, no goroutine is woken and no channel is touched — the
// region is a function call. The barrier costs a channel receive only
// when a pool worker finishes after the caller.
//
//repro:noalloc
func (t *Team) Exec(r *Region) {
	t.admit(r)
	switch r.n {
	case 0:
		return
	case 1:
		r.fn(0)
		return
	}
	t.publish(r, 0)
	t.runChunk(r, 0)
	if r.pending.Add(-1) != 0 {
		<-t.done
	}
	t.rethrow()
}

// Start launches all n chunks of a compiled region on the pool and returns
// immediately: the workers compute while the caller does something else —
// in the paper's task mode, the caller is the communication thread and
// sits inside the halo wait. Every Start must be matched by a Join before
// the next region (Run/Exec/Start/Close) on this team.
//
//repro:noalloc
func (t *Team) Start(r *Region) {
	t.admit(r)
	if r.n == 0 {
		return
	}
	t.inflight = true
	t.publish(r, 1)
}

// Join blocks until the region launched by the last Start has completed —
// the implied barrier of the parallel region — and re-raises a panic from
// its body. Join after a zero-sized or absent Start returns immediately.
//
//repro:noalloc
func (t *Team) Join() {
	if !t.inflight {
		return
	}
	t.inflight = false
	<-t.done
	t.rethrow()
}

// admit refuses a region the team cannot run now.
//
//repro:noalloc
func (t *Team) admit(r *Region) {
	if r.closed {
		panic("spmv: Start on a closed-team sentinel region")
	}
	if t.closed {
		panic("spmv: Run on closed team")
	}
	if t.inflight {
		panic("spmv: Start while a started region is still unjoined")
	}
}

// publish makes d the current region under a fresh ticket — pool worker 0
// takes part when pool0 is 1, the caller runs chunk 0 when it is 0 — and
// wakes any parked workers. The store happens under the parking mutex so a
// worker checking for a new region before cond.Wait cannot miss the
// broadcast.
//
//repro:noalloc
func (t *Team) publish(d *Region, pool0 uint64) {
	t.epoch++
	// pending is stored before the ticket: a worker that observes the new
	// ticket on a stale pointer must also observe the reset countdown.
	d.pending.Store(int32(d.n))
	d.ticket.Store(t.epoch<<1 | pool0)
	t.mu.Lock()
	t.cur.Store(d)
	t.mu.Unlock()
	t.cond.Broadcast()
}

// Close terminates the workers. The team must be idle. Close is idempotent.
func (t *Team) Close() {
	if t.closed {
		return
	}
	t.closed = true
	t.publish(&Region{closed: true}, 1)
}

// Range is a half-open row interval [Lo, Hi).
type Range struct{ Lo, Hi int }

// Len returns the number of rows in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// BalanceNnz splits rows [0, n) into parts contiguous ranges with
// approximately equal nonzero counts, given the CSR row-pointer array
// (or any prefix-sum of per-row weights). This is the "balanced
// distribution of nonzeros" the paper uses for both MPI-rank and thread
// work distribution (§3.1 footnote 2, §3.2).
//
// Every returned range is non-empty when n ≥ parts; when n < parts the
// trailing ranges are empty.
func BalanceNnz(prefix []int64, parts int) []Range {
	n := len(prefix) - 1
	if n < 0 {
		panic("spmv: empty prefix array")
	}
	return balance(n, prefix[n], parts, func(lo, maxHi int, target int64) int {
		hi := lo
		for hi < maxHi && prefix[hi] < target {
			hi++
		}
		return hi
	})
}

// balance is BalanceNnz over a prefix sum that is never stored: n rows of
// total weight, and advance(lo, maxHi, target) returning the first hi in
// [lo, maxHi] whose prefix reaches target, or maxHi. Successive calls pass
// non-decreasing lo, so advance may keep a running sum.
func balance(n int, total int64, parts int, advance func(lo, maxHi int, target int64) int) []Range {
	if parts < 1 {
		panic(fmt.Sprintf("spmv: parts %d < 1", parts))
	}
	out := make([]Range, parts)
	lo := 0
	for p := 0; p < parts; p++ {
		if p == parts-1 {
			out[p] = Range{lo, n}
			break
		}
		// End this part at the first boundary reaching the cumulative target,
		// but leave at least one row for each remaining part. When fewer rows
		// remain than parts, the reservation is infeasible; still let this
		// part take a row so the empty ranges trail (as documented) rather
		// than lead.
		target := total * int64(p+1) / int64(parts)
		maxHi := n - (parts - p - 1)
		if maxHi <= lo && lo < n {
			maxHi = lo + 1
		}
		if maxHi < lo {
			maxHi = lo
		}
		hi := advance(lo, maxHi, target)
		if hi == lo && lo < maxHi {
			hi = lo + 1 // never emit an empty range while rows remain
		}
		out[p] = Range{lo, hi}
		lo = hi
	}
	return out
}
