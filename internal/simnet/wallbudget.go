package simnet

import "time"

// WallBudget is the package's ONE sanctioned wall-clock source. Everything
// else in simnet runs in virtual time and the reprolint wallclock analyzer
// rejects package time here; the budget is the deliberate exception — it
// bounds how long the PLANNER itself may run (cmd/spmv-sim's -budget
// flag, the sim-smoke CI gate), which is a property of the host machine,
// not of the simulated one.
type WallBudget struct {
	start time.Time //reprolint:ignore wallclock the sanctioned planner wall-clock budget
	limit time.Duration
}

// NewWallBudget starts a budget of d; d ≤ 0 means unlimited.
func NewWallBudget(d time.Duration) *WallBudget {
	return &WallBudget{start: time.Now(), limit: d} //reprolint:ignore wallclock the sanctioned planner wall-clock budget
}

// Elapsed returns wall time since the budget started.
func (b *WallBudget) Elapsed() time.Duration {
	return time.Since(b.start) //reprolint:ignore wallclock the sanctioned planner wall-clock budget
}

// exceeded reports whether the budget has run out.
func (b *WallBudget) exceeded() bool {
	return b.limit > 0 && b.Elapsed() > b.limit
}
