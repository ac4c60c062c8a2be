package spmv

import (
	"syscall"
	"testing"
	"time"
)

// processCPU is the user plus system CPU time the process has used.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// An idle team parks once its spin budget is spent: after one region and a
// settle far longer than spinRounds yields take, a team of 4 costs the
// process (nearly) no CPU over a 100 ms window.
func TestIdleTeamParks(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	team.Run(func(int) {})
	time.Sleep(50 * time.Millisecond)
	before := processCPU(t)
	time.Sleep(100 * time.Millisecond)
	if used := processCPU(t) - before; used >= 10*time.Millisecond {
		t.Errorf("an idle team of 4 used %v of CPU in 100 ms", used)
	}
}
