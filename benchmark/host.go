package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostFacts is what a reader needs to judge whether two result files are
// comparable: the machine, the toolchain and the commit they were taken on.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	L2         string `json:"l2"`
	L3         string `json:"l3"`
	Kernel     string `json:"kernel"`
	GitCommit  string `json:"git_commit"`
}

// computeProcs is the GOMAXPROCS of every measuring process: all workloads
// are sized for at most two compute goroutines, so a larger host changes
// nothing but scheduler placement.
func computeProcs() int { return min(runtime.NumCPU(), 2) }

func readHostFacts() hostFacts {
	h := hostFacts{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: computeProcs(),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		L2:         cacheSize(2),
		L3:         cacheSize(3),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		GitCommit:  gitCommit(),
	}
	for _, line := range strings.Split(readFile("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// readFile returns a file's contents, or "" when it cannot be read: every
// host fact is best-effort.
func readFile(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(data)
}

// cacheSize reports cpu0's cache of the given level as sysfs prints it.
func cacheSize(level int) string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		if strings.TrimSpace(readFile(d+"/level")) == strconv.Itoa(level) {
			return strings.TrimSpace(readFile(d + "/size"))
		}
	}
	return "unknown"
}

// gitCommit resolves .git/HEAD by hand: the checkout a driver runs the
// benchmark in need not be a repository, and asking git would make it walk
// up out of the checkout.
func gitCommit() string {
	head := strings.TrimSpace(readFile(".git/HEAD"))
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		head = strings.TrimSpace(readFile(".git/" + ref))
	}
	if head == "" {
		return "unknown"
	}
	return head
}

// cpuTime returns this process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// statusMB reads one kB field of /proc/self/status — "VmRSS:", the resident
// set, or "VmHWM:", its high-water mark — in MB.
func statusMB(field string) float64 {
	for _, line := range strings.Split(readFile("/proc/self/status"), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// stealTicks returns the cumulative steal time of all CPUs from /proc/stat:
// time the hypervisor ran somebody else while this VM wanted to run.
func stealTicks() int64 {
	line, _, _ := strings.Cut(readFile("/proc/stat"), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}
