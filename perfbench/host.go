package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the machine record printed with every run.
type hostInfo struct {
	CPUModel        string
	NProc           int
	GOMAXPROCSBench int
	GOMAXPROCSPqd   int
	GoVersion       string
	StealPct        float64
}

func (h hostInfo) String() string {
	return fmt.Sprintf("cpu_model=%q nproc=%d gomaxprocs_bench=%d gomaxprocs_pqd=%d go=%s steal_pct=%.3f",
		h.CPUModel, h.NProc, h.GOMAXPROCSBench, h.GOMAXPROCSPqd, h.GoVersion, h.StealPct)
}

// readHost records the machine. pqd children are started with
// GOMAXPROCS=procs, the same value this process runs with.
func readHost(procs int, stealPct float64) hostInfo {
	h := hostInfo{
		CPUModel:        "unknown",
		NProc:           runtime.NumCPU(),
		GOMAXPROCSBench: runtime.GOMAXPROCS(0),
		GOMAXPROCSPqd:   procs,
		GoVersion:       runtime.Version(),
		StealPct:        stealPct,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// cpuTimes is the aggregate line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, steal uint64
}

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	var t cpuTimes
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		// guest and guest_nice (fields 9, 10) are already in user/nice.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the share of host CPU time stolen by the hypervisor
// between two readings.
func stealPct(a, b cpuTimes) float64 {
	return 100 * ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; it is 100
// on every Linux architecture Go supports.
const clockTick = 100

// procCPU is the user+system CPU a process has used so far, from
// /proc/<pid>/stat. On the VM the benchmark was built on, these times
// grew with host steal (see unstolen). Summing the threads' schedstat
// run times was tried instead; on a busy host it moved more with steal.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// selfCPU is this process's user+system CPU so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is a process's peak resident set (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	v, err := procField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM:")
	return v / 1024, err
}

// diskWriteBytes is the bytes this process caused to be written to
// storage (write_bytes in /proc/self/io).
func diskWriteBytes() (float64, error) {
	return procField("/proc/self/io", "write_bytes:")
}

// procField reads the first number after key in a /proc text file.
func procField(path, key string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseFloat(fields[0], 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, key)
}
