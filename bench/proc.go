package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
)

// Process-tree accounting. RUSAGE_CHILDREN only covers reaped children and
// reports the largest child's RSS, so live shard workers are read from
// /proc at round boundaries while they are still running.

// clockTick is the kernel's USER_HZ: the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports.
const clockTick = 100

// parseStatCPU extracts utime+stime, in seconds, from the text of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// itself contain spaces and parentheses, so fields are counted from the last
// ')'.
func parseStatCPU(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := bytes.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(string(f[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(string(f[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return float64(utime+stime) / clockTick, nil
}

// parseStatusKB extracts one "Key:   <n> kB" line from the text of
// /proc/<pid>/status, in kB.
func parseStatusKB(status []byte, key string) (int64, error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte(key+":"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		n, err := strconv.ParseInt(string(f[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %s: %w", key, err)
		}
		return n, nil
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// selfCPU is this process's user+system CPU time in seconds (getrusage:
// microsecond resolution, against the 10 ms ticks of /proc).
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// workersCPU sums utime+stime over the given live worker pids. A worker
// that has exited between Pids() and the read is skipped, and a respawned one
// counts from 0 again, so a round in which a worker died has no usable CPU
// sample: servedSharded.round reports the death as a failed operation, which
// fails the run.
func workersCPU(pids []int) float64 {
	var sum float64
	for _, pid := range pids {
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			continue
		}
		if s, err := parseStatCPU(stat); err == nil {
			sum += s
		}
	}
	return sum
}

// statusMB reads one kB-valued key of /proc/<pid>/status ("self" for this
// process) in MB, 0 if unreadable.
func statusMB(pid, key string) float64 {
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	kb, err := parseStatusKB(status, key)
	if err != nil {
		return 0
	}
	return float64(kb) / 1024
}

// treeHWM is Σ VmHWM (peak resident set) over this process and the given
// live workers, in MB.
func treeHWM(pids []int) float64 {
	sum := statusMB("self", "VmHWM")
	for _, pid := range pids {
		sum += statusMB(strconv.Itoa(pid), "VmHWM")
	}
	return sum
}
