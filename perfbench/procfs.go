package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// userHZ is the unit of utime/stime in /proc/<pid>/stat. Linux fixes
// USER_HZ at 100 on every architecture Go supports.
const userHZ = 100

// procCPU is a process's accumulated CPU time, split into user and
// kernel time. /proc reports both in USER_HZ ticks, but their sum is
// the scheduler's nanosecond runtime rounded once, so deltas over
// seconds are exact to a tick.
type procCPU struct {
	User, Sys time.Duration
}

// Total is user plus kernel time.
func (c procCPU) Total() time.Duration { return c.User + c.Sys }

// Sub returns the CPU time spent between two readings.
func (c procCPU) Sub(o procCPU) procCPU {
	return procCPU{User: c.User - o.User, Sys: c.Sys - o.Sys}
}

// parseProcStat extracts utime and stime from the text of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and
// may itself contain spaces or parentheses, so fields are counted from
// the last ')'.
func parseProcStat(text string) (procCPU, error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return procCPU{}, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(text[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return procCPU{}, fmt.Errorf("proc stat: %d fields after command, want >= 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return procCPU{}, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return procCPU{}, fmt.Errorf("proc stat stime: %w", err)
	}
	tick := time.Second / userHZ
	return procCPU{User: time.Duration(ut) * tick, Sys: time.Duration(st) * tick}, nil
}

// readProcCPU reads the CPU time of pid ("self" for this process).
func readProcCPU(pid string) (procCPU, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return procCPU{}, err
	}
	return parseProcStat(string(b))
}

// parseStatusFields returns the integer value of each requested key of
// a /proc/<pid>/status (or task status) text. Sizes such as VmHWM come
// in kB, as the file writes them. A missing key is an error.
func parseStatusFields(text string, keys ...string) (map[string]uint64, error) {
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	out := make(map[string]uint64, len(keys))
	for _, line := range strings.Split(text, "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok || !want[k] {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			return nil, fmt.Errorf("proc status %s: empty value", k)
		}
		n, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("proc status %s: %w", k, err)
		}
		out[k] = n
	}
	for _, k := range keys {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("proc status: no %s line", k)
		}
	}
	return out, nil
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark,
// in MB (2^20 bytes).
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	f, err := parseStatusFields(string(b), "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(f["VmHWM"]) / 1024, nil
}

// cpuTicks is the host-wide CPU time line of /proc/stat: all ticks,
// and those a hypervisor stole from this machine's virtual CPUs.
type cpuTicks struct{ total, steal uint64 }

// parseHostStat reads the aggregate "cpu" line of /proc/stat: user,
// nice, system, idle, iowait, irq, softirq, steal, ... in ticks.
func parseHostStat(text string) (cpuTicks, error) {
	line, _, _ := strings.Cut(text, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("proc stat: no aggregate cpu line with steal time")
	}
	var t cpuTicks
	for i, s := range f[1:] {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTicks{}, fmt.Errorf("proc stat cpu field %d: %w", i+1, err)
		}
		// guest and guest_nice (fields 9, 10) are already in user/nice.
		if i < 8 {
			t.total += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return t, nil
}

// readHostStat reads the host's CPU time line.
func readHostStat() (cpuTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	return parseHostStat(string(b))
}

// stealShare is the fraction of the host's CPU time stolen between
// two readings: time the hypervisor gave other machines while this
// one's virtual CPUs had work.
func stealShare(a, b cpuTicks) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// parseSchedstat returns the on-CPU time of a /proc/<pid>/task/<tid>/
// schedstat text: its first field, in nanoseconds.
func parseSchedstat(text string) (time.Duration, error) {
	f := strings.Fields(text)
	if len(f) < 1 {
		return 0, fmt.Errorf("schedstat: empty")
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat: %w", err)
	}
	return time.Duration(ns), nil
}

// schedCPU sums the on-CPU time of every thread of pid with nanosecond
// resolution, fine enough to divide one second of work by. (The tick
// counts of /proc/<pid>/stat resolve 10 ms.) A thread that exits
// takes its time with it; the Go runtime keeps its threads.
func schedCPU(procRoot, pid string) (time.Duration, error) {
	ns, err := sumTasks(procRoot, pid, "schedstat", func(text string) (uint64, error) {
		d, err := parseSchedstat(text)
		return uint64(d), err
	})
	return time.Duration(ns), err
}

// ctxSwitches sums voluntary and involuntary context switches over
// every thread of pid. The process-level status file counts only the
// main thread, so the per-task files are read.
func ctxSwitches(procRoot, pid string) (uint64, error) {
	return sumTasks(procRoot, pid, "status", func(text string) (uint64, error) {
		f, err := parseStatusFields(text, "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches")
		return f["voluntary_ctxt_switches"] + f["nonvoluntary_ctxt_switches"], err
	})
}

// sumTasks adds parse(text of /proc/<pid>/task/<tid>/<file>) over the
// threads of pid. A thread that exits between the listing and its read
// is skipped.
func sumTasks(procRoot, pid, file string, parse func(string) (uint64, error)) (uint64, error) {
	paths, err := filepath.Glob(filepath.Join(procRoot, pid, "task", "*", file))
	if err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, fmt.Errorf("no tasks under %s", filepath.Join(procRoot, pid))
	}
	var total uint64
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return 0, err
		}
		n, err := parse(string(b))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p, err)
		}
		total += n
	}
	return total, nil
}
