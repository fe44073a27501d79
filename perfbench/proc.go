package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peakRSSMB reads the peak resident set size (VmHWM) of process pid ("self"
// for this process) in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer func() { _ = f.Close() }() // read only
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetPeakRSS returns freed heap to the OS and restarts this process's
// VmHWM high-water mark, so the peak measured afterwards belongs to the
// timed phase and not to set-up. It reports whether the kernel allowed the
// reset.
func resetPeakRSS() bool {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// settleGoroutines waits up to a second for the goroutine count to fall to
// baseline (exiting goroutines finish asynchronously) and reports the count
// it saw last.
func settleGoroutines(baseline int) int {
	n := runtime.NumGoroutine()
	for deadline := now().Add(time.Second); n > baseline && now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// cpuTimes reads the host's steal time and the total CPU time, in jiffies
// summed over all CPUs, from /proc/stat (zeros if it cannot). Steal is time
// the hypervisor ran something else on this VM's CPUs; the closed loops
// report its share of the timed phase, because it moves their timings.
func cpuTimes() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// processCPU returns the CPU time this process has used so far, user and
// system, summed over its threads. The kernel leaves out the time the host
// ran something else on the VM's CPUs (steal), which wall-clock time
// includes.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// childCPU returns the CPU time process pid has used so far, user and
// system over all its threads, from /proc/<pid>/stat (in clock ticks of
// 10 ms, the kernel's fixed USER_HZ for /proc).
func childCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name in parentheses may hold spaces; the fields after it
	// start with the state (field 3), so utime and stime (fields 14 and 15)
	// are f[11] and f[12].
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, v := range f[11:13] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// cost is one operation's wall-clock latency and the CPU time this process
// used meanwhile.
type cost struct{ wall, cpu time.Duration }

// noRun is the cost an operation reports when it could not run at all.
var noRun = cost{wall: -1}

func (c cost) ran() bool { return c.wall >= 0 }

// meter times one operation in wall-clock and CPU time.
type meter struct {
	t0  time.Time
	cpu time.Duration
}

func startMeter() meter { return meter{now(), processCPU()} }

func (m meter) stop() cost { return cost{now().Sub(m.t0), processCPU() - m.cpu} }
