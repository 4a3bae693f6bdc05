package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it — the 11th largest value — and the sample count. With
// ten or fewer samples no such percentile exists and the maximum stands in.
func tail(xs []float64) (value float64, n int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	i := len(s) - 11
	if i < 0 {
		i = len(s) - 1
	}
	return s[i], len(s)
}

// tailPercentile names the percentile tail reports for n samples.
func tailPercentile(n int) float64 {
	if n <= 10 {
		return 100
	}
	return 100 * float64(n-10) / float64(n)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resetPeakRSS returns the heap's free memory to the operating system and
// restarts the kernel's resident-set high-water mark, so the next peakRSSMB
// reads the peak of what ran since this call. The restart does nothing where
// /proc/self/clear_refs is unavailable, and peakRSSMB then keeps reporting
// the process-lifetime peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark in MiB, from
// /proc/self/status (VmHWM) with getrusage as the fallback.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuTicks is a reading of the machine's CPU time counters (/proc/stat),
// in clock ticks summed over CPUs: the time the hypervisor stole from this
// machine's virtual CPUs, and the time they were busy or wanted to be (all
// but idle and I/O wait).
type cpuTicks struct {
	steal, busy uint64
}

func readTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	// user nice system idle iowait irq softirq steal
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		switch i {
		case 4, 5:
		case 8:
			t.steal = v
			t.busy += v
		default:
			t.busy += v
		}
	}
	return t
}

// runShare is the share of the CPU time this machine's virtual CPUs wanted
// between two readings that they actually got: one minus the share the
// hypervisor stole. It is 1 where /proc/stat is unavailable or no tick
// elapsed.
//
// Every timing the benchmark reports is multiplied by the run share of its
// interval (and then by the machine speed, see speed). On a shared host the
// stolen share swings between nothing and a third from minute to minute,
// and stretches wall time with it; the adjusted figure is the time the
// program would have taken had its CPUs not been taken away.
func runShare(a, b cpuTicks) float64 {
	if b.busy <= a.busy || b.steal < a.steal {
		return 1
	}
	return 1 - float64(b.steal-a.steal)/float64(b.busy-a.busy)
}

// cpuSeconds is the CPU time (user and system) the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// scale multiplies every sample by f.
func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// calRef is how long calibrate's loop takes at the reference speed.
const calRef = 10 * time.Millisecond

// speed probes how fast the machine runs right now, relative to the
// reference speed: calRef over the on-CPU time of calibrate's loop, best of
// three. On-CPU time leaves out time stolen by the hypervisor and by other
// processes, which runShare accounts for; what is left is the machine's
// speed while it runs this process — clock frequency and contention for the
// shared core and caches — which on a shared host drifts by ±15% from
// minute to minute.
//
// A run probes the speed before every pass and multiplies every timing it
// reports by the median, so the figures read as times at the reference
// speed. The loop is the benchmark's own code and stays fixed, so a change
// to the program moves the adjusted figures as much as the raw ones.
func speed() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		t0 := threadCPU()
		calibrate()
		best = min(best, threadCPU()-t0)
	}
	if best <= 0 {
		return 1
	}
	return float64(calRef) / float64(best)
}

// threadCPU is the calling OS thread's CPU time, to the nanosecond
// (getrusage would round it to the scheduler tick).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// calibrate runs a fixed loop shaped like a predictor kernel: pseudo-random
// two-bit counter updates in a 256 KiB table, with unpredictable branches.
func calibrate() {
	table := make([]uint8, 256<<10)
	x := uint64(88172645463325252)
	var mis int
	for i := 0; i < 1_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		idx := x & uint64(len(table)-1)
		c := table[idx]
		taken := x&(1<<40) != 0
		if (c >= 2) != taken {
			mis++
		}
		if taken && c < 3 {
			table[idx] = c + 1
		} else if !taken && c > 0 {
			table[idx] = c - 1
		}
	}
	calSink = mis
}

// calSink keeps calibrate's loop from being optimized away.
var calSink int
