package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs
// and how many samples lie strictly beyond that rank. Nearest rank means
// the reported value is always an observed sample: for n samples it is
// the ceil(p/100·n)-th smallest, so with n = 20 the p90 is the 18th value
// and 2 samples lie beyond it. xs is not modified; an empty input yields
// (0, 0).
func percentile(xs []float64, p float64) (value float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n - rank
}

// median is the middle of xs (mean of the two middle values for even n),
// the figure a benchmark reports for repeated set-ups.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// peakWindow tracks the process's peak resident set over chosen stretches
// of the run. Linux keeps one high-water mark (VmHWM) per process; reset
// rewinds it to the current RSS, so the benchmark can leave output checks
// out of the peak by reading before a check and resetting after it.
type peakWindow struct {
	maxKB int64
}

// reset returns freed heap to the OS and rewinds the kernel high-water
// mark, starting a new stretch.
func (w *peakWindow) reset() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing "5" to clear_refs resets VmHWM (Linux ≥ 4.0). Without it the
	// mark covers the whole process lifetime, which only over-reports.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// read folds the high-water mark of the current stretch into the peak.
func (w *peakWindow) read() {
	if kb := procStatusKB("VmHWM"); kb > w.maxKB {
		w.maxKB = kb
	}
}

// mb is the peak so far in MiB.
func (w *peakWindow) mb() float64 { return float64(w.maxKB) / 1024 }

// procStatusKB reads one "Key:   N kB" line of /proc/self/status (0 when
// absent).
func procStatusKB(key string) int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// cpuTicks is the aggregate "cpu" line of /proc/stat: total ticks over
// the first eight fields and the steal ticks among them.
type cpuTicks struct{ total, steal uint64 }

// readCPUTicks samples /proc/stat (zero values when unavailable).
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of CPU time the hypervisor stole between two
// samples: the host-noise figure that tells a disturbed run from a slower
// program.
func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
