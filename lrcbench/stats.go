package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTimes returns the process's user-mode and kernel-mode CPU time.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// cpuTime returns the process's CPU time, user plus kernel, all threads:
// the clock every end-to-end timing uses. Unlike wall time it does not
// grow while the host lends this machine's CPUs to others (steal). The
// sum is exact; the kernel splits it into user and kernel time by
// sampling at clock ticks, so either part alone is only good for spans
// of many ticks.
func cpuTime() time.Duration {
	u, s := cpuTimes()
	return u + s
}

// quiet runs f on a freshly collected heap with the collector paused and
// returns f's wall and CPU time. A sample of a few milliseconds then
// never depends on whether the pacer happened to start a collection
// inside it, which would split the samples into two populations.
func quiet(f func()) (wall, cpu time.Duration) {
	runtime.GC()
	paused(func() {
		c0, t0 := cpuTime(), time.Now()
		f()
		wall, cpu = time.Since(t0), cpuTime()-c0
	})
	return wall, cpu
}

// paused runs f with the collector paused.
func paused(f func()) {
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	f()
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// from /proc. It returns 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// allocMeter measures heap allocation between two points.
type allocMeter struct{ bytes, objs uint64 }

func startAlloc() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{ms.TotalAlloc, ms.Mallocs}
}

// since returns the bytes and objects allocated since the meter started.
func (a allocMeter) since() (bytes, objs uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - a.bytes, ms.Mallocs - a.objs
}
