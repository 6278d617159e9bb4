package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host probe measures how fast this machine runs right now. On a
// shared host the same work takes 20–40% more CPU time in some minutes
// than in others: another tenant on the sibling hardware thread or a
// lower clock slows every instruction, and CPU time, unlike wall time,
// does not exclude that. Every end-to-end timing is therefore scaled by
// refProbe over the probe's CPU time, which reports it as CPU time at
// the probe speed of the host the benchmark was tuned on. A sample of
// milliseconds (a restart, a batch of fetches, a service iteration) is
// scaled by one probe run just before it. A pass or a set-up, seconds
// long, is scaled by probes run before and after it: those follow a
// change of the host's speed between runs minutes apart, not within the
// pass.
//
// The probe is the benchmark's own code and shares nothing with the
// program: a change to the program cannot speed it up or slow it down.
// It allocates nothing, so it never meets the collector, and its 128 KB
// working set fits in a core's private caches, so the program's data
// left in the shared cache does not slow it either. It is timed on its
// own thread's CPU clock, so goroutines still running elsewhere in the
// process are not counted.

// sampleSpan is the wall time over which matrix-small and core-medium
// spread the restart samples that follow a pass. Back to back, 100
// matrix-small restarts of 3 ms span a third of a second, and a run's
// median reads whichever speed the host had in that moment, which the
// probe follows only in part: from run to run the median jumped between
// 2.5 and 3.4 ms. Spread over seconds, a run's median covers many host
// states. service-warm's iterations already fill the measuring window.
const sampleSpan = 3 * time.Second

// pace waits out the gap that spreads n samples over sampleSpan. The
// wait costs no CPU time, so it is in no sample.
func pace(n int) { time.Sleep(sampleSpan / time.Duration(n)) }

// refProbe is the probe's median CPU time on the host the benchmark was
// tuned on (a 2-vCPU virtual machine); a sample taken while the probe
// reads refProbe is reported unscaled.
const refProbe = 2200 * time.Microsecond

// probeRing is one random cycle through 32768 slots.
var probeRing = func() []uint32 {
	const n = 1 << 15
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	ring := make([]uint32, n)
	for i := range perm {
		ring[perm[i]] = perm[(i+1)%n]
	}
	return ring
}()

var probeSink uint64

// threadCPU returns the calling OS thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// walkRing follows the ring for steps, mixing each slot into a hash.
func walkRing(steps int) uint64 {
	x, p := uint64(1), uint32(0)
	for range steps {
		p = probeRing[p]
		x = x*6364136223846793005 + uint64(p)
		if x&(1<<40) != 0 {
			x ^= x >> 29
		}
	}
	return x
}

// hostProbe returns the thread CPU time of one fixed walk of the ring,
// after a short walk that brings the ring into the cache.
func hostProbe() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	probeSink += walkRing(1 << 15)
	t0 := threadCPU()
	probeSink += walkRing(400_000)
	return threadCPU() - t0
}

// hostSpeed runs the probe n times and returns the factor that scales a
// sample taken now to the reference host: refProbe over the median probe
// time. Every probe is kept for the provenance line.
func (b *bench) hostSpeed(n int) float64 {
	var xs []float64
	for range n {
		xs = append(xs, float64(hostProbe()))
	}
	b.hostProbeNS = append(b.hostProbeNS, xs...)
	return float64(refProbe) / median(xs)
}

// hostSpeedAround returns the host speed factor of run, a pass or a
// set-up: the mean of the factors of n probes before it and n after.
func (b *bench) hostSpeedAround(n int, run func()) float64 {
	before := b.hostSpeed(n)
	run()
	return (before + b.hostSpeed(n)) / 2
}

// scaled returns d at the reference host's speed.
func scaled(d time.Duration, speed float64) time.Duration {
	return time.Duration(float64(d) * speed)
}
