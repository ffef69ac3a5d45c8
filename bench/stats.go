//go:build linux

package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// quantile returns the q-quantile (nearest rank) of sorted samples.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortInt64(s []int64) { slices.Sort(s) }

// median sorts a copy of the samples and returns its middle.
func median(samples []int64) int64 {
	s := slices.Clone(samples)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// medianOf is the middle of the values, the mean of the two middle ones when
// their number is even.
func medianOf(values []float64) float64 {
	v := slices.Clone(values)
	slices.Sort(v)
	if len(v) == 0 {
		return 0
	}
	return (v[(len(v)-1)/2] + v[len(v)/2]) / 2
}

// blockQuantile is the median, over consecutive blocks of the samples in the
// order they were taken, of each block's q-quantile. A few bad seconds of the
// host (a neighbour's burst, a stalled virtual CPU) spoil a few blocks and
// leave the median block alone, where they would drag a quantile of the
// whole run with them. There are sqrt(n/3) blocks: 11 of 30 for 340 trials,
// 340 of 1 000 for 340 000 requests.
func blockQuantile(samples []int64, q float64) int64 {
	blocks := max(int(math.Sqrt(float64(len(samples))/3)), 1)
	qs := make([]int64, 0, blocks)
	for b := 0; b < blocks; b++ {
		block := slices.Clone(samples[b*len(samples)/blocks : (b+1)*len(samples)/blocks])
		slices.Sort(block)
		qs = append(qs, quantile(block, q))
	}
	return median(qs)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the Go heap still reachable after a full collection: what the
// process holds on to, whatever phase of its collection cycle it was in. The
// resident set at the same moment is 1.3 to 2 times this and depends on
// that phase, and on how the last cycle left the heap fragmented.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
