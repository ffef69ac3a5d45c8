package metrics

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// The latency histogram uses log-spaced buckets with latSubBits linear
// sub-buckets per power of two (an HDR-style layout): relative quantile
// error is bounded by 1/2^latSubBits (~12%) at every magnitude, the whole
// recorder is a fixed array of atomic counters, and Record is a shift, a
// mask and one atomic add — no per-request allocation on the hot path.
const (
	latSubBits  = 3
	latSubCount = 1 << latSubBits
	// 64 octaves of latSubCount sub-buckets covers every uint64 nanosecond
	// duration; in practice only the µs..minutes rows are ever touched.
	latBuckets = 64 * latSubCount
)

// LatencyRecorder is a concurrency-safe streaming histogram of request
// sojourn times (arrival→completion). The TCP front end records every
// client response into one; experiments read p50/p95/p99 from it.
type LatencyRecorder struct {
	counts [latBuckets]atomic.Uint64
	total  atomic.Uint64
	sumNs  atomic.Uint64
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder { return &LatencyRecorder{} }

// latBucket maps a nanosecond duration to its bucket index.
func latBucket(ns uint64) int {
	if ns < latSubCount {
		return int(ns)
	}
	top := bits.Len64(ns) - 1
	shift := top - latSubBits
	sub := int((ns >> shift) & (latSubCount - 1))
	return (top-latSubBits+1)*latSubCount + sub
}

// latBucketLow returns the smallest nanosecond value mapping to bucket i.
func latBucketLow(i int) uint64 {
	if i < latSubCount {
		return uint64(i)
	}
	block := i >> latSubBits
	sub := uint64(i & (latSubCount - 1))
	return (latSubCount + sub) << (block - 1)
}

// Record adds one observed sojourn time. Safe for concurrent use; never
// allocates.
func (l *LatencyRecorder) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	ns := uint64(d)
	l.counts[latBucket(ns)].Add(1)
	l.total.Add(1)
	l.sumNs.Add(ns)
}

// Count returns the number of recorded observations.
func (l *LatencyRecorder) Count() int { return int(l.total.Load()) }

// Mean returns the mean recorded sojourn time (0 when empty).
func (l *LatencyRecorder) Mean() time.Duration {
	n := l.total.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(l.sumNs.Load() / n)
}

// Quantile returns the q-th quantile (0 < q <= 1) of the recorded times,
// resolved to the midpoint of the bucket the quantile falls in. Zero when
// nothing has been recorded. Concurrent Records move it monotonically, never
// corrupt it.
func (l *LatencyRecorder) Quantile(q float64) time.Duration {
	n := l.total.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen uint64
	for i := 0; i < latBuckets; i++ {
		c := l.counts[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		if seen > rank {
			lo := latBucketLow(i)
			hi := latBucketLow(i + 1)
			return time.Duration(lo + (hi-lo)/2)
		}
	}
	return 0
}

// Percentiles returns the p50, p95 and p99 sojourn times.
func (l *LatencyRecorder) Percentiles() (p50, p95, p99 time.Duration) {
	return l.Quantile(0.50), l.Quantile(0.95), l.Quantile(0.99)
}

// Reset clears the histogram. It is not atomic with respect to concurrent
// Records (a racing observation may land in either epoch); phase-windowed
// experiments quiesce traffic before resetting.
func (l *LatencyRecorder) Reset() {
	for i := range l.counts {
		l.counts[i].Store(0)
	}
	l.total.Store(0)
	l.sumNs.Store(0)
}

// String renders the percentiles for logs.
func (l *LatencyRecorder) String() string {
	p50, p95, p99 := l.Percentiles()
	return fmt.Sprintf("n=%d p50=%v p95=%v p99=%v", l.Count(), p50, p95, p99)
}
