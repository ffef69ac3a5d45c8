// Package metrics provides the small measurement helpers used by the
// evaluation harnesses: time-series of request completions (for the Figure 5
// throughput-over-time plot) and throughput/overhead computations (Figure 4
// and the VSEF-overhead experiment).
package metrics

import "encoding/binary"

// Sample is one (time, value) point of a series.
type Sample struct {
	TimeMs uint64
	Value  float64
}

// Series is an ordered list of samples.
type Series []Sample

// CompletionRecorder records the virtual completion time of every request and
// converts them into a throughput-over-time series. Times must not decrease.
//
// It holds a fixed amount of memory however long the run. The times are kept
// as runs — so many completions in one quantum of time — each a pair of
// varints: the quanta since the run before, and the count. A quantum is one
// millisecond until the runs fill maxRunBytes (some 16 000 distinct
// milliseconds, more than any experiment records), and doubles each time they
// do. Count, Last and Throughput are exact whatever the quantum; the series is
// exact at a quantum of one, and beyond it puts a completion at most
// Resolution() ms early.
type CompletionRecorder struct {
	runs  []byte
	shift uint // a quantum is 1<<shift milliseconds
	// The open run, not yet in runs: openN completions in quantum number
	// openAt. closedAt is the quantum number of the last run in runs.
	openAt, openN uint64
	closedAt      uint64
	count         int
	last          uint64
}

// maxRunBytes bounds CompletionRecorder.runs.
const maxRunBytes = 32 << 10

// NewCompletionRecorder returns an empty recorder.
func NewCompletionRecorder() *CompletionRecorder { return &CompletionRecorder{} }

// Record notes that a request completed at the given virtual time.
func (c *CompletionRecorder) Record(timeMs uint64) {
	c.count++
	c.last = max(c.last, timeMs)
	at := timeMs >> c.shift
	if c.openN > 0 {
		if at <= c.openAt {
			c.openN++
			return
		}
		c.runs = appendRun(c.runs, c.openAt-c.closedAt, c.openN)
		c.closedAt = c.openAt
		if len(c.runs) > maxRunBytes {
			c.coarsen()
			at = timeMs >> c.shift
		}
	}
	c.openAt, c.openN = at, 1
}

func appendRun(runs []byte, quanta, n uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(runs, quanta), n)
}

// eachRun calls fn with the quantum number and count of every closed run.
func (c *CompletionRecorder) eachRun(fn func(at, n uint64)) {
	at := uint64(0)
	for runs := c.runs; len(runs) > 0; {
		quanta, i := binary.Uvarint(runs)
		n, j := binary.Uvarint(runs[i:])
		runs = runs[i+j:]
		at += quanta
		fn(at, n)
	}
}

// coarsen doubles the quantum and rewrites the runs in it; runs that now
// share a quantum merge.
func (c *CompletionRecorder) coarsen() {
	c.shift++
	out := make([]byte, 0, len(c.runs))
	var prev, at, n uint64
	c.eachRun(func(runAt, runN uint64) {
		if runAt /= 2; n > 0 && runAt != at {
			out = appendRun(out, at-prev, n)
			prev, n = at, 0
		}
		at, n = runAt, n+runN
	})
	c.runs = appendRun(out, at-prev, n)
	c.closedAt = at
}

// Count returns the number of recorded completions.
func (c *CompletionRecorder) Count() int { return c.count }

// Last returns the last recorded completion time (0 when empty).
func (c *CompletionRecorder) Last() uint64 { return c.last }

// Resolution returns the time resolution of ThroughputSeries, in
// milliseconds: 1 unless the run outgrew the recorder's memory.
func (c *CompletionRecorder) Resolution() uint64 { return 1 << c.shift }

// Throughput returns completed requests per second over the whole run.
func (c *CompletionRecorder) Throughput() float64 {
	if c.last == 0 {
		return 0
	}
	return float64(c.count) / (float64(c.last) / 1000.0)
}

// ThroughputSeries buckets completions into bucketMs-wide intervals and
// returns requests/second per bucket — the shape of Figure 5.
func (c *CompletionRecorder) ThroughputSeries(bucketMs uint64) Series {
	if bucketMs == 0 || c.count == 0 {
		return nil
	}
	buckets := make([]uint64, c.last/bucketMs+1)
	c.eachRun(func(at, n uint64) { buckets[at<<c.shift/bucketMs] += n })
	buckets[c.openAt<<c.shift/bucketMs] += c.openN
	out := make(Series, len(buckets))
	for i, n := range buckets {
		out[i] = Sample{
			TimeMs: uint64(i) * bucketMs,
			Value:  float64(n) / (float64(bucketMs) / 1000.0),
		}
	}
	return out
}

// Overhead returns the fractional slowdown of measured relative to baseline
// (e.g. 0.0093 for a 0.93% throughput drop), negative when measured was
// faster. A baseline of zero yields zero.
func Overhead(baselineThroughput, measuredThroughput float64) float64 {
	if baselineThroughput <= 0 {
		return 0
	}
	return (baselineThroughput - measuredThroughput) / baselineThroughput
}
