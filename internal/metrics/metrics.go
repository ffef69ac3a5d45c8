// Package metrics provides the small measurement helpers used by the
// evaluation harnesses and the daemons: throughput, its series over time and
// overhead computed from completion times (Figures 4 and 5, the VSEF-overhead
// experiment), federation counters and latency histograms.
package metrics

// Sample is one (time, value) point of a series.
type Sample struct {
	TimeMs uint64
	Value  float64
}

// Series is an ordered list of samples.
type Series []Sample

// Throughput returns completed requests per second over a run whose
// completions happened at the given virtual times, in order (0 when empty).
func Throughput(times []uint64) float64 {
	if len(times) == 0 || times[len(times)-1] == 0 {
		return 0
	}
	return float64(len(times)) / (float64(times[len(times)-1]) / 1000.0)
}

// ThroughputSeries buckets completion times, in order, into bucketMs-wide
// intervals and returns requests/second per bucket — the shape of Figure 5.
func ThroughputSeries(times []uint64, bucketMs uint64) Series {
	if bucketMs == 0 || len(times) == 0 {
		return nil
	}
	counts := make([]uint64, times[len(times)-1]/bucketMs+1)
	for _, t := range times {
		counts[t/bucketMs]++
	}
	out := make(Series, len(counts))
	for i, n := range counts {
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
