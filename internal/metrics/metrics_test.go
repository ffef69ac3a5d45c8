package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestThroughput(t *testing.T) {
	if Throughput(nil) != 0 {
		t.Error("no completions should give zero throughput")
	}
	// 5 requests over 1 second.
	if got := Throughput([]uint64{100, 200, 300, 400, 1000}); math.Abs(got-5.0) > 0.01 {
		t.Errorf("throughput = %f", got)
	}
}

func TestThroughputSeries(t *testing.T) {
	var times []uint64
	for i := 0; i < 10; i++ {
		times = append(times, uint64(i*100)) // one per 100ms over 900ms
	}
	s := ThroughputSeries(times, 500)
	if len(s) != 2 {
		t.Fatalf("series length = %d", len(s))
	}
	if s[0].Value != 10 || s[1].Value != 10 { // 5 per 0.5s = 10/s
		t.Errorf("series = %+v", s)
	}
	if ThroughputSeries(times, 0) != nil {
		t.Error("zero bucket should yield nil")
	}
}

func TestOverhead(t *testing.T) {
	if got := Overhead(100, 99); math.Abs(got-0.01) > 1e-9 {
		t.Errorf("overhead = %f", got)
	}
	if got := Overhead(0, 50); got != 0 {
		t.Errorf("overhead with zero baseline = %f", got)
	}
	if got := Overhead(100, 110); got >= 0 {
		t.Errorf("faster measurement should give negative overhead, got %f", got)
	}
}

// TestQuickThroughputSeriesConservation: the series buckets account for every
// completion exactly once.
func TestQuickThroughputSeriesConservation(t *testing.T) {
	prop := func(raw []uint16, bucket uint8) bool {
		if len(raw) == 0 {
			return true
		}
		bucketMs := uint64(bucket)%500 + 1
		// Completion times are in order.
		times := make([]uint64, len(raw))
		cur := uint64(0)
		for i, d := range raw {
			cur += uint64(d) % 50
			times[i] = cur
		}
		total := 0.0
		for _, p := range ThroughputSeries(times, bucketMs) {
			total += p.Value * float64(bucketMs) / 1000.0
		}
		return math.Abs(total-float64(len(raw))) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
