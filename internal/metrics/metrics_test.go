package metrics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestCompletionRecorder(t *testing.T) {
	r := NewCompletionRecorder()
	if r.Count() != 0 || r.Last() != 0 || r.Throughput() != 0 {
		t.Error("empty recorder should be all zeros")
	}
	for _, ts := range []uint64{100, 200, 300, 400, 1000} {
		r.Record(ts)
	}
	if r.Count() != 5 || r.Last() != 1000 {
		t.Errorf("count=%d last=%d", r.Count(), r.Last())
	}
	// 5 requests over 1 second.
	if got := r.Throughput(); math.Abs(got-5.0) > 0.01 {
		t.Errorf("throughput = %f", got)
	}
}

func TestThroughputSeries(t *testing.T) {
	r := NewCompletionRecorder()
	for i := 0; i < 10; i++ {
		r.Record(uint64(i * 100)) // one per 100ms over 900ms
	}
	s := r.ThroughputSeries(500)
	if len(s) != 2 {
		t.Fatalf("series length = %d", len(s))
	}
	if s[0].Value != 10 || s[1].Value != 10 { // 5 per 0.5s = 10/s
		t.Errorf("series = %+v", s)
	}
	if r.ThroughputSeries(0) != nil {
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
// recorded completion exactly once.
func TestQuickThroughputSeriesConservation(t *testing.T) {
	prop := func(raw []uint16, bucket uint8) bool {
		if len(raw) == 0 {
			return true
		}
		bucketMs := uint64(bucket)%500 + 1
		r := NewCompletionRecorder()
		// Completion times must be non-decreasing for the recorder.
		cur := uint64(0)
		for _, d := range raw {
			cur += uint64(d) % 50
			r.Record(cur)
		}
		total := 0.0
		for _, p := range r.ThroughputSeries(bucketMs) {
			total += p.Value * float64(bucketMs) / 1000.0
		}
		return math.Abs(total-float64(len(raw))) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// referenceSeries is ThroughputSeries over the plain list of completion
// times the recorder used to keep.
func referenceSeries(times []uint64, bucketMs uint64) []float64 {
	buckets := make([]float64, times[len(times)-1]/bucketMs+1)
	for _, t := range times {
		buckets[t/bucketMs] += 1000 / float64(bucketMs)
	}
	return buckets
}

// TestCompletionRecorderAgainstPlainList: while the run fits the recorder's
// memory the series is the one a list of every completion time gives, at any
// bucket width; past that the counts stay exact, the memory stops growing and
// a completion moves at most Resolution() ms early.
func TestCompletionRecorderAgainstPlainList(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := NewCompletionRecorder()
	var times []uint64
	record := func(n int) {
		for i := 0; i < n; i++ {
			now := uint64(0)
			if len(times) > 0 {
				now = times[len(times)-1]
			}
			switch rng.Intn(10) {
			case 0: // same millisecond as the one before
			case 1:
				now += uint64(rng.Intn(3000)) // a recovery gap
			default:
				now += uint64(1 + rng.Intn(6))
			}
			times = append(times, now)
			r.Record(now)
		}
	}
	record(10_000) // the largest experiment
	if r.Resolution() != 1 {
		t.Fatalf("resolution %d ms after %d completions, want 1", r.Resolution(), len(times))
	}
	for _, bucketMs := range []uint64{1, 7, 100, 500, 4096} {
		got, want := r.ThroughputSeries(bucketMs), referenceSeries(times, bucketMs)
		if len(got) != len(want) {
			t.Fatalf("bucket %d ms: %d samples, want %d", bucketMs, len(got), len(want))
		}
		for i := range got {
			if got[i].TimeMs != uint64(i)*bucketMs || math.Abs(got[i].Value-want[i]) > 1e-9 {
				t.Fatalf("bucket %d ms, sample %d: %+v, want %v/s", bucketMs, i, got[i], want[i])
			}
		}
	}

	record(400_000)
	last := times[len(times)-1]
	if r.Count() != len(times) || r.Last() != last {
		t.Errorf("count %d last %d, want %d and %d", r.Count(), r.Last(), len(times), last)
	}
	if want := float64(len(times)) / (float64(last) / 1000); math.Abs(r.Throughput()-want) > 1e-9 {
		t.Errorf("throughput %v, want %v", r.Throughput(), want)
	}
	if len(r.runs) > maxRunBytes+2*binary.MaxVarintLen64 {
		t.Errorf("%d bytes of runs held, bound %d", len(r.runs), maxRunBytes)
	}
	res := r.Resolution()
	if res < 2 {
		t.Fatalf("resolution still %d ms with %d completions in %d bytes", res, len(times), len(r.runs))
	}
	// At a bucket width the quantum divides, moving a completion to the start
	// of its quantum keeps it in its bucket: the series is still exact.
	bucketMs := 4 * res
	got, want := r.ThroughputSeries(bucketMs), referenceSeries(times, bucketMs)
	for i := range want {
		if math.Abs(got[i].Value-want[i]) > 1e-9 {
			t.Fatalf("resolution %d ms, bucket %d ms, sample %d: %v/s, want %v/s", res, bucketMs, i, got[i].Value, want[i])
		}
	}
}

func TestAnalysisRecorder(t *testing.T) {
	r := NewAnalysisRecorder()
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty recorder snapshot = %v", got)
	}
	r.Observe("taint", 30*time.Millisecond)
	r.Observe("membug", 10*time.Millisecond)
	r.Observe("membug", 20*time.Millisecond)
	got := r.Snapshot()
	if len(got) != 2 || got[0].Name != "membug" || got[1].Name != "taint" {
		t.Fatalf("snapshot not sorted by name: %v", got)
	}
	mb := got[0]
	if mb.Runs != 2 || mb.Total != 30*time.Millisecond || mb.Max != 20*time.Millisecond {
		t.Errorf("membug stats = %+v", mb)
	}
	if mb.Mean() != 15*time.Millisecond {
		t.Errorf("membug mean = %v, want 15ms", mb.Mean())
	}
	if (AnalyzerLatency{}).Mean() != 0 {
		t.Error("zero-run latency mean not 0")
	}
}
