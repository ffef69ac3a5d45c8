package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func writeRecord(t *testing.T, dir, name string, metrics map[string]float64) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(benchJSON{Schema: "sweeper-bench/1", Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCompare(t *testing.T, oldM, newM map[string]float64) int {
	t.Helper()
	dir := t.TempDir()
	oldPath := writeRecord(t, dir, "old.json", oldM)
	newPath := writeRecord(t, dir, "new.json", newM)
	n, err := compareBench(oldPath, newPath)
	if err != nil {
		t.Fatalf("compareBench: %v", err)
	}
	return n
}

// TestCompareMissingMetrics pins the one-sided-metric contract: the schema
// may grow (a metric present only in the new record never flags) but may not
// shrink (a metric present in the old record and missing from the new one is
// a deleted benchmark, and deleting a benchmark must fail the gate — not
// silently pass).
func TestCompareMissingMetrics(t *testing.T) {
	base := map[string]float64{"shared_overhead_pct": 1.0}

	newOnly := map[string]float64{
		"shared_overhead_pct":    1.0,
		"brand_new_overhead_pct": 5000, // huge, but new: must not flag
		"brand_new_reduction_x":  6.0,
	}
	if n := runCompare(t, base, newOnly); n != 0 {
		t.Errorf("got %d regressions, want 0: new-only metrics must never flag", n)
	}

	oldOnly := map[string]float64{
		"shared_overhead_pct": 1.0,
		"retired_pages_count": 100, // informational, and still may not vanish
	}
	if n := runCompare(t, oldOnly, base); n != 1 {
		t.Errorf("got %d regressions, want 1: a metric deleted from the new record must fail the gate", n)
	}
}

// TestCompareZeroBaseline pins the zero-baseline guard: a metric whose old
// value is zero cannot regress, whatever the new value is — relative
// comparison against zero is meaningless.
func TestCompareZeroBaseline(t *testing.T) {
	oldM := map[string]float64{
		"warm_overhead_pct":   0,
		"gap_virtual_ms":      0,
		"capture_reduction_x": 0,
	}
	newM := map[string]float64{
		"warm_overhead_pct":   50, // would be a massive regression vs any positive baseline
		"gap_virtual_ms":      1e9,
		"capture_reduction_x": 0.0001, // lower-is-worse for reductions, but baseline is 0
	}
	if n := runCompare(t, oldM, newM); n != 0 {
		t.Errorf("got %d regressions, want 0: zero baselines must never flag", n)
	}
}

// TestCompareFlagsRealRegressions checks that genuine worsening beyond both
// the relative tolerance and the absolute floor is flagged, in both
// directions (lower-better overheads and gaps, higher-better reductions).
func TestCompareFlagsRealRegressions(t *testing.T) {
	oldM := map[string]float64{
		"recovery_gap_virtual_ms": 100, // lower better: 100 -> 900 is beyond 20% and the 10 ms floor
		"capture_reduction_x":     8,   // higher better: 8 -> 1 is beyond 50% and the 0.5 floor
		"steady_overhead_pct":     2.0, // 2.0 -> 4.0 is beyond 20% and the 0.5-point floor
	}
	newM := map[string]float64{
		"recovery_gap_virtual_ms": 900,
		"capture_reduction_x":     1,
		"steady_overhead_pct":     4.0,
	}
	if n := runCompare(t, oldM, newM); n != 3 {
		t.Errorf("got %d regressions, want 3", n)
	}
}

// TestCompareTolerancesAndFloors checks the non-flagging side: worsening
// inside the relative tolerance, or beyond it but under the absolute floor,
// stays green — as do informational counts, and names that say nothing but a
// host-clock unit: a record holds no such metric, so "_ns"/"_ms" is no class.
func TestCompareTolerancesAndFloors(t *testing.T) {
	oldM := map[string]float64{
		"recovery_gap_virtual_ms": 100,
		"steady_overhead_pct":     0.05,
		"snapshot_mapped_pages":   10, // informational
		"dispatch_ns":             100,
		"converge_ms":             100,
	}
	newM := map[string]float64{
		"recovery_gap_virtual_ms": 115,  // 15% worse: inside the 20% tolerance
		"steady_overhead_pct":     0.09, // 80% worse but under the 0.5-point floor
		"snapshot_mapped_pages":   1e6,  // counts are reported, never flagged
		"dispatch_ns":             1e6,
		"converge_ms":             1e6,
	}
	if n := runCompare(t, oldM, newM); n != 0 {
		t.Errorf("got %d regressions, want 0", n)
	}
}

// TestCompareLoadErrors pins error handling for unreadable or schema-less
// records.
func TestCompareLoadErrors(t *testing.T) {
	dir := t.TempDir()
	good := writeRecord(t, dir, "good.json", map[string]float64{"x_count": 1})
	if _, err := compareBench(filepath.Join(dir, "absent.json"), good); err == nil {
		t.Error("missing old record: want error")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"sweeper-bench/1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := compareBench(good, bad); err == nil {
		t.Error("record without metrics map: want error")
	}
}
