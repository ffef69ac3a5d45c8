package experiments

import "testing"

// TestRunFleetOverheadSweep runs the live-fleet interval sweep on one image
// at test scale: two concurrent guests, generator-driven, overhead
// monotonically non-increasing as the interval grows.
func TestRunFleetOverheadSweep(t *testing.T) {
	wl := QuickFleetWorkload()
	wl.RequestsPerGuest = 120
	sweep, err := RunFleetOverheadSweep([]string{"cvs"}, wl, []uint64{20, 200})
	if err != nil {
		t.Fatal(err)
	}
	app := sweep[0]
	if app.BaselinePerGuest <= 0 {
		t.Fatalf("no baseline throughput: %+v", app)
	}
	for _, pt := range app.Points {
		t.Logf("cvs @%dms: offered %.1f completed %.1f overhead %.4f (captured %d of %d bytes)",
			pt.IntervalMs, pt.OfferedPerGuest, pt.ThroughputPerGuest, pt.Overhead, pt.CapturedBytes, pt.FullScanBytes)
		if pt.ThroughputPerGuest <= 0 || pt.OfferedPerGuest <= 0 {
			t.Errorf("@%dms: empty rates: %+v", pt.IntervalMs, pt)
		}
		if pt.CapturedBytes <= 0 || pt.CapturedBytes >= pt.FullScanBytes {
			t.Errorf("@%dms: captured bytes %d not below full-scan bytes %d", pt.IntervalMs, pt.CapturedBytes, pt.FullScanBytes)
		}
	}
	if first, last := app.Points[0].Overhead, app.Points[len(app.Points)-1].Overhead; first < last-1e-9 {
		t.Errorf("overhead at %dms (%v) below overhead at %dms (%v): not monotone",
			app.Points[0].IntervalMs, first, app.Points[len(app.Points)-1].IntervalMs, last)
	}

	// With attack injections the sweep still completes and reports defence
	// activity (Figure 5 mode).
	wl.AttackEvery = 50
	wl.TargetReqPerSec = 150
	sweep, err = RunFleetOverheadSweep([]string{"cvs"}, wl, []uint64{200})
	if err != nil {
		t.Fatal(err)
	}
	pt := sweep[0].Points[0]
	if pt.AttacksHandled == 0 || pt.AntibodiesGenerated == 0 {
		t.Errorf("attack injections triggered no defence: %+v", pt)
	}
	if pt.ThroughputPerGuest <= 0 {
		t.Errorf("no throughput under attack injections: %+v", pt)
	}
}
