package bench

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"sweeper/internal/epidemic"
	"sweeper/internal/vm"
)

// benchOnce maps every benchmark in this package to a function executing one
// iteration of its body — the -benchtime=1x equivalent. TestBenchmarkSmoke
// runs each on every plain `go test`, so the paper-table benchmarks cannot
// silently rot, and TestBenchmarkRegistryComplete fails the moment a new
// Benchmark function is added without a registry entry.
var benchOnce = map[string]func(tb testing.TB){
	"BenchmarkTable1BuildApplications": table1Once,
	"BenchmarkTable2DefenseApache1":    func(tb testing.TB) { defenseOnce(tb, "apache1") },
	"BenchmarkTable2DefenseApache2":    func(tb testing.TB) { defenseOnce(tb, "apache2") },
	"BenchmarkTable2DefenseCVS":        func(tb testing.TB) { defenseOnce(tb, "cvs") },
	"BenchmarkTable2DefenseSquid":      func(tb testing.TB) { defenseOnce(tb, "squid") },
	"BenchmarkTable3AnalysisApache1":   func(tb testing.TB) { analysisTimesOnce(tb, "apache1") },
	"BenchmarkTable3AnalysisSquid":     func(tb testing.TB) { analysisTimesOnce(tb, "squid") },
	"BenchmarkTable3ParallelVsSequential": func(tb testing.TB) {
		seq, par := engineComparisonOnce(tb)
		if seq.antibodySec <= 0 || par.antibodySec <= 0 || seq.totalSec <= 0 || par.totalSec <= 0 {
			tb.Fatalf("implausible analysis times: sequential %+v, parallel %+v", seq, par)
		}
	},
	"BenchmarkTable3PooledVsFreshClone": func(tb testing.TB) {
		freshNs, pooledNs := pooledVsFreshOnce(tb)
		if freshNs <= 0 || pooledNs <= 0 {
			tb.Fatalf("implausible clone setup times: fresh %v ns, pooled %v ns", freshNs, pooledNs)
		}
	},
	"BenchmarkFigure4CheckpointInterval20ms":  func(tb testing.TB) { figure4Once(tb, 20) },
	"BenchmarkFigure4CheckpointInterval50ms":  func(tb testing.TB) { figure4Once(tb, 50) },
	"BenchmarkFigure4CheckpointInterval100ms": func(tb testing.TB) { figure4Once(tb, 100) },
	"BenchmarkFigure4CheckpointInterval200ms": func(tb testing.TB) { figure4Once(tb, 200) },
	"BenchmarkFigure4CheckpointIntervalSweep": func(tb testing.TB) {
		sweep := figure4SweepOnce(tb)
		for _, app := range figure4SweepApps {
			points := sweep[app]
			if len(points) != len(figure4SweepIntervals) {
				tb.Fatalf("%s: sweep returned %d points, want %d", app, len(points), len(figure4SweepIntervals))
			}
			// Overheads are deterministic virtual-clock quantities: never
			// negative beyond rounding, and no cheaper at the most frequent
			// checkpointing than at the paper's default interval.
			for _, pt := range points {
				if pt.Overhead < -1e-9 || pt.Overhead > 1 {
					tb.Errorf("%s @%dms: implausible overhead %v", app, pt.IntervalMs, pt.Overhead)
				}
			}
			if first, last := points[0].Overhead, points[len(points)-1].Overhead; first < last-1e-9 {
				tb.Errorf("%s: overhead at %dms (%v) below overhead at %dms (%v)",
					app, points[0].IntervalMs, first, points[len(points)-1].IntervalMs, last)
			}
		}
	},
	"BenchmarkSliceFallbackPrune": func(tb testing.TB) {
		pruned, forced := sliceFallbackOnce(tb)
		if !pruned.ControlPruned || forced.ControlPruned {
			tb.Fatalf("prune flags wrong: pruned=%+v forced=%+v", pruned, forced)
		}
		if !pruned.Consistent {
			tb.Errorf("data-only fallback slice inconsistent: missing %v", pruned.Missing)
		}
		if pruned.Nodes <= 0 || forced.Nodes <= 0 {
			tb.Fatalf("implausible slice sizes: pruned %d, forced %d", pruned.Nodes, forced.Nodes)
		}
		// The point of the prune: the fallback explores a fraction of what
		// the control-dep slice walks on squid.
		if pruned.Nodes*2 > forced.Nodes {
			tb.Errorf("fallback slice with prune explores %d nodes, control-dep slice %d; expected at least a 2x cut",
				pruned.Nodes, forced.Nodes)
		}
	},
	"BenchmarkSlicingRecord": func(tb testing.TB) {
		p, snap, culprit := squidAtDetection(tb)
		restricted := slicingRecordOnce(tb, p, snap, culprit, true)
		full := slicingRecordOnce(tb, p, snap, culprit, false)
		if restricted >= full {
			tb.Errorf("the exploit's request alone recorded %d nodes, the whole window %d", restricted, full)
		}
	},
	"BenchmarkFigure4FleetSweep": func(tb testing.TB) {
		sweep := figure4FleetSweepOnce(tb)
		if len(sweep) != len(fleetSweepApps) {
			tb.Fatalf("fleet sweep covered %d apps, want %d", len(sweep), len(fleetSweepApps))
		}
		for _, app := range sweep {
			if app.Guests < 2 {
				tb.Fatalf("%s: fleet sweep ran %d guests, want >= 2 concurrent live guests", app.App, app.Guests)
			}
			if len(app.Points) != len(figure4SweepIntervals) {
				tb.Fatalf("%s: sweep returned %d points, want %d", app.App, len(app.Points), len(figure4SweepIntervals))
			}
			for _, pt := range app.Points {
				if pt.ThroughputPerGuest <= 0 || pt.OfferedPerGuest <= 0 {
					tb.Errorf("%s @%dms: empty generator rates: %+v", app.App, pt.IntervalMs, pt)
				}
				if pt.Overhead < -1e-9 || pt.Overhead > 1 {
					tb.Errorf("%s @%dms: implausible overhead %v", app.App, pt.IntervalMs, pt.Overhead)
				}
				if pt.CapturedBytes <= 0 || pt.CapturedBytes >= pt.FullScanBytes {
					tb.Errorf("%s @%dms: captured %d bytes not below full-scan %d", app.App, pt.IntervalMs, pt.CapturedBytes, pt.FullScanBytes)
				}
			}
			// Overhead-vs-interval must come out monotone (non-increasing)
			// against the live fleet, like the single-guest Figure 4 sweep.
			if first, last := app.Points[0].Overhead, app.Points[len(app.Points)-1].Overhead; first < last-1e-9 {
				tb.Errorf("%s: fleet overhead at %dms (%v) below overhead at %dms (%v)",
					app.App, app.Points[0].IntervalMs, first, app.Points[len(app.Points)-1].IntervalMs, last)
			}
		}
	},
	"BenchmarkFigure5FleetThroughput": func(tb testing.TB) {
		app := figure5FleetOnce(tb)
		pt := app.Points[0]
		if pt.AttacksHandled == 0 || pt.AntibodiesGenerated == 0 {
			tb.Errorf("worm injections triggered no defence: %+v", pt)
		}
		if pt.OfferedPerGuest <= 0 || pt.ThroughputPerGuest <= 0 {
			tb.Fatalf("empty fleet throughput: %+v", pt)
		}
		// The excised exploit injections and recovery gaps cost some completed
		// requests, but the fleet must stay close to the offered load.
		if pt.ThroughputPerGuest > pt.OfferedPerGuest*1.001 {
			tb.Errorf("completed rate %.1f above offered rate %.1f", pt.ThroughputPerGuest, pt.OfferedPerGuest)
		}
		if pt.ThroughputPerGuest < pt.OfferedPerGuest*0.8 {
			tb.Errorf("completed rate %.1f collapsed below 80%% of offered %.1f", pt.ThroughputPerGuest, pt.OfferedPerGuest)
		}
	},
	"BenchmarkSnapshotSubPageVsPage": func(tb testing.TB) {
		r := captureVolumeOnce(tb)
		// The headline acceptance bar of the sub-page work: at least 2x fewer
		// captured bytes on the scattered-small-write workload (measured:
		// 512x), and no regression for sequential full-page writers.
		if r.ScatteredReductionX < 2 {
			tb.Errorf("scattered-write capture reduction %.2fx, want >= 2x", r.ScatteredReductionX)
		}
		if r.SequentialReductionX < 0.99 {
			tb.Errorf("sequential-write capture regressed: %.3fx", r.SequentialReductionX)
		}
	},
	"BenchmarkSnapshotAlternatingWriter": func(tb testing.TB) {
		// The bugfix bar: header+trailer writers used to blow the single
		// watermark past the patch cutoff and freeze whole pages (reduction
		// ~1x). Run-list tracking must keep capture sub-page — the same
		// order as the scattered case (measured: 256x).
		if r := captureVolumeOnce(tb); r.AlternatingReductionX < 2 {
			tb.Errorf("alternating-end capture reduction %.2fx, want >= 2x — whole-page fallback", r.AlternatingReductionX)
		}
	},
	"BenchmarkSnapshotDirtyVsFullScan": func(tb testing.TB) {
		// "Steady-state checkpoints at least 5x cheaper than full scans on
		// the Squid image", gated on what the two designs copy, which repeats
		// exactly — a full scan copies every mapped page. What a capture
		// costs in time is bench/'s checkpoint.capture_*_us.
		const bar = 5
		r := captureVolumeOnce(tb)
		if r.SteadyDirtyPages <= 0 || r.SteadyDirtyPages*bar > r.MappedPages {
			tb.Errorf("steady checkpoint captured %d of %d pages; want a dirty delta at most 1/%d of the image",
				r.SteadyDirtyPages, r.MappedPages, bar)
		}
		if full := r.MappedPages * vm.PageSize; r.SteadyCapturedBytes <= 0 || r.SteadyCapturedBytes*bar > full {
			tb.Errorf("steady checkpoint copied %d bytes, a full scan %d; want at most 1/%d",
				r.SteadyCapturedBytes, full, bar)
		}
	},
	"BenchmarkVSEFOverhead": func(tb testing.TB) { vsefOverheadOnce(tb) },
	"BenchmarkVSEFWallClock": func(tb testing.TB) {
		for size, c := range vsefWallClockOnce(tb, 200, 5) {
			plain, probed := c[0], c[1]
			// The virtual clock is deterministic: probes only ever add cycles,
			// and at CyclesPerProbe per hit an antibody costs well under half.
			if probed.virtualCycles <= plain.virtualCycles || probed.virtualCycles > 1.5*plain.virtualCycles {
				tb.Errorf("%s: virtual cycles/request %.0f probed against %.0f plain", vsefSizes[size], probed.virtualCycles, plain.virtualCycles)
			}
		}
	},
	"BenchmarkFigure5Recovery": func(tb testing.TB) {
		recoveryGap, restartGap := figure5Once(tb)
		if recoveryGap >= restartGap {
			tb.Errorf("recovery gap %v ms not below restart gap %v ms", recoveryGap, restartGap)
		}
	},
	"BenchmarkFigure6EpidemicSlammer": func(tb testing.TB) {
		communityFigureOnce(0.1, 1.0, epidemic.Figure6Alphas(), 0.0001, 5)
	},
	"BenchmarkFigure7EpidemicHitlist1000": func(tb testing.TB) {
		communityFigureOnce(1000, epidemic.DefaultRho, epidemic.Figure78Alphas(), 0.0001, 10)
	},
	"BenchmarkFigure8EpidemicHitlist4000": func(tb testing.TB) {
		communityFigureOnce(4000, epidemic.DefaultRho, epidemic.Figure78Alphas(), 0.0001, 10)
	},
	"BenchmarkEpidemicLiveCommunity": func(tb testing.TB) { epidemicLiveOnce(tb) },
	"BenchmarkAblationProactiveProtection": func(tb testing.TB) {
		with, without := proactiveAblationOnce()
		if with >= without {
			tb.Errorf("proactive protection did not reduce infection: with %v, without %v", with, without)
		}
	},
	"BenchmarkAgentBasedCrossCheck": func(tb testing.TB) { agentCrossCheckOnce(tb, 1) },
}

// TestBenchmarkSmoke executes one iteration of every registered benchmark.
func TestBenchmarkSmoke(t *testing.T) {
	for name, fn := range benchOnce {
		t.Run(name, func(t *testing.T) { fn(t) })
	}
}

// TestBenchmarkRegistryComplete scans the package's test sources for
// Benchmark functions and fails if any is missing from benchOnce (or if the
// registry names a benchmark that no longer exists).
func TestBenchmarkRegistryComplete(t *testing.T) {
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	inSource := make(map[string]bool)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range re.FindAllStringSubmatch(string(data), -1) {
			inSource[m[1]] = true
		}
	}
	if len(inSource) == 0 {
		t.Fatal("no Benchmark functions found; scan is broken")
	}
	for name := range inSource {
		if _, ok := benchOnce[name]; !ok {
			t.Errorf("%s has no benchOnce registry entry; add one so the smoke test covers it", name)
		}
	}
	for name := range benchOnce {
		if !inSource[name] {
			t.Errorf("benchOnce entry %s does not match any Benchmark function", name)
		}
	}
}
