// Command benchtables regenerates every table and figure of the paper's
// evaluation from the reproduction: Tables 1-3, Figures 4-8, the VSEF
// overhead experiment and the ablations described in DESIGN.md.
//
// Usage:
//
//	benchtables -all            # everything (quick sizes)
//	benchtables -table 2        # a single table
//	benchtables -figure 6       # a single figure
//	benchtables -overhead       # monitoring overhead comparison
//	benchtables -ablation       # ablation studies
//	benchtables -paper -all     # larger, paper-scale workloads
//	benchtables -json BENCH_ci.json  # machine-readable perf record
//	benchtables -compare BENCH_16.json BENCH_ci.json  # diff two records, exit 1 on regression
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"sweeper/internal/experiments"
	"sweeper/internal/vm"
)

// benchJSON is the machine-readable benchmark record written by -json: one
// flat metric map per run. One record is committed (the one CI's regression
// gate compares against) and CI archives one per run; earlier records live in
// git history.
type benchJSON struct {
	Schema      string             `json:"schema"`
	GeneratedAt string             `json:"generated_at"`
	PaperScale  bool               `json:"paper_scale"`
	Metrics     map[string]float64 `json:"metrics"`
}

// writeBenchJSON runs the quick perf suite — the hot-path micro-benchmarks,
// the Figure 4 interval sweep, one full Squid defence and the Figure 5
// recovery comparison — and writes the results as one flat JSON metric map.
func writeBenchJSON(path string, sizes experiments.Sizes, paperScale bool) error {
	metrics := make(map[string]float64)

	micro, err := experiments.RunHotPathMicro()
	if err != nil {
		return err
	}
	metrics["snapshot_full_scan_ns"] = micro.FullSnapshotNs
	metrics["snapshot_steady_ns"] = micro.SteadySnapshotNs
	metrics["snapshot_steady_speedup_x"] = micro.SnapshotSpeedup
	metrics["snapshot_mapped_pages"] = float64(micro.MappedPages)
	metrics["snapshot_steady_dirty_pages"] = float64(micro.SteadyDirtyPages)
	metrics["bulk_read_ns_per_byte"] = micro.BulkReadNsPerByte
	metrics["bytewise_read_ns_per_byte"] = micro.ByteReadNsPerByte
	metrics["bulk_write_ns_per_byte"] = micro.BulkWriteNsPerByte
	metrics["bytewise_write_ns_per_byte"] = micro.ByteWriteNsPerByte
	metrics["bulk_io_speedup_x"] = micro.BulkIOSpeedup

	disp, err := experiments.RunDispatchMicro()
	if err != nil {
		return err
	}
	metrics["vm_untooled_step_ns"] = disp.UntooledStepNs
	metrics["vm_tooled_step_ns"] = disp.TooledStepNs

	for _, app := range []string{"apache1", "apache2", "cvs", "squid"} {
		points, err := experiments.Figure4ForApp(app, []uint64{20, 100, 200}, sizes.Figure4Requests)
		if err != nil {
			return err
		}
		for _, pt := range points {
			metrics[fmt.Sprintf("figure4_%s_overhead_pct_%dms", app, pt.IntervalMs)] = pt.Overhead * 100
		}
	}

	run, err := experiments.RunDefense("squid", 8, 8, nil)
	if err != nil {
		return err
	}
	metrics["squid_time_to_first_vsef_ms"] = float64(run.Report.TimeToFirstVSEF.Nanoseconds()) / 1e6
	metrics["squid_time_to_final_antibody_ms"] = float64(run.Report.TimeToFinalAntibody.Nanoseconds()) / 1e6
	metrics["squid_total_analysis_ms"] = float64(run.Report.TotalAnalysisTime.Nanoseconds()) / 1e6
	metrics["squid_recovery_ms"] = float64(run.Report.RecoveryTime.Nanoseconds()) / 1e6

	res5, err := experiments.Figure5(sizes.Figure5Requests, sizes.Figure5AttackAt, sizes.Figure5BucketMs)
	if err != nil {
		return err
	}
	metrics["figure5_recovery_gap_virtual_ms"] = float64(res5.RecoveryGapMs)
	metrics["figure5_restart_gap_virtual_ms"] = float64(res5.RestartGapMs)

	rows, err := experiments.MonitoringOverhead(sizes.OverheadRequests)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if r.Key == "" {
			return fmt.Errorf("monitoring overhead row %q has no machine-readable key", r.Mode)
		}
		metrics["monitoring_overhead_pct_"+r.Key] = r.Overhead * 100
	}

	sub, err := experiments.RunSubPageMicro()
	if err != nil {
		return err
	}
	metrics["snapshot_steady_captured_bytes"] = float64(micro.SteadyCapturedBytes)
	metrics["subpage_scattered_reduction_x"] = sub.ScatteredReductionX
	metrics["subpage_sequential_reduction_x"] = sub.SequentialReductionX
	metrics["subpage_alternating_reduction_x"] = sub.AlternatingReductionX

	sweep, err := experiments.RunFleetOverheadSweep(
		[]string{"apache1", "apache2", "cvs", "squid"}, experiments.QuickFleetWorkload(), []uint64{20, 100, 200})
	if err != nil {
		return err
	}
	for _, app := range sweep {
		for _, pt := range app.Points {
			metrics[fmt.Sprintf("figure4_fleet_%s_overhead_pct_%dms", app.App, pt.IntervalMs)] = pt.Overhead * 100
		}
	}
	f5, err := experiments.RunFleetOverheadSweep([]string{"squid"}, experiments.Figure5FleetWorkload(), []uint64{200})
	if err != nil {
		return err
	}
	f5pt := f5[0].Points[0]
	metrics["figure5_fleet_offered_req_per_s"] = f5pt.OfferedPerGuest
	metrics["figure5_fleet_completed_req_per_s"] = f5pt.ThroughputPerGuest
	metrics["figure5_fleet_attacks_handled_count"] = float64(f5pt.AttacksHandled)

	pruned, forced, err := experiments.SliceFallbackComparison()
	if err != nil {
		return err
	}
	if pruned.Nodes > 0 {
		metrics["slice_fallback_reduction_x"] = float64(forced.Nodes) / float64(pruned.Nodes)
	}

	// Client-observed latency over real loopback sockets (the Figure 5 view
	// from outside the daemon): percentiles before, during and after an
	// absorbed worm attack, plus the recovery tail degradation ratio.
	cl, err := experiments.RunClientLatency("squid")
	if err != nil {
		return err
	}
	metrics["client_latency_before_p50_ms"] = cl.BeforeP50Ms
	metrics["client_latency_before_p95_ms"] = cl.BeforeP95Ms
	metrics["client_latency_before_p99_ms"] = cl.BeforeP99Ms
	metrics["client_latency_during_p99_ms"] = cl.DuringP99Ms
	metrics["client_latency_after_p50_ms"] = cl.AfterP50Ms
	metrics["client_latency_after_p95_ms"] = cl.AfterP95Ms
	metrics["client_latency_after_p99_ms"] = cl.AfterP99Ms
	metrics["client_latency_recovery_degradation_x"] = cl.RecoveryDegradationX
	metrics["client_latency_sojourn_p99_ms"] = cl.SojournP99Ms

	// The live epidemic grid (Figures 6-8 measured on real 100-host
	// in-process communities) and the shared base-image economy that makes
	// those communities affordable. The infection outcomes are driven by a
	// seeded PRNG over virtual ticks, so they are deterministic per record.
	eps, err := experiments.RunEpidemicSweep(experiments.DefaultEpidemicSweepConfig())
	if err != nil {
		return err
	}
	for _, p := range eps.Figure6 {
		key := fmt.Sprintf("epidemic_fig6_alpha%g", p.Config.Alpha*100)
		metrics[key+"_infected_pct"] = 100 * p.InfectionRatio
		metrics[key+"_model_infected_pct"] = 100 * p.ModelInfectionRatio
	}
	for _, p := range eps.Figure7 {
		key := fmt.Sprintf("epidemic_fig7_deploy%g", p.Config.Deploy*100)
		metrics[key+"_infected_pct"] = 100 * p.InfectionRatio
	}
	for _, p := range eps.Figure8 {
		key := fmt.Sprintf("epidemic_fig8_gamma%d", p.Config.GammaTicks)
		metrics[key+"_infected_pct"] = 100 * p.InfectionRatio
		metrics[key+"_model_infected_pct"] = 100 * p.ModelInfectionRatio
	}
	base := eps.Figure6[len(eps.Figure6)-1]
	metrics["epidemic_t0_ticks"] = float64(base.T0)
	metrics["epidemic_antibodies_count"] = float64(base.AntibodiesTotal)
	metrics["epidemic_adoptions_count"] = float64(base.Adopted)
	metrics["epidemic_shared_page_fraction"] = base.SharedPageFraction

	// Crash-recovery fault injection: a 100-daemon durable community, a
	// seeded 20% hard-stopped mid-epidemic and restarted from disk. Retention
	// and warm-restart counts are deterministic; the converge timings are
	// wall-clock.
	crashRoot, err := os.MkdirTemp("", "sweeper-crash-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(crashRoot)
	cr, err := experiments.RunCrashRecovery(experiments.CrashRecoveryConfig{Root: crashRoot, Seed: 7})
	if err != nil {
		return err
	}
	metrics["crash_baseline_converge_ms"] = cr.BaselineConvergeMs
	metrics["crash_reconverge_ms"] = cr.CrashReconvergeMs
	metrics["crash_warm_restart_ms"] = cr.WarmRestartMsMean
	metrics["crash_warm_restart_max_ms"] = cr.WarmRestartMsMax
	metrics["crash_antibodies_retained_pct"] = cr.AntibodiesRetainedPct
	metrics["crash_crashed_count"] = float64(cr.Crashed)
	metrics["crash_restarted_immune_count"] = float64(cr.RestartedImmune)
	metrics["crash_warm_restart_count"] = float64(cr.WarmRestarts)
	metrics["crash_cold_fallback_count"] = float64(cr.ColdFallbacks)

	bs := vm.DefaultBaseStore().Stats()
	metrics["base_store_distinct_pages"] = float64(bs.DistinctPages)
	metrics["base_store_installed_pages"] = float64(bs.InstalledPages)
	if bs.InstalledPages > 0 {
		metrics["base_store_shared_fraction"] = 1 - float64(bs.DistinctPages)/float64(bs.InstalledPages)
	}

	out := benchJSON{
		Schema:      "sweeper-bench/1",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		PaperScale:  paperScale,
		Metrics:     metrics,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	log.SetFlags(0)
	var (
		table    = flag.Int("table", 0, "regenerate table N (1-3)")
		figure   = flag.Int("figure", 0, "regenerate figure N (4-8)")
		overhead = flag.Bool("overhead", false, "monitoring overhead comparison (§5.3)")
		ablation = flag.Bool("ablation", false, "ablation studies")
		all      = flag.Bool("all", false, "regenerate everything")
		paper    = flag.Bool("paper", false, "use paper-scale workload sizes (slower)")
		jsonPath = flag.String("json", "", "run the quick perf suite and write machine-readable results (BENCH_<n>.json) to this file")
		compare  = flag.Bool("compare", false, "compare two BENCH_<n>.json records (old new); exit 1 when a metric regressed beyond its tolerance")
		detThr   = flag.Float64("threshold", 0.20, "with -compare: relative worsening tolerated for deterministic virtual-clock metrics")
		ratioThr = flag.Float64("ratio-threshold", 0.50, "with -compare: relative drop tolerated for speedup/reduction ratios")
		wallThr  = flag.Float64("wall-threshold", 4.0, "with -compare: relative worsening tolerated for wall-clock timings (records may come from different machines)")
	)
	flag.Parse()

	if *compare {
		paths := flag.Args()
		if len(paths) != 2 {
			log.Fatalf("benchtables: -compare needs exactly two files (old new), got %d", len(paths))
		}
		regressions, err := compareBench(paths[0], paths[1], Thresholds{
			Deterministic: *detThr, Ratio: *ratioThr, Wall: *wallThr,
		})
		if err != nil {
			log.Fatalf("benchtables: -compare: %v", err)
		}
		if regressions > 0 {
			os.Exit(1)
		}
		return
	}

	sizes := experiments.QuickSizes()
	if *paper {
		sizes = experiments.PaperSizes()
	}
	if *jsonPath != "" {
		if err := writeBenchJSON(*jsonPath, sizes, *paper); err != nil {
			log.Fatalf("benchtables: -json: %v", err)
		}
		fmt.Printf("benchtables: wrote %s\n", *jsonPath)
		if !*all && *table == 0 && *figure == 0 && !*overhead && !*ablation {
			return
		}
	}
	if !*all && *table == 0 && *figure == 0 && !*overhead && !*ablation && *jsonPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	run := func(cond bool, f func() error) {
		if !cond {
			return
		}
		if err := f(); err != nil {
			log.Fatalf("benchtables: %v", err)
		}
	}

	run(*all || *table == 1, func() error {
		fmt.Println(experiments.FormatTable1(experiments.Table1()))
		return nil
	})
	run(*all || *table == 2, func() error {
		rows, _, err := experiments.Table2([]string{"apache1", "apache2", "cvs", "squid"})
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable2(rows))
		return nil
	})
	run(*all || *table == 3, func() error {
		rows, err := experiments.Table3([]string{"apache1", "squid"})
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable3(rows))
		return nil
	})
	run(*all || *figure == 4, func() error {
		points, err := experiments.Figure4(nil, sizes.Figure4Requests)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFigure4(points))
		return nil
	})
	run(*all || *overhead, func() error {
		rows, err := experiments.MonitoringOverhead(sizes.OverheadRequests)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatOverhead(rows))
		return nil
	})
	run(*all || *figure == 5, func() error {
		res, err := experiments.Figure5(sizes.Figure5Requests, sizes.Figure5AttackAt, sizes.Figure5BucketMs)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFigure5(res))
		return nil
	})
	run(*all || *figure == 6, func() error {
		fmt.Println(experiments.FormatCommunityFigure(
			"Figure 6: Sweeper defense against Slammer (beta=0.1, N=100000)", experiments.Figure6()))
		return nil
	})
	run(*all || *figure == 7, func() error {
		fmt.Println(experiments.FormatCommunityFigure(
			"Figure 7: Sweeper with proactive protection against hit-list worm (beta=1000, rho=2^-12)", experiments.Figure7()))
		return nil
	})
	run(*all || *figure == 8, func() error {
		fmt.Println(experiments.FormatCommunityFigure(
			"Figure 8: Sweeper with proactive protection against hit-list worm (beta=4000, rho=2^-12)", experiments.Figure8()))
		return nil
	})
	run(*all || *ablation, func() error {
		fmt.Println(experiments.FormatProactiveAblation(experiments.ProactiveAblation(1000)))
		fmt.Println(experiments.FormatResponseTimeAblation(experiments.ResponseTimeAblation(1000, 14)))
		rows, err := experiments.AgentCrossCheck(sizes.AgentN, sizes.AgentRuns)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAgentCrossCheck(rows))
		unimpeded, contained := experiments.AbstractContainmentClaim()
		fmt.Printf("Abstract claim: unimpeded hit-list infection after 1 s = %.1f%%; with Sweeper (alpha=0.001, gamma=5s, rho=2^-12) = %.2f%%\n\n",
			unimpeded*100, contained*100)
		return nil
	})
}
