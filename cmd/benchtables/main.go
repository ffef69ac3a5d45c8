// Command benchtables regenerates every table and figure of the paper's
// evaluation from the reproduction: Tables 1-3, Figures 4-8, the VSEF
// overhead experiment and the ablations (README.md, "Performance").
//
// Usage:
//
//	benchtables -all            # everything (quick sizes)
//	benchtables -table 2        # a single table
//	benchtables -figure 6       # a single figure
//	benchtables -overhead       # monitoring overhead comparison
//	benchtables -ablation       # ablation studies
//	benchtables -paper -all     # larger, paper-scale workloads
//	benchtables -json BENCH_ci.json  # machine-readable virtual-clock record
//	benchtables -compare BENCH_25.json BENCH_ci.json  # diff two records, exit 1 on regression
//
// Nothing here reads the host clock into a record: every wall-clock number is
// bench/'s (bash bench/run.sh). Table 3 prints the times one run measured,
// as the paper's table does; they are not recorded or gated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"sweeper/internal/experiments"
	"sweeper/internal/vm"
)

// benchJSON is the machine-readable record written by -json: one flat map
// of virtual-clock quantities and counts per run, none derived from the host
// clock. One record is committed (the one CI's regression gate compares
// against) and CI archives one per run; earlier records live in git history.
type benchJSON struct {
	Schema     string             `json:"schema"`
	PaperScale bool               `json:"paper_scale"`
	Metrics    map[string]float64 `json:"metrics"`
}

// writeBenchJSON runs the quick suite — checkpoint capture volume, the
// Figure 4 interval sweeps, the Figure 5 recovery comparison, the monitoring
// overheads, the live epidemic grid and the crash-recovery counts — and writes
// the results as one flat JSON metric map.
func writeBenchJSON(path string, sizes experiments.Sizes, paperScale bool) error {
	metrics := make(map[string]float64)

	vol, err := experiments.MeasureCaptureVolume()
	if err != nil {
		return err
	}
	metrics["snapshot_mapped_pages"] = float64(vol.MappedPages)
	metrics["snapshot_steady_dirty_pages"] = float64(vol.SteadyDirtyPages)
	metrics["snapshot_steady_captured_bytes"] = float64(vol.SteadyCapturedBytes)
	metrics["subpage_scattered_reduction_x"] = vol.ScatteredReductionX
	metrics["subpage_sequential_reduction_x"] = vol.SequentialReductionX
	metrics["subpage_alternating_reduction_x"] = vol.AlternatingReductionX

	for _, app := range []string{"apache1", "apache2", "cvs", "squid"} {
		points, err := experiments.Figure4ForApp(app, []uint64{20, 100, 200}, sizes.Figure4Requests)
		if err != nil {
			return err
		}
		for _, pt := range points {
			metrics[fmt.Sprintf("figure4_%s_overhead_pct_%dms", app, pt.IntervalMs)] = pt.Overhead * 100
		}
	}

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

	pruned, forced, err := experiments.SliceFallbackComparison()
	if err != nil {
		return err
	}
	if pruned.Nodes > 0 {
		metrics["slice_fallback_reduction_x"] = float64(forced.Nodes) / float64(pruned.Nodes)
	}

	// The live epidemic grid (Figures 6-8 measured on real 100-host
	// in-process communities) and the shared base-image economy that makes
	// those communities affordable. The infection outcomes are the seeded
	// epidemic.SimulateAgents worm over virtual ticks, so they are
	// deterministic per record.
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
	metrics["epidemic_t0_ticks"] = base.T0
	metrics["epidemic_antibodies_count"] = float64(base.AntibodiesTotal)
	metrics["epidemic_adoptions_count"] = float64(base.Adopted)
	metrics["epidemic_shared_page_fraction"] = base.SharedPageFraction

	// Crash-recovery fault injection: a 100-daemon durable community, a
	// seeded 20% hard-stopped mid-epidemic and restarted from disk. Retention
	// and the warm-restart counts are deterministic.
	crashRoot, err := os.MkdirTemp("", "sweeper-crash-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(crashRoot)
	cr, err := experiments.RunCrashRecovery(experiments.CrashRecoveryConfig{Root: crashRoot, Seed: 7})
	if err != nil {
		return err
	}
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

	out := benchJSON{Schema: "sweeper-bench/1", PaperScale: paperScale, Metrics: metrics}
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
		jsonPath = flag.String("json", "", "run the quick suite and write the virtual-clock record (BENCH_<n>.json) to this file")
		compare  = flag.Bool("compare", false, "compare two BENCH_<n>.json records (old new); exit 1 when a metric regressed beyond its tolerance")
	)
	flag.Parse()

	if *compare {
		paths := flag.Args()
		if len(paths) != 2 {
			log.Fatalf("benchtables: -compare needs exactly two files (old new), got %d", len(paths))
		}
		regressions, err := compareBench(paths[0], paths[1])
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
