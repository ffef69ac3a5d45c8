package experiments

import (
	"slices"
	"strings"
	"testing"

	"sweeper/internal/metrics"
)

func TestTable1Inventory(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("Table 1 has %d rows, want 4", len(rows))
	}
	wantCVE := map[string]string{
		"apache1": "CVE-2003-0542",
		"apache2": "CVE-2003-1054",
		"cvs":     "CVE-2003-0015",
		"squid":   "CVE-2002-0068",
	}
	for _, r := range rows {
		if wantCVE[r.Name] != r.CVE {
			t.Errorf("%s CVE = %s, want %s", r.Name, r.CVE, wantCVE[r.Name])
		}
		if r.BugType == "" || r.Threat == "" || r.Program == "" {
			t.Errorf("row %+v incomplete", r)
		}
	}
	if out := FormatTable1(rows); !strings.Contains(out, "CVE-2002-0068") {
		t.Error("FormatTable1 output incomplete")
	}
}

func TestTable2Functionality(t *testing.T) {
	rows, runs, err := Table2([]string{"apache2", "cvs"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(runs) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.MemoryState == "" || r.InputTaint == "" || r.Slicing == "" {
			t.Errorf("row %s incomplete: %+v", r.App, r)
		}
		if strings.Contains(r.Slicing, "INCONSISTENT") {
			t.Errorf("%s: slicing disagrees with the other steps", r.App)
		}
	}
	// apache2: no memory bug, NULL-pointer VSEF from the memory state step.
	if !strings.Contains(rows[0].MemoryBug, "No memory bug") {
		t.Errorf("apache2 memory bug column: %q", rows[0].MemoryBug)
	}
	if !strings.Contains(strings.ToLower(rows[0].MemoryStateVSEF), "null") {
		t.Errorf("apache2 initial VSEF: %q", rows[0].MemoryStateVSEF)
	}
	// cvs: double free found with a refined VSEF.
	if !strings.Contains(rows[1].MemoryBug, "double free") {
		t.Errorf("cvs memory bug column: %q", rows[1].MemoryBug)
	}
	if out := FormatTable2(rows); !strings.Contains(out, "== cvs ==") {
		t.Error("FormatTable2 output incomplete")
	}
}

func TestTable3Timings(t *testing.T) {
	rows, err := Table3([]string{"apache1"})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.TimeToFirstVSEF <= 0 {
		t.Error("no time to first VSEF")
	}
	if r.TimeToFirstVSEF > r.TimeToBestVSEF || r.TimeToBestVSEF > r.TotalAnalysisTime {
		t.Errorf("timing ordering violated: %+v", r)
	}
	if r.InitialAnalysisTime > r.TotalAnalysisTime {
		t.Error("initial analysis cannot exceed total")
	}
	if r.MemoryState <= 0 || r.MemoryBug <= 0 || r.Slicing <= 0 {
		t.Errorf("component timings missing: %+v", r)
	}
	// The ordering of expense matches the paper: memory-state analysis is the
	// cheapest step and slicing the most expensive.
	if r.MemoryState > r.Slicing {
		t.Errorf("memory-state (%v) should be cheaper than slicing (%v)", r.MemoryState, r.Slicing)
	}
	if out := FormatTable3(rows); !strings.Contains(out, "apache1") {
		t.Error("FormatTable3 output incomplete")
	}
}

// TestDefenseRunRecordsOneStepPerAnalyzer: every configured analyzer's
// replay is timed once per attack, as one Steps entry under its Table 3 name.
func TestDefenseRunRecordsOneStepPerAnalyzer(t *testing.T) {
	run, err := RunDefense("apache1", 4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	entries := make(map[string]int)
	for _, st := range run.Report.StepDurations() {
		entries[st.Name]++
		if st.Duration <= 0 {
			t.Errorf("step %s has implausible duration %v", st.Name, st.Duration)
		}
	}
	for _, want := range []string{"memory-bug", "input-taint", "slicing"} {
		if entries[want] != 1 {
			t.Errorf("analyzer step %s recorded %d times, want 1 (have %v)", want, entries[want], entries)
		}
	}
}

func TestFigure4OverheadShape(t *testing.T) {
	points, err := Figure4([]uint64{20, 200}, 250)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	fast, slow := points[0], points[1]
	if fast.IntervalMs != 20 || slow.IntervalMs != 200 {
		t.Fatal("interval ordering lost")
	}
	// More frequent checkpoints cost more.
	if fast.Overhead <= slow.Overhead {
		t.Errorf("20ms overhead (%.4f) should exceed 200ms overhead (%.4f)", fast.Overhead, slow.Overhead)
	}
	// The 200ms configuration stays in the paper's "about 1%" regime.
	if slow.Overhead < 0 || slow.Overhead > 0.03 {
		t.Errorf("200ms overhead = %.4f, want under 3%%", slow.Overhead)
	}
	// The 20ms configuration is noticeable but still modest (paper: ~5% at 30ms).
	if fast.Overhead > 0.20 {
		t.Errorf("20ms overhead = %.4f, implausibly large", fast.Overhead)
	}
	if out := FormatFigure4(points); !strings.Contains(out, "Interval") {
		t.Error("FormatFigure4 output incomplete")
	}
}

func TestMonitoringOverheadOrdering(t *testing.T) {
	rows, err := MonitoringOverhead(250)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byMode := map[string]OverheadRow{}
	for _, r := range rows {
		switch {
		case r.Mode == "unprotected":
			byMode["base"] = r
		case strings.HasPrefix(r.Mode, "sweeper (ASLR"):
			byMode["sweeper"] = r
		case strings.HasPrefix(r.Mode, "sweeper + deployed VSEF"):
			byMode["vsef"] = r
		case strings.HasPrefix(r.Mode, "always-on taint"):
			byMode["taint"] = r
		}
	}
	if len(byMode) != 4 {
		t.Fatalf("could not identify all rows: %+v", rows)
	}
	// Sweeper's lightweight runtime and VSEFs are cheap; always-on taint is
	// catastrophically more expensive (the paper's central comparison).
	if byMode["sweeper"].Overhead > 0.05 {
		t.Errorf("sweeper overhead %.4f too high", byMode["sweeper"].Overhead)
	}
	if byMode["vsef"].Overhead > 0.10 {
		t.Errorf("VSEF overhead %.4f too high", byMode["vsef"].Overhead)
	}
	if byMode["taint"].Overhead < 5*byMode["vsef"].Overhead || byMode["taint"].Overhead < 0.5 {
		t.Errorf("always-on taint (%.2f) should dwarf VSEF overhead (%.4f)",
			byMode["taint"].Overhead, byMode["vsef"].Overhead)
	}
	if out := FormatOverhead(rows); !strings.Contains(out, "unprotected") {
		t.Error("FormatOverhead output incomplete")
	}
}

func TestFigure5RecoveryVsRestart(t *testing.T) {
	res, err := Figure5(900, 450, 250)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweeper) == 0 || len(res.Restart) == 0 {
		t.Fatal("missing series")
	}
	if res.SweeperServed < res.RestartServed {
		t.Errorf("Sweeper served %d, restart baseline %d; recovery must not lose more requests",
			res.SweeperServed, res.RestartServed)
	}
	// The restart baseline pays the full restart penalty of wall-clock service
	// time, so its run stretches noticeably longer than Sweeper's.
	sweeperEnd := res.Sweeper[len(res.Sweeper)-1].TimeMs
	restartEnd := res.Restart[len(res.Restart)-1].TimeMs
	if restartEnd < sweeperEnd+RestartPenaltyMs/2 {
		t.Errorf("restart baseline finished at %d ms vs Sweeper %d ms; expected a ~%d ms penalty",
			restartEnd, sweeperEnd, RestartPenaltyMs)
	}
	if res.RecoveryGapMs == 0 {
		t.Error("no recovery gap recorded")
	}
	if res.RecoveryGapMs >= RestartPenaltyMs {
		t.Errorf("recovery gap %d ms should beat the %d ms restart penalty", res.RecoveryGapMs, RestartPenaltyMs)
	}
	if out := FormatFigure5(res); !strings.Contains(out, "restart") {
		t.Error("FormatFigure5 output incomplete")
	}
}

// TestFigures4And5Repeat pins what the completion times of Figures 4 and 5
// add up to, value for value: the virtual clock makes both exact.
func TestFigures4And5Repeat(t *testing.T) {
	q := QuickSizes()
	res, err := Figure5(q.Figure5Requests, q.Figure5AttackAt, q.Figure5BucketMs)
	if err != nil {
		t.Fatal(err)
	}
	values := func(s metrics.Series) []float64 {
		out := make([]float64, len(s))
		for i, p := range s {
			if p.TimeMs != uint64(i)*q.Figure5BucketMs {
				t.Errorf("sample %d at %d ms, want %d", i, p.TimeMs, uint64(i)*q.Figure5BucketMs)
			}
			out[i] = p.Value
		}
		return out
	}
	wantSweeper := []float64{264, 264, 264, 264, 264, 264, 264, 268, 260, 264, 192, 0, 72, 244, 244, 240, 248, 244, 244, 244, 248, 240, 244, 244, 244, 232}
	wantRestart := []float64{232, 232, 232, 232, 232, 236, 232, 232, 232, 232, 236, 232, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 228, 228, 232, 236, 232, 232, 232, 232, 236, 232, 232, 232, 232, 184}
	if got := values(res.Sweeper); !slices.Equal(got, wantSweeper) {
		t.Errorf("Sweeper series\n got %v\nwant %v", got, wantSweeper)
	}
	if got := values(res.Restart); !slices.Equal(got, wantRestart) {
		t.Errorf("restart series\n got %v\nwant %v", got, wantRestart)
	}
	if res.SweeperServed != 1500 || res.RestartServed != 1500 || res.AttackAtMs != 2674 || res.RecoveryGapMs != 2 {
		t.Errorf("served %d / %d, attack at %d ms, recovery gap %d ms; want 1500 / 1500, 2674, 2",
			res.SweeperServed, res.RestartServed, res.AttackAtMs, res.RecoveryGapMs)
	}

	points, err := Figure4ForApp("squid", []uint64{20, 100, 200}, 300)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{263.7075718015666, 264.16739319965126, 264.16739319965126}
	for i, p := range points {
		if p.Throughput != want[i] {
			t.Errorf("Figure 4 at %d ms: %v requests/s, want %v", p.IntervalMs, p.Throughput, want[i])
		}
	}
}

func TestCommunityFigures(t *testing.T) {
	for _, tc := range []struct {
		name   string
		series []FigureSeries
	}{
		{"figure6", Figure6()},
		{"figure7", Figure7()},
		{"figure8", Figure8()},
	} {
		if len(tc.series) != 6 {
			t.Errorf("%s: %d gamma curves, want 6", tc.name, len(tc.series))
		}
		for _, s := range tc.series {
			if len(s.Points) != 5 {
				t.Errorf("%s gamma=%v: %d points, want 5", tc.name, s.Gamma, len(s.Points))
			}
			for _, p := range s.Points {
				if p.InfectionRatio < 0 || p.InfectionRatio > 1 {
					t.Errorf("%s: ratio out of range %+v", tc.name, p)
				}
			}
		}
		if out := FormatCommunityFigure(tc.name, tc.series); !strings.Contains(out, "alpha") {
			t.Errorf("%s formatting incomplete", tc.name)
		}
	}
}

func TestAbstractContainmentClaim(t *testing.T) {
	unimpeded, contained := AbstractContainmentClaim()
	if unimpeded < 0.99 {
		t.Errorf("an unimpeded hit-list worm should infect ~100%% in a second, got %.3f", unimpeded)
	}
	if contained >= 0.05 {
		t.Errorf("Sweeper should contain the hit-list worm to under 5%%, got %.3f", contained)
	}
}

func TestAblationsAndCrossCheck(t *testing.T) {
	rows := ProactiveAblation(1000)
	if len(rows) == 0 {
		t.Fatal("no ablation rows")
	}
	for _, r := range rows {
		if r.WithProactive > r.WithoutProactive+1e-9 {
			t.Errorf("proactive protection made things worse: %+v", r)
		}
	}
	if out := FormatProactiveAblation(rows); !strings.Contains(out, "proactive") {
		t.Error("ablation formatting incomplete")
	}

	rt := ResponseTimeAblation(1000, 14)
	for _, r := range rt {
		if r.RatioInitial > r.RatioRefined+1e-9 {
			t.Errorf("distributing the initial VSEF sooner should never be worse: %+v", r)
		}
	}
	if out := FormatResponseTimeAblation(rt); out == "" {
		t.Error("response-time ablation formatting empty")
	}

	cc, err := AgentCrossCheck(10000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cc) == 0 {
		t.Fatal("no cross-check rows")
	}
	if out := FormatAgentCrossCheck(cc); !strings.Contains(out, "model") {
		t.Error("cross-check formatting incomplete")
	}
}

func TestSizes(t *testing.T) {
	q, p := QuickSizes(), PaperSizes()
	if q.Figure4Requests >= p.Figure4Requests || q.Figure5Requests >= p.Figure5Requests {
		t.Error("paper sizes should exceed quick sizes")
	}
	if q.Figure5AttackAt >= q.Figure5Requests {
		t.Error("quick attack index out of range")
	}
	if p.Figure5AttackAt >= p.Figure5Requests {
		t.Error("paper attack index out of range")
	}
}
