package experiments

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sweeper/internal/epidemic"
)

// TestEpidemicSweepFigures runs the full Figure 6-8 grid on 100-host
// communities and checks the paper's curve shapes against the live system:
// infection falls as the producer fraction α rises (Figure 6), tracks the
// undeployed remainder under partial deployment (Figure 7), and grows with
// the community reaction time γ (Figure 8). Every axis uses common random
// numbers, so the orderings are properties of the parameters, not the seed.
func TestEpidemicSweepFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure grid: TestEpidemicScaleSmoke covers the scale path in -short")
	}
	cfg := DefaultEpidemicSweepConfig()
	cfg.Base.Seed = 7
	res, err := RunEpidemicSweep(cfg)
	if err != nil {
		t.Fatalf("RunEpidemicSweep: %v", err)
	}
	logPoint := func(axis string, p *EpidemicPointResult) {
		t.Logf("%s alpha=%.2f deploy=%.1f gamma=%d: T0=%g final=%d/%d (%.0f%%) model=%.0f%% immune=%d/%d converged=%v",
			axis, p.Config.Alpha, p.Config.Deploy, p.Config.GammaTicks,
			p.T0, p.Infected, p.N, 100*p.InfectionRatio, 100*p.ModelInfectionRatio,
			p.Immune, p.Protected, p.Converged)
	}
	checkPoint := func(axis string, p *EpidemicPointResult) {
		logPoint(axis, p)
		if math.IsInf(p.T0, 1) {
			t.Fatalf("%s: worm never reached a producer", axis)
		}
		if !p.Converged {
			t.Fatalf("%s: stores did not converge", axis)
		}
		if p.Immune != p.Protected {
			t.Fatalf("%s: only %d of %d daemons immune after the response", axis, p.Immune, p.Protected)
		}
	}

	// Figure 6: more producers, earlier response, fewer infected.
	for i, p := range res.Figure6 {
		checkPoint("fig6", p)
		if i > 0 {
			prev := res.Figure6[i-1]
			if p.Infected > prev.Infected {
				t.Errorf("fig6: infection rose from %d to %d as alpha rose %.2f -> %.2f",
					prev.Infected, p.Infected, prev.Config.Alpha, p.Config.Alpha)
			}
			if p.T0 > prev.T0 {
				t.Errorf("fig6: T0 rose from %g to %g as alpha rose %.2f -> %.2f",
					prev.T0, p.T0, prev.Config.Alpha, p.Config.Alpha)
			}
		}
		if len(p.Series) != p.Infected || !sort.IntsAreSorted(p.Series) {
			t.Fatalf("fig6 alpha=%.2f: infection series of %d, not in tick order, for %d infected",
				p.Config.Alpha, len(p.Series), p.Infected)
		}
	}

	// Figure 7: the community response cannot reach undeployed hosts — the
	// worm always ends up owning them, and only them (plus what it took from
	// the deployed before the response).
	for i, p := range res.Figure7 {
		checkPoint("fig7", p)
		unprotected := p.N - p.Protected
		if p.Infected < unprotected {
			t.Errorf("fig7 deploy=%.1f: final infected %d below the %d undeployed hosts",
				p.Config.Deploy, p.Infected, unprotected)
		}
		if i > 0 && p.Infected > res.Figure7[i-1].Infected {
			t.Errorf("fig7: infection rose from %d to %d as deployment rose %.1f -> %.1f",
				res.Figure7[i-1].Infected, p.Infected,
				res.Figure7[i-1].Config.Deploy, p.Config.Deploy)
		}
	}

	// Figure 8: the identical outbreak, cut off later and later.
	for i, p := range res.Figure8 {
		checkPoint("fig8", p)
		if i > 0 && p.Infected < res.Figure8[i-1].Infected {
			t.Errorf("fig8: infection fell from %d to %d as gamma rose %d -> %d",
				res.Figure8[i-1].Infected, p.Infected,
				res.Figure8[i-1].Config.GammaTicks, p.Config.GammaTicks)
		}
	}
}

// TestEpidemicScaleSmoke is the production-scale convergence check: one
// hundred real in-process daemons (95 consumers, 5 producers) federated over
// the hub, benign load on every guest, one worm outbreak. It runs
// in the -short CI lane; the shared base-image store is what makes a
// community this size affordable in one test process.
func TestEpidemicScaleSmoke(t *testing.T) {
	cfg := EpidemicPointConfig{
		Community:  100,
		Alpha:      0.05,
		Deploy:     1.0,
		GammaTicks: 8,
		Seed:       7,
	}
	res, err := RunEpidemicPoint(cfg)
	if err != nil {
		t.Fatalf("RunEpidemicPoint: %v", err)
	}
	t.Logf("N=%d protected=%d producers=%d T0=%g infectedAtT0=%d final=%d (%.0f%%) model=%.0f%% ticks=%d "+
		"attacked=%d immune=%d adopted=%d verified=%d rejected=%d regenerated=%d "+
		"antibodies=%d sharedPages=%.3f",
		res.N, res.Protected, res.Producers, res.T0, res.InfectedAtT0, res.Infected,
		100*res.InfectionRatio, 100*res.ModelInfectionRatio, res.Steps,
		res.ProducersAttacked, res.Immune,
		res.Adopted, res.Verified, res.Rejected, res.Regenerated,
		res.AntibodiesTotal, res.SharedPageFraction)

	if res.Protected != 100 {
		t.Fatalf("protected = %d, want 100 in-process daemons", res.Protected)
	}
	if math.IsInf(res.T0, 1) {
		t.Fatalf("worm never contacted a producer")
	}
	if !res.Converged {
		t.Fatalf("stores did not converge on %d antibodies within the timeout", res.AntibodiesTotal)
	}
	if res.ProducersAttacked < 1 {
		t.Fatalf("no producer handled the exploit end to end")
	}
	if res.AntibodiesTotal < 1 {
		t.Fatalf("producers generated no antibodies")
	}
	if res.Immune != res.Protected {
		t.Fatalf("only %d of %d daemons filter the worm after the community response", res.Immune, res.Protected)
	}
	// Every consumer (94 of them after the seed host) verifies and adopts the
	// producers' antibodies; producers other than the generators adopt too.
	if consumers := res.Protected - res.Producers; res.Adopted < consumers {
		t.Fatalf("adoptions = %d, want at least one per consumer (%d)", res.Adopted, consumers)
	}
	if res.Verified < res.Protected-res.ProducersAttacked-res.Producers {
		t.Fatalf("verifications = %d, too few for %d daemons", res.Verified, res.Protected)
	}
	// The community response freezes the infection: with full deployment the
	// worm keeps only what it took before T0+gamma.
	if res.Infected >= res.N {
		t.Fatalf("the whole community was infected despite the response")
	}
	if len(res.Series) != res.Infected {
		t.Fatalf("series of %d infections != final infected %d", len(res.Series), res.Infected)
	}
	// The memory economy that makes the scale possible: the overwhelming
	// share of the 100 guests' pages must still be the interned base images.
	if res.SharedPageFraction < 0.75 {
		t.Fatalf("shared base pages = %.3f of resident pages, want >= 0.75", res.SharedPageFraction)
	}
}

// TestEpidemicPointRepeatsPerSeed holds cmd/benchtables to its word that the
// infection outcomes are "deterministic per record": gossip, verification and
// adoption run on host-clock goroutines, yet the worm's contact stream — and
// so T0, the final count and the whole infection series — is a function of
// the seed alone. With every daemon immune after the response, it is the
// stream of the worm run with no community at all.
func TestEpidemicPointRepeatsPerSeed(t *testing.T) {
	cfg := EpidemicPointConfig{Community: 100, Alpha: 0.05, GammaTicks: 8, Seed: 7}
	a, err := RunEpidemicPoint(cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := RunEpidemicPoint(cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !reflect.DeepEqual(a.AgentResult, b.AgentResult) {
		t.Errorf("worm outcomes differ on one seed:\n%+v\n%+v", a.AgentResult, b.AgentResult)
	}
	if a.Immune != a.Protected {
		t.Fatalf("only %d of %d daemons immune: the run is not the worm alone", a.Immune, a.Protected)
	}
	free, err := epidemic.SimulateAgents(cfg.worm(), epidemic.AgentHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.AgentResult, free) {
		t.Errorf("live point and the worm alone differ on one seed:\n%+v\n%+v", a.AgentResult, free)
	}
}

// wormGrid runs the worm of every point of cfg's grid with no community, at
// seed: what the live sweep measures when every daemon ends immune.
func wormGrid(t *testing.T, cfg EpidemicSweepConfig, seed uint64) (fig6, fig7, fig8 []epidemic.AgentResult) {
	t.Helper()
	run := func(vary func(*EpidemicPointConfig)) epidemic.AgentResult {
		pc := cfg.Base
		pc.Seed = seed
		vary(&pc)
		r, err := epidemic.SimulateAgents(pc.worm(), epidemic.AgentHooks{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, alpha := range cfg.Alphas {
		fig6 = append(fig6, run(func(pc *EpidemicPointConfig) { pc.Alpha = alpha }))
	}
	for _, deploy := range cfg.Deploys {
		fig7 = append(fig7, run(func(pc *EpidemicPointConfig) { pc.Deploy = deploy }))
	}
	for _, gamma := range cfg.Gammas {
		fig8 = append(fig8, run(func(pc *EpidemicPointConfig) { pc.GammaTicks = gamma }))
	}
	return fig6, fig7, fig8
}

// TestWormReproducesCommittedGrid pins the contact stream behind BENCH_25.json
// and the README tables: at seed 1 the worm alone gives every committed
// epidemic_fig*_infected_pct and epidemic_t0_ticks.
func TestWormReproducesCommittedGrid(t *testing.T) {
	fig6, fig7, fig8 := wormGrid(t, DefaultEpidemicSweepConfig(), 1)
	for _, c := range []struct {
		figure string
		got    []epidemic.AgentResult
		want   []int // infected hosts of 100, i.e. percent
	}{
		{"6", fig6, []int{14, 14, 4}},
		{"7", fig7, []int{75, 49, 14}},
		{"8", fig8, []int{10, 14, 27}},
	} {
		for i, r := range c.got {
			if r.Infected != c.want[i] {
				t.Errorf("figure %s point %d: %d%% infected, committed %d%%", c.figure, i, r.Infected, c.want[i])
			}
		}
	}
	if fig6[1].T0 != 27 || fig6[2].T0 != 16 {
		t.Errorf("T0 = %g at alpha=5%%, %g at alpha=10%%; committed 27 and 16", fig6[1].T0, fig6[2].T0)
	}
}

// TestWormSeedMeans pins the README's explanation of the live-vs-model gap:
// seed 1 is one draw of a geometric T0. Over seeds 1-2000 the Figure 6 and 8
// means sit much nearer the SI model than the committed seed-1 values do.
func TestWormSeedMeans(t *testing.T) {
	const seeds = 2000
	cfg := DefaultEpidemicSweepConfig()
	sum6, sum8 := make([]int, len(cfg.Alphas)), make([]int, len(cfg.Gammas))
	var low []int // Figure 6 at the smallest alpha, one entry per seed
	for seed := uint64(1); seed <= seeds; seed++ {
		fig6, _, fig8 := wormGrid(t, cfg, seed)
		for i, r := range fig6 {
			sum6[i] += r.Infected
		}
		for i, r := range fig8 {
			sum8[i] += r.Infected
		}
		low = append(low, fig6[0].Infected)
	}
	means := func(sums []int) string {
		var out []string
		for _, s := range sums {
			out = append(out, fmt.Sprintf("%.1f", float64(s)/seeds))
		}
		return strings.Join(out, "/")
	}
	if got := means(sum6); got != "46.9/27.4/15.9" {
		t.Errorf("Figure 6 means over %d seeds %s%%, README says 46.9/27.4/15.9", seeds, got)
	}
	if got := means(sum8); got != "21.9/27.4/40.1" {
		t.Errorf("Figure 8 means over %d seeds %s%%, README says 21.9/27.4/40.1", seeds, got)
	}
	sort.Ints(low)
	if p10, p90 := low[seeds/10], low[seeds*9/10]; p10 != 11 || p90 != 82 {
		t.Errorf("Figure 6 at alpha=2%%: p10-p90 %d-%d%%, README says 11-82%%", p10, p90)
	}
}
