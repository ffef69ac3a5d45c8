package experiments

import (
	"reflect"
	"testing"
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
		t.Logf("%s alpha=%.2f deploy=%.1f gamma=%d: T0=%d final=%d/%d (%.0f%%) model=%.0f%% immune=%d/%d converged=%v",
			axis, p.Config.Alpha, p.Config.Deploy, p.Config.GammaTicks,
			p.T0, p.FinalInfected, p.N, 100*p.InfectionRatio, 100*p.ModelInfectionRatio,
			p.Immune, p.Protected, p.Converged)
	}
	checkPoint := func(axis string, p *EpidemicPointResult) {
		logPoint(axis, p)
		if p.T0 < 0 {
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
			if p.FinalInfected > prev.FinalInfected {
				t.Errorf("fig6: infection rose from %d to %d as alpha rose %.2f -> %.2f",
					prev.FinalInfected, p.FinalInfected, prev.Config.Alpha, p.Config.Alpha)
			}
			if p.T0 > prev.T0 {
				t.Errorf("fig6: T0 rose from %d to %d as alpha rose %.2f -> %.2f",
					prev.T0, p.T0, prev.Config.Alpha, p.Config.Alpha)
			}
		}
		for j := 1; j < len(p.Series); j++ {
			if p.Series[j].Infected < p.Series[j-1].Infected {
				t.Fatalf("fig6 alpha=%.2f: infection series not monotone at tick %d", p.Config.Alpha, j)
			}
		}
	}

	// Figure 7: the community response cannot reach undeployed hosts — the
	// worm always ends up owning them, and only them (plus what it took from
	// the deployed before the response).
	for i, p := range res.Figure7 {
		checkPoint("fig7", p)
		unprotected := p.N - p.Protected
		if p.FinalInfected < unprotected {
			t.Errorf("fig7 deploy=%.1f: final infected %d below the %d undeployed hosts",
				p.Config.Deploy, p.FinalInfected, unprotected)
		}
		if i > 0 && p.FinalInfected > res.Figure7[i-1].FinalInfected {
			t.Errorf("fig7: infection rose from %d to %d as deployment rose %.1f -> %.1f",
				res.Figure7[i-1].FinalInfected, p.FinalInfected,
				res.Figure7[i-1].Config.Deploy, p.Config.Deploy)
		}
	}

	// Figure 8: the identical outbreak, cut off later and later.
	for i, p := range res.Figure8 {
		checkPoint("fig8", p)
		if i > 0 && p.FinalInfected < res.Figure8[i-1].FinalInfected {
			t.Errorf("fig8: infection fell from %d to %d as gamma rose %d -> %d",
				res.Figure8[i-1].FinalInfected, p.FinalInfected,
				res.Figure8[i-1].Config.GammaTicks, p.Config.GammaTicks)
		}
	}
}

// TestEpidemicScaleSmoke is the production-scale convergence check: one
// hundred real in-process daemons (95 consumers, 5 producers) federated over
// the hub, generator-driven load on every guest, one worm outbreak. It runs
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
	t.Logf("N=%d protected=%d producers=%d T0=%d infectedAtT0=%d final=%d (%.0f%%) model=%.0f%% ticks=%d "+
		"attacked=%d blocked=%d immune=%d adopted=%d verified=%d rejected=%d regenerated=%d "+
		"antibodies=%d sharedPages=%.3f",
		res.N, res.Protected, res.Producers, res.T0, res.InfectedAtT0, res.FinalInfected,
		100*res.InfectionRatio, 100*res.ModelInfectionRatio, res.Ticks,
		res.ProducersAttacked, res.BlockedContacts, res.Immune,
		res.Adopted, res.Verified, res.Rejected, res.Regenerated,
		res.AntibodiesTotal, res.SharedPageFraction)

	if res.Protected != 100 {
		t.Fatalf("protected = %d, want 100 in-process daemons", res.Protected)
	}
	if res.T0 < 0 {
		t.Fatalf("worm never contacted a producer (T0 = %d)", res.T0)
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
	if res.FinalInfected >= res.N {
		t.Fatalf("the whole community was infected despite the response")
	}
	if last := res.Series[len(res.Series)-1]; last.Infected != res.FinalInfected {
		t.Fatalf("series end %d != final infected %d", last.Infected, res.FinalInfected)
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
// the seed alone.
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
	if a.T0 != b.T0 || a.FinalInfected != b.FinalInfected {
		t.Errorf("T0 %d vs %d, final infected %d vs %d on one seed", a.T0, b.T0, a.FinalInfected, b.FinalInfected)
	}
	if !reflect.DeepEqual(a.Series, b.Series) {
		t.Errorf("infection series differ on one seed:\n%v\n%v", a.Series, b.Series)
	}
}
