package experiments

import (
	"fmt"

	"sweeper/internal/epidemic"
	"sweeper/internal/exploit"
)

// What every epidemic point shares; no caller ever varied them.
const (
	epidemicBeta     = 0.1  // contacts per infected host per tick: the paper's observed Slammer rate
	epidemicRho      = 1.0  // chance a contact infects a not-yet-immune consumer: no proactive protection
	epidemicWarmup   = 12   // generator requests each guest serves before the worm is released
	epidemicFanout   = 3    // each node's per-batch push fan-out
	epidemicMaxTicks = 5000 // bound on the epidemic clock
)

// EpidemicPointConfig sizes one live community-defence run: a community of N
// hosts, of which Deploy·N run a real in-process daemon (fleet + federation
// node on the in-process hub) and the rest are unprotected model hosts, with
// Alpha·N of the community acting as Producers (full Sweeper analysis
// pipeline) and the remaining daemons as Consumers (detect and recover, but
// publish nothing — core.Config.ProduceAntibodies false). A deterministic
// worm spreads over a tick clock (1 tick = 1 model second): epidemicBeta
// infection attempts per infected host per tick against uniformly random
// targets. The community reaction time GammaTicks models γ = γ1 + γ2 —
// consumers join the federation (and verify-then-adopt the producers'
// antibodies) GammaTicks after the first producer is contacted.
type EpidemicPointConfig struct {
	// Community is N, the number of vulnerable hosts (default 100).
	Community int
	// Alpha is the producer fraction of the community (default 0.05).
	Alpha float64
	// Deploy is the fraction of the community running a daemon at all —
	// the Figure 7 partial-deployment axis (default 1.0).
	Deploy float64
	// GammaTicks is the community reaction time in ticks (default 8).
	GammaTicks int
	// Seed drives the worm's deterministic PRNG (default 1).
	Seed uint64
}

func (c *EpidemicPointConfig) defaults() error {
	if c.Community == 0 {
		c.Community = 100
	}
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	if c.Deploy == 0 {
		c.Deploy = 1.0
	}
	if c.GammaTicks == 0 {
		c.GammaTicks = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Community < 3 {
		return fmt.Errorf("experiments: epidemic community needs at least 3 hosts, got %d", c.Community)
	}
	if c.Alpha < 0 || c.Alpha > 1 || c.Deploy <= 0 || c.Deploy > 1 {
		return fmt.Errorf("experiments: epidemic alpha %g / deploy %g out of range", c.Alpha, c.Deploy)
	}
	return nil
}

// EpidemicTickPoint is one sample of the live infection time series — the
// Figure 6 curve of one run.
type EpidemicTickPoint struct {
	Tick int
	// Infected counts hosts ever infected by this tick.
	Infected int
}

// EpidemicPointResult is the outcome of one live community run.
type EpidemicPointResult struct {
	Config EpidemicPointConfig
	// N, Protected and Producers are the realised community split: Protected
	// hosts run real daemons, of which the first Producers are producers.
	N         int
	Protected int
	Producers int
	// T0 is the tick at which the worm first contacted a producer (-1 when
	// it never did before the unprotected population saturated).
	T0 int
	// InfectedAtT0 is the ever-infected count at T0.
	InfectedAtT0 int
	// FinalInfected is the total number of hosts ever infected and
	// InfectionRatio is FinalInfected / N — the paper's I(T0+γ)/N.
	FinalInfected  int
	InfectionRatio float64
	// Series is the per-tick infection time series.
	Series []EpidemicTickPoint
	// Ticks is the total epidemic-clock duration of the run.
	Ticks int
	// Converged says every daemon's store reached the producers' full
	// antibody union within the timeout after the consumers joined.
	Converged bool
	// AntibodiesTotal is the converged store size (the producers' union).
	AntibodiesTotal int
	// ProducersAttacked counts producers that handled a real exploit
	// end-to-end (later producers are often already inoculated by gossip).
	ProducersAttacked int
	// BlockedContacts counts worm contacts a protected host survived because
	// an installed antibody's input signature filtered them.
	BlockedContacts int
	// Immune counts protected daemons whose proxy filtered the worm in the
	// final sweep (producers via their own antibodies, consumers via
	// verify-then-adopt).
	Immune int
	// Adopted, Verified, Rejected and Regenerated aggregate the fleets'
	// community-defence counters across every daemon.
	Adopted, Verified, Rejected, Regenerated int
	// SharedPageFraction is the fraction of the community's resident guest
	// pages still backed by the content-addressed shared base image store —
	// the memory economy that makes Deploy·N in-process daemons feasible.
	SharedPageFraction float64
	// ModelInfectionRatio cross-checks the run against the Section 6
	// differential-equation model at the same (β, N, α, γ, ρ); NaN-free only
	// for full deployment, where the model applies as-is.
	ModelInfectionRatio float64
}

// wormRNG is a deterministic xorshift64* generator: the epidemic must not
// depend on global randomness, so runs are reproducible per seed.
type wormRNG struct{ s uint64 }

func newWormRNG(seed uint64) *wormRNG {
	return &wormRNG{s: seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019}
}

func (r *wormRNG) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s * 0x2545f4914f6cdd1d
}

func (r *wormRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// RunEpidemicPoint stands up one live community — Deploy·Community real
// daemons on the in-process hub, each guest warmed with generator-driven load
// — releases the worm, and measures the epidemic response of the actual
// system: producers generate antibodies under attack, gossip converges the
// stores, consumers verify-then-adopt GammaTicks after the first producer
// contact, and the infection freezes everywhere the defence reached.
func RunEpidemicPoint(cfg EpidemicPointConfig) (*EpidemicPointResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	n := cfg.Community
	protected := min(max(int(cfg.Deploy*float64(n)+0.5), 1), n)
	producers := max(int(cfg.Alpha*float64(n)+0.5), 1)
	if producers >= protected {
		return nil, fmt.Errorf("experiments: epidemic needs at least one consumer daemon (%d producers of %d protected)", producers, protected)
	}

	c, err := newCommunity(communitySpec{
		members: protected, producers: producers, warmup: epidemicWarmup, fanout: epidemicFanout,
	})
	if err != nil {
		return nil, err
	}
	defer c.close()
	payload, err := exploit.Exploit(c.app)
	if err != nil {
		return nil, err
	}
	// Producers federate among themselves from the start (they are the
	// permanently-connected core of the community); consumers join at T0+γ.
	prods, consumers := c.members[:producers], c.members[producers:]
	for _, m := range prods {
		if err := m.link(false, prods...); err != nil {
			return nil, err
		}
	}

	res := &EpidemicPointResult{
		Config:    cfg,
		N:         n,
		Protected: protected,
		Producers: producers,
		T0:        -1,
	}

	// Host state. Hosts [0, producers) are producers, [producers, protected)
	// consumer daemons, [protected, n) unprotected model hosts. The seed
	// infection is host n-1: the last unprotected host, or — under full
	// deployment — a consumer that was already compromised when the outbreak
	// began.
	infected := make([]bool, n)
	immune := make([]bool, n) // set for daemons only, by the probe below
	infected[n-1] = true
	infectedCount := 1
	rng := newWormRNG(cfg.Seed)

	contact := func(target int) {
		switch {
		case target < producers:
			if res.T0 < 0 {
				res.T0 = res.Ticks
				res.InfectedAtT0 = infectedCount
			}
			// Producers meet every contact head-on: either the proxy filter
			// (their own or a gossiped antibody) drops it, or the guest
			// detects, analyses, recovers and publishes.
			if c.members[target].wormContact(payload) {
				res.BlockedContacts++
			} else {
				res.ProducersAttacked++
			}
		case infected[target]:
			// Already compromised; nothing changes.
		case immune[target]:
			res.BlockedContacts++
		default:
			// An unprotected host, or a consumer the response has not reached:
			// with ρ = 1 every contact compromises it silently, no monitor
			// ever firing. The draw is the ρ coin; it stays so that a seed's
			// contact stream is the one the committed record was made with.
			if target < protected {
				rng.next()
			}
			infected[target] = true
			infectedCount++
		}
	}

	// One tick: epidemicBeta attempts per infected host, fractional attempts
	// carried across ticks.
	attempts := 0.0
	tick := func() {
		res.Ticks++
		attempts += epidemicBeta * float64(infectedCount)
		for attempts >= 1 {
			attempts--
			contact(rng.intn(n))
		}
		res.Series = append(res.Series, EpidemicTickPoint{Tick: res.Ticks, Infected: infectedCount})
	}
	res.Series = append(res.Series, EpidemicTickPoint{Tick: 0, Infected: infectedCount})

	// Phase 1: the worm spreads freely until T0+γ, when the community
	// response completes.
	for res.Ticks < epidemicMaxTicks && (res.T0 < 0 || res.Ticks < res.T0+cfg.GammaTicks) {
		tick()
	}

	// Community response: consumers join the federation (each linking to two
	// producers — the initial pull replays the full store, the poll loops
	// converge the rest), verify the antibodies by replaying the attached
	// exploits in their own sandboxes, and adopt.
	if res.T0 >= 0 {
		res.AntibodiesTotal = storeUnion(prods)
		for i, m := range consumers {
			for k := 0; k < 2 && k < producers; k++ {
				if err := m.link(false, prods[(i+k)%producers]); err != nil {
					return nil, err
				}
			}
		}
		res.Converged = awaitStores(c.members, res.AntibodiesTotal)
		c.drain() // verify-then-adopt everything that arrived
		// Probe: one more worm contact per daemon, off the epidemic clock,
		// establishing ground-truth immunity for the remaining ticks.
		for i, m := range c.members {
			if immune[i] = m.wormContact(payload); immune[i] {
				res.Immune++
			}
		}
	}

	// Phase 2: with every reachable daemon immune, the worm still owns the
	// unprotected remainder of the community (the Figure 7 story) — run the
	// clock until it has taken what it can (no ticks at all, under full
	// deployment).
	saturated := func() bool {
		for _, taken := range infected[protected:] {
			if !taken {
				return false
			}
		}
		return true
	}
	for res.Ticks < epidemicMaxTicks && !saturated() {
		tick()
	}

	res.FinalInfected = infectedCount
	res.InfectionRatio = float64(infectedCount) / float64(n)

	// Aggregate the defence counters, and the shared-page economy across
	// every live guest.
	sharedPages, totalPages := 0, 0
	for _, m := range c.members {
		tot := m.fleet.Metrics().Totals()
		res.Adopted += tot.AntibodiesAdopted
		res.Verified += tot.AntibodiesVerified
		res.Rejected += tot.AntibodiesRejected
		res.Regenerated += tot.AntibodiesRegenerated
		s, t := m.guest.Sweeper().Process().SharedBasePages()
		sharedPages += s
		totalPages += t
	}
	if totalPages > 0 {
		res.SharedPageFraction = float64(sharedPages) / float64(totalPages)
	}
	if cfg.Deploy >= 1 {
		res.ModelInfectionRatio = epidemic.InfectionRatio(
			epidemicBeta, float64(n), float64(producers)/float64(n), float64(cfg.GammaTicks), epidemicRho)
	}
	return res, nil
}

// EpidemicSweepConfig spans the (α, deploy, γ) grid of one RunEpidemicSweep
// call. Base carries the community shape shared by every point; the three
// axes each vary one parameter against it.
type EpidemicSweepConfig struct {
	Base EpidemicPointConfig
	// Alphas is the Figure 6 axis: producer fractions swept at Base.Deploy
	// and Base.GammaTicks, each point keeping its infection time series.
	Alphas []float64
	// Deploys is the Figure 7 axis: deployment fractions swept at Base.Alpha.
	Deploys []float64
	// Gammas is the Figure 8 axis: reaction times swept at Base.Alpha under
	// full deployment.
	Gammas []int
}

// DefaultEpidemicSweepConfig returns the grid behind the committed
// epidemic_fig* metrics: a 100-host community swept over three producer
// fractions, three deployment fractions and three reaction times.
func DefaultEpidemicSweepConfig() EpidemicSweepConfig {
	return EpidemicSweepConfig{
		Base:    EpidemicPointConfig{Community: 100, Alpha: 0.05, Deploy: 1.0, GammaTicks: 8},
		Alphas:  []float64{0.02, 0.05, 0.10},
		Deploys: []float64{0.3, 0.6, 1.0},
		Gammas:  []int{4, 8, 16},
	}
}

// EpidemicSweepResult holds one live point per grid cell, grouped by figure.
type EpidemicSweepResult struct {
	// Figure6 varies the producer fraction α: more producers mean an earlier
	// T0 and fewer hosts infected before the community response lands.
	Figure6 []*EpidemicPointResult
	// Figure7 varies the deployment fraction: unprotected hosts are never
	// immunised, so the final infection tracks the undeployed remainder.
	Figure7 []*EpidemicPointResult
	// Figure8 varies the reaction time γ: the longer antibody generation and
	// dissemination take, the further the worm spreads first.
	Figure8 []*EpidemicPointResult
}

// RunEpidemicSweep reproduces the structure of the paper's Figures 6-8
// against live communities: every grid cell stands up its own in-process
// daemon community (generator-driven load on every guest), releases the worm,
// and measures the infection outcome of the real antibody pipeline instead of
// the differential-equation model. The three axes share Base and differ in
// exactly one parameter, so each result slice is a curve. Every point of an
// axis reuses Base.Seed — common random numbers, the paired-run variance
// reduction: the worm draws the identical contact stream against every
// community on the axis, so curve differences isolate the swept parameter.
func RunEpidemicSweep(cfg EpidemicSweepConfig) (*EpidemicSweepResult, error) {
	res := &EpidemicSweepResult{}
	point := func(curve *[]*EpidemicPointResult, vary func(*EpidemicPointConfig)) error {
		pc := cfg.Base
		vary(&pc)
		pt, err := RunEpidemicPoint(pc)
		if err != nil {
			return fmt.Errorf("experiments: epidemic alpha=%g deploy=%g gamma=%d: %w", pc.Alpha, pc.Deploy, pc.GammaTicks, err)
		}
		*curve = append(*curve, pt)
		return nil
	}
	for _, alpha := range cfg.Alphas {
		if err := point(&res.Figure6, func(pc *EpidemicPointConfig) { pc.Alpha = alpha }); err != nil {
			return nil, err
		}
	}
	for _, deploy := range cfg.Deploys {
		if err := point(&res.Figure7, func(pc *EpidemicPointConfig) { pc.Deploy = deploy }); err != nil {
			return nil, err
		}
	}
	for _, gamma := range cfg.Gammas {
		if err := point(&res.Figure8, func(pc *EpidemicPointConfig) { pc.GammaTicks = gamma }); err != nil {
			return nil, err
		}
	}
	return res, nil
}
