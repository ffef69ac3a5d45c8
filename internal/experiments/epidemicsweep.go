package experiments

import (
	"fmt"

	"sweeper/internal/epidemic"
	"sweeper/internal/exploit"
)

// What every epidemic point shares; no caller ever varied them.
const (
	epidemicBeta   = 0.1 // contacts per infected host per tick: the paper's observed Slammer rate
	epidemicRho    = 1.0 // chance a contact infects a not-yet-immune consumer: no proactive protection
	epidemicWarmup = 12  // benign requests each guest serves before the worm is released
	epidemicFanout = 3   // each node's per-batch push fan-out
)

// EpidemicPointConfig sizes one live community-defence run: a community of N
// hosts, of which Deploy·N run a real in-process daemon (fleet + federation
// node on the in-process hub) and the rest are unprotected model hosts, with
// Alpha·N of the community acting as Producers (full Sweeper analysis
// pipeline) and the remaining daemons as Consumers (detect and recover, but
// publish nothing — core.Config.ProduceAntibodies false). The worm is
// epidemic.SimulateAgents stepping a tick clock (1 tick = 1 model second):
// epidemicBeta contacts per infected host per tick against uniformly random
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
	// Seed selects the worm's contact stream (default 1).
	Seed uint64
}

// worm fills in the defaults and returns the point's worm: one step per tick.
func (c *EpidemicPointConfig) worm() epidemic.AgentParams {
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
	return epidemic.AgentParams{
		N: c.Community, Alpha: c.Alpha, Deploy: c.Deploy, Beta: epidemicBeta,
		Gamma: float64(c.GammaTicks), Rho: epidemicRho, Step: 1, Seed: c.Seed,
	}
}

// EpidemicPointResult is the outcome of one live community run.
type EpidemicPointResult struct {
	Config EpidemicPointConfig
	// N, Protected and Producers are the realised community split: Protected
	// hosts run real daemons, of which the first Producers are producers.
	N         int
	Protected int
	Producers int
	// AgentResult is the worm's side of the run, on the tick clock: T0 and
	// Steps are in ticks.
	epidemic.AgentResult
	// Converged says every daemon's store reached the producers' full
	// antibody union within the timeout after the consumers joined.
	Converged bool
	// AntibodiesTotal is the converged store size (the producers' union).
	AntibodiesTotal int
	// ProducersAttacked counts producers that handled a real exploit
	// end-to-end (later producers are often already inoculated by gossip).
	ProducersAttacked int
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

// RunEpidemicPoint stands up one live community — Deploy·Community real
// daemons on the in-process hub, each guest warmed with benign requests —
// releases the worm, and measures the epidemic response of the actual
// system: producers generate antibodies under attack, gossip converges the
// stores, consumers verify-then-adopt GammaTicks after the first producer
// contact, and the infection freezes everywhere the defence reached.
func RunEpidemicPoint(cfg EpidemicPointConfig) (*EpidemicPointResult, error) {
	worm := cfg.worm()
	producers, protected, err := worm.Hosts()
	if err != nil {
		return nil, err
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

	res := &EpidemicPointResult{Config: cfg, N: cfg.Community, Protected: protected, Producers: producers}
	res.AgentResult, err = epidemic.SimulateAgents(worm, epidemic.AgentHooks{
		// Producers meet every contact head-on: either the proxy filter
		// (their own or a gossiped antibody) drops it, or the guest detects,
		// analyses, recovers and publishes.
		Contact: func(i int) {
			if !c.members[i].wormContact(payload) {
				res.ProducersAttacked++
			}
		},
		// Community response: consumers join the federation (each linking to
		// two producers — the initial pull replays the full store, the poll
		// loops converge the rest), verify the antibodies by replaying the
		// attached exploits in their own sandboxes, and adopt. One more worm
		// contact per daemon, off the epidemic clock, then establishes
		// ground-truth immunity for the rest of the run.
		Respond: func(immune []bool) error {
			res.AntibodiesTotal = storeUnion(prods)
			for i, m := range consumers {
				for k := 0; k < 2 && k < producers; k++ {
					if err := m.link(false, prods[(i+k)%producers]); err != nil {
						return err
					}
				}
			}
			res.Converged = awaitStores(c.members, res.AntibodiesTotal)
			c.drain() // verify-then-adopt everything that arrived
			for i, m := range c.members {
				if immune[i] = m.wormContact(payload); immune[i] {
					res.Immune++
				}
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}

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
		n := float64(worm.N)
		res.ModelInfectionRatio = epidemic.InfectionRatio(worm.Beta, n, float64(producers)/n, worm.Gamma, worm.Rho)
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
// daemon community (benign load on every guest), releases the worm,
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
