package experiments

import (
	"fmt"
	"time"

	"sweeper/internal/apps"
	"sweeper/internal/core"
	"sweeper/internal/epidemic"
	"sweeper/internal/exploit"
	"sweeper/internal/federate"
	"sweeper/internal/metrics"
)

// EpidemicPointConfig sizes one live community-defence run: a community of N
// hosts, of which Deploy·N run a real in-process daemon (fleet + federation
// node on the in-process hub) and the rest are unprotected model hosts, with
// Alpha·N of the community acting as Producers (full Sweeper analysis
// pipeline) and the remaining daemons as Consumers (detect and recover, but
// publish nothing — core.Config.ProduceAntibodies false). A deterministic
// worm spreads over a tick clock (1 tick = 1 model second): Beta infection
// attempts per infected host per tick against uniformly random targets. The
// community reaction time GammaTicks models γ = γ1 + γ2 — consumers join the
// federation (and verify-then-adopt the producers' antibodies) GammaTicks
// after the first producer is contacted.
type EpidemicPointConfig struct {
	// App names the protected application image (default squid).
	App string
	// Community is N, the number of vulnerable hosts (default 100).
	Community int
	// Alpha is the producer fraction of the community (default 0.05).
	Alpha float64
	// Deploy is the fraction of the community running a daemon at all —
	// the Figure 7 partial-deployment axis (default 1.0).
	Deploy float64
	// GammaTicks is the community reaction time in ticks (default 8).
	GammaTicks int
	// Beta is the worm contact rate: infection attempts per infected host
	// per tick (default 0.1, the paper's observed Slammer rate).
	Beta float64
	// Rho is the probability an infection attempt against a not-yet-immune
	// consumer daemon succeeds silently. 1 (the default, the paper's Slammer
	// figures) means no proactive protection: every contact infects. Below 1
	// the remaining 1-Rho of contacts crash the guest instead — detected and
	// recovered by the real daemon.
	Rho float64
	// Seed drives the worm's deterministic PRNG (default 1).
	Seed uint64
	// BenignPerGuest is each guest's open-loop generator load, offered (and
	// drained) before the worm is released, establishing live traffic and
	// the checkpoints that verification sandboxes replay from (default 12).
	BenignPerGuest int
	// TargetReqPerSec is each generator's offered rate (default 400).
	TargetReqPerSec float64
	// PollInterval is the federation poll cadence (default 20ms).
	PollInterval time.Duration
	// MaxPushFanout bounds each node's per-batch push fan-out (default 3).
	MaxPushFanout int
	// AuthToken is the community's shared federation secret; every endpoint
	// requires it and every node presents it (default "sweeper-community").
	AuthToken string
	// Timeout bounds the wait for store convergence (default 60s).
	Timeout time.Duration
	// MaxTicks bounds the epidemic clock (default 5000).
	MaxTicks int
}

func (c *EpidemicPointConfig) defaults() error {
	if c.App == "" {
		c.App = "squid"
	}
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
	if c.Beta == 0 {
		c.Beta = 0.1
	}
	if c.Rho == 0 {
		c.Rho = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.BenignPerGuest == 0 {
		c.BenignPerGuest = 12
	}
	if c.TargetReqPerSec == 0 {
		c.TargetReqPerSec = 400
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 20 * time.Millisecond
	}
	if c.MaxPushFanout == 0 {
		c.MaxPushFanout = 3
	}
	if c.AuthToken == "" {
		c.AuthToken = "sweeper-community"
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.MaxTicks == 0 {
		c.MaxTicks = 5000
	}
	if c.Community < 3 {
		return fmt.Errorf("experiments: epidemic community needs at least 3 hosts, got %d", c.Community)
	}
	if c.Alpha < 0 || c.Alpha > 1 || c.Deploy <= 0 || c.Deploy > 1 {
		return fmt.Errorf("experiments: epidemic alpha %g / deploy %g out of range", c.Alpha, c.Deploy)
	}
	if c.Rho < 0 || c.Rho > 1 {
		return fmt.Errorf("experiments: epidemic rho %g out of [0,1]", c.Rho)
	}
	return nil
}

// EpidemicTickPoint is one sample of the live infection time series — the
// Figure 6 curve of one run.
type EpidemicTickPoint struct {
	Tick int
	// Infected counts hosts ever infected by this tick.
	Infected int
	// ProducersContacted counts producers the worm has reached by this tick.
	ProducersContacted int
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
	// ConsumersDetected counts consumer daemons that detected and recovered
	// from a live exploit (only possible when Rho < 1).
	ConsumersDetected int
	// BlockedContacts counts worm contacts a protected host survived:
	// filtered by an installed antibody's input signature, or detected and
	// recovered in place.
	BlockedContacts int
	// Immune counts protected daemons whose proxy filtered the worm in the
	// final sweep (producers via their own antibodies, consumers via
	// verify-then-adopt).
	Immune int
	// Adopted, Verified, Rejected and Regenerated aggregate the fleets'
	// community-defence counters across every daemon.
	Adopted, Verified, Rejected, Regenerated int
	// Fed aggregates the federation counters across every daemon.
	Fed metrics.FederationStats
	// SharedPageFraction is the fraction of the community's resident guest
	// pages still backed by the content-addressed shared base image store —
	// the memory economy that makes Deploy·N in-process daemons feasible.
	SharedPageFraction float64
	// ModelInfectionRatio cross-checks the run against the Section 6
	// differential-equation model at the same (β, N, α, γ, ρ); NaN-free only
	// for full deployment, where the model applies as-is.
	ModelInfectionRatio float64
	// Elapsed is the wall-clock cost of the run.
	Elapsed time.Duration
}

// epidemicDaemon is one protected host: a single-guest fleet, its in-process
// federation endpoint and its node.
type epidemicDaemon struct {
	name     string
	producer bool
	fleet    *core.Fleet
	rec      *metrics.FederationRecorder
	node     *federate.Node
	guest    *core.Guest
	// attacked says this daemon already handled a live exploit (consumers
	// detect and recover at most once for real; later detections are
	// bookkept, keeping tick cost bounded).
	attacked bool
}

func (d *epidemicDaemon) close() {
	if d.node != nil {
		d.node.Close()
	}
	if d.fleet != nil {
		d.fleet.Stop()
	}
}

// wormRNG is a deterministic xorshift64* generator: the epidemic must not
// depend on global randomness, so runs are reproducible per seed.
type wormRNG struct{ s uint64 }

func (r *wormRNG) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s * 0x2545f4914f6cdd1d
}

func (r *wormRNG) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *wormRNG) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// RunEpidemicPoint stands up one live community — Deploy·Community real
// daemons federated over the in-process hub, each guest warmed with
// generator-driven load — releases the worm, and measures the epidemic
// response of the actual system: producers generate antibodies under attack,
// gossip converges the stores, consumers verify-then-adopt GammaTicks after
// the first producer contact, and the infection freezes everywhere the
// defence reached.
func RunEpidemicPoint(cfg EpidemicPointConfig) (*EpidemicPointResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	start := time.Now()
	spec, err := apps.ByName(cfg.App)
	if err != nil {
		return nil, err
	}
	payload, err := exploit.Exploit(spec)
	if err != nil {
		return nil, err
	}

	n := cfg.Community
	protected := int(cfg.Deploy*float64(n) + 0.5)
	if protected < 1 {
		protected = 1
	}
	if protected > n {
		protected = n
	}
	producers := int(cfg.Alpha*float64(n) + 0.5)
	if producers < 1 {
		producers = 1
	}
	if producers >= protected {
		return nil, fmt.Errorf("experiments: epidemic needs at least one consumer daemon (%d producers of %d protected)", producers, protected)
	}

	hub := federate.NewHub()
	defer hub.Close()
	daemons := make([]*epidemicDaemon, protected)
	defer func() {
		for _, d := range daemons {
			if d != nil {
				d.close()
			}
		}
	}()
	for i := range daemons {
		d := &epidemicDaemon{
			name:     fmt.Sprintf("host%d", i),
			producer: i < producers,
			fleet:    core.NewFleet(),
			rec:      metrics.NewFederationRecorder(),
		}
		gcfg := core.DefaultConfig()
		gcfg.ASLRSeed = 0x5eed + int64(i)*7919
		gcfg.VerifyAdoption = true
		if !d.producer {
			// Consumer role: detection and recovery only. No heavyweight
			// analyses, and nothing published — antibodies reach consumers
			// exclusively through the federation (this is what Alpha means).
			gcfg.Analyses = []string{}
			gcfg.ProduceAntibodies = false
		}
		g, err := d.fleet.AddGuest(d.name+"-g0", spec.Name, spec.Image, spec.Options, gcfg)
		if err != nil {
			return nil, err
		}
		wcfg := core.WorkloadConfig{
			TargetReqPerSec: cfg.TargetReqPerSec,
			Requests:        cfg.BenignPerGuest,
			Benign:          func(j int) []byte { return exploit.Benign(cfg.App, j) },
			Source:          "loadgen",
		}
		if err := g.SetWorkload(wcfg); err != nil {
			return nil, err
		}
		d.guest = g
		if _, err := hub.Register(d.name, d.fleet.Store(), d.rec, cfg.AuthToken); err != nil {
			return nil, err
		}
		d.node = federate.NewNode(d.fleet.Store(), d.rec, federate.Config{
			Name:          d.name,
			PollInterval:  cfg.PollInterval,
			AuthToken:     cfg.AuthToken,
			MaxPushFanout: cfg.MaxPushFanout,
		})
		d.fleet.Start()
		daemons[i] = d
	}
	// Warm every guest with its generator load before the worm is released:
	// live traffic, live checkpoints (the verification sandboxes replay from
	// them), and a populated dispatch cache.
	for _, d := range daemons {
		d.fleet.Drain()
	}
	// Producers federate among themselves from the start (they are the
	// permanently-connected core of the community); consumers join at T0+γ.
	for i := 0; i < producers; i++ {
		for j := 0; j < producers; j++ {
			if i == j {
				continue
			}
			t, err := hub.Dial(daemons[j].name, cfg.AuthToken)
			if err != nil {
				return nil, err
			}
			if err := daemons[i].node.AddTransport(t); err != nil {
				return nil, err
			}
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
	immune := make([]bool, protected)
	infected[n-1] = true
	infectedCount := 1
	producersContacted := make([]bool, producers)
	contactedCount := 0
	immunityOn := false

	rng := &wormRNG{s: cfg.Seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019}
	// submitWorm offers the live exploit to a daemon and drains the fleet if
	// it was accepted (the guest then detects, recovers and — for producers —
	// generates antibodies). Returns whether the proxy filtered it.
	submitWorm := func(d *epidemicDaemon) (filtered bool) {
		if d.fleet.Submit(d.guest.Name(), payload, "worm", true) {
			d.fleet.Drain()
			return false
		}
		return true
	}

	contact := func(target int) {
		if target >= protected {
			// Unprotected host: no daemon, no defence, no recovery.
			if !infected[target] {
				infected[target] = true
				infectedCount++
			}
			return
		}
		d := daemons[target]
		if d.producer {
			if res.T0 < 0 {
				res.T0 = res.Ticks
				res.InfectedAtT0 = infectedCount
			}
			if !producersContacted[target] {
				producersContacted[target] = true
				contactedCount++
			}
			// Producers meet every contact head-on: either the proxy filter
			// (their own or a gossiped antibody) drops it, or the guest
			// detects, analyses, recovers and publishes.
			if submitWorm(d) {
				res.BlockedContacts++
			} else {
				d.attacked = true
				res.ProducersAttacked++
			}
			return
		}
		// Consumer daemon.
		if infected[target] {
			return // already compromised; nothing changes
		}
		if immunityOn && immune[target] {
			res.BlockedContacts++
			return
		}
		if rng.float() < cfg.Rho {
			// The attempt succeeds silently (no proactive protection, or the
			// worm guessed the layout): the host is compromised without the
			// monitor ever firing.
			infected[target] = true
			infectedCount++
			return
		}
		// The attempt crashed against the randomised layout: detected. The
		// first detection runs the real pipeline end to end; repeats are
		// bookkept so the tick cost stays bounded.
		if !d.attacked {
			d.attacked = true
			if !submitWorm(d) {
				res.ConsumersDetected++
			}
		}
		res.BlockedContacts++
	}

	record := func() {
		res.Series = append(res.Series, EpidemicTickPoint{
			Tick:               res.Ticks,
			Infected:           infectedCount,
			ProducersContacted: contactedCount,
		})
	}
	record()

	// The tick loop: Beta attempts per infected host per tick, fractional
	// attempts accumulated across ticks. The loop leaves phase 1 (worm
	// spreading freely) at T0+γ, when the community response completes; after
	// that only unprotected hosts remain susceptible, and the run ends once
	// they are saturated (immediately, under full deployment).
	attempts := 0.0
	for res.Ticks < cfg.MaxTicks {
		if res.T0 >= 0 && !immunityOn && res.Ticks >= res.T0+cfg.GammaTicks {
			break // community response complete: join the consumers below
		}
		res.Ticks++
		attempts += cfg.Beta * float64(infectedCount)
		for attempts >= 1 {
			attempts--
			contact(rng.intn(n))
		}
		record()
	}

	// Community response: consumers join the federation (each dialing two
	// producers — the initial pull replays the full store, the poll loops
	// converge the rest), verify the antibodies by replaying the attached
	// exploits in their own sandboxes, and adopt.
	if res.T0 >= 0 {
		union := make(map[string]bool)
		for i := 0; i < producers; i++ {
			for _, a := range daemons[i].fleet.Store().All() {
				union[a.ID] = true
			}
		}
		res.AntibodiesTotal = len(union)
		for i := producers; i < protected; i++ {
			for k := 0; k < 2 && k < producers; k++ {
				t, err := hub.Dial(daemons[(i+k)%producers].name, cfg.AuthToken)
				if err != nil {
					return nil, err
				}
				if err := daemons[i].node.AddTransport(t); err != nil {
					return nil, err
				}
			}
		}
		deadline := time.Now().Add(cfg.Timeout)
		for {
			converged := true
			for _, d := range daemons {
				if d.fleet.Store().Len() < res.AntibodiesTotal {
					converged = false
					break
				}
			}
			if converged {
				res.Converged = true
				break
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(cfg.PollInterval)
		}
		for _, d := range daemons {
			d.fleet.Drain() // verify-then-adopt everything that arrived
		}
		// Probe: one more worm contact per daemon, off the epidemic clock,
		// establishing ground-truth immunity for the remaining ticks.
		for i, d := range daemons {
			immune[i] = submitWorm(d)
			if immune[i] {
				res.Immune++
			}
		}
		immunityOn = true
	}

	// Phase 2: with every reachable daemon immune, the worm still owns the
	// unprotected remainder of the community (the Figure 7 story) — run the
	// clock until it has taken what it can.
	for res.Ticks < cfg.MaxTicks {
		saturated := true
		for i := protected; i < n; i++ {
			if !infected[i] {
				saturated = false
				break
			}
		}
		if saturated {
			break
		}
		res.Ticks++
		attempts += cfg.Beta * float64(infectedCount)
		for attempts >= 1 {
			attempts--
			contact(rng.intn(n))
		}
		record()
	}

	res.FinalInfected = infectedCount
	res.InfectionRatio = float64(infectedCount) / float64(n)

	// Aggregate the defence and federation counters, and the shared-page
	// economy across every live guest.
	sharedPages, totalPages := 0, 0
	for _, d := range daemons {
		tot := d.fleet.Metrics().Totals()
		res.Adopted += tot.AntibodiesAdopted
		res.Verified += tot.AntibodiesVerified
		res.Rejected += tot.AntibodiesRejected
		res.Regenerated += tot.AntibodiesRegenerated
		fs := d.rec.Snapshot()
		res.Fed.Peers += fs.Peers
		res.Fed.Pushed += fs.Pushed
		res.Fed.PushErrors += fs.PushErrors
		res.Fed.Received += fs.Received
		res.Fed.Duplicates += fs.Duplicates
		res.Fed.Polls += fs.Polls
		res.Fed.Rejected += fs.Rejected
		s, t := d.guest.Sweeper().Process().SharedBasePages()
		sharedPages += s
		totalPages += t
	}
	if totalPages > 0 {
		res.SharedPageFraction = float64(sharedPages) / float64(totalPages)
	}
	if cfg.Deploy >= 1 {
		res.ModelInfectionRatio = epidemic.InfectionRatio(
			cfg.Beta, float64(n), float64(producers)/float64(n), float64(cfg.GammaTicks), cfg.Rho)
	}
	res.Elapsed = time.Since(start)
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
	base := cfg.Base
	if err := base.defaults(); err != nil {
		return nil, err
	}
	if len(cfg.Alphas) == 0 {
		cfg.Alphas = []float64{0.02, 0.05, 0.10}
	}
	if len(cfg.Deploys) == 0 {
		cfg.Deploys = []float64{0.3, 0.6, 1.0}
	}
	if len(cfg.Gammas) == 0 {
		cfg.Gammas = []int{4, 8, 16}
	}
	res := &EpidemicSweepResult{}
	for _, alpha := range cfg.Alphas {
		pc := base
		pc.Alpha = alpha
		pt, err := RunEpidemicPoint(pc)
		if err != nil {
			return nil, fmt.Errorf("experiments: epidemic figure 6 alpha=%g: %w", alpha, err)
		}
		res.Figure6 = append(res.Figure6, pt)
	}
	for _, deploy := range cfg.Deploys {
		pc := base
		pc.Deploy = deploy
		pt, err := RunEpidemicPoint(pc)
		if err != nil {
			return nil, fmt.Errorf("experiments: epidemic figure 7 deploy=%g: %w", deploy, err)
		}
		res.Figure7 = append(res.Figure7, pt)
	}
	for _, gamma := range cfg.Gammas {
		pc := base
		pc.GammaTicks = gamma
		pt, err := RunEpidemicPoint(pc)
		if err != nil {
			return nil, fmt.Errorf("experiments: epidemic figure 8 gamma=%d: %w", gamma, err)
		}
		res.Figure8 = append(res.Figure8, pt)
	}
	return res, nil
}
