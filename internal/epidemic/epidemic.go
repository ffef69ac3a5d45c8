// Package epidemic implements Section 6 of the paper: the
// Susceptible-Infected community-defence model of a Sweeper deployment
// (equations 1-4), used to evaluate how a small fraction of Producers
// (hosts running the full Sweeper system) protects Consumers against
// Slammer-class and hit-list worms, with and without proactive probabilistic
// protection (address-space randomisation). The package's one agent-based
// simulator, SimulateAgents, cross-checks the differential-equation model
// host by host, and is also the worm of the live communities in
// internal/experiments, which plug their daemons in through AgentHooks.
package epidemic

import (
	"fmt"
	"math"
)

// Params are the community-model parameters (the paper's notation).
type Params struct {
	// Beta is the average contact rate: infection attempts per infected host
	// per second against vulnerable hosts. Slammer: 0.1; hit-list worms:
	// 1000-4000.
	Beta float64
	// N is the number of vulnerable hosts (100000 in the paper).
	N float64
	// Alpha is the fraction of vulnerable hosts that are Producers.
	Alpha float64
	// Gamma is the community response time in seconds: time from the first
	// infection attempt against a Producer until every host has received and
	// installed the antibody (γ = γ1 + γ2).
	Gamma float64
	// Rho is the probability that one infection attempt succeeds against a
	// host with proactive probabilistic protection (1.0 = no proactive
	// protection; the paper uses 2^-12 for address-space randomisation).
	Rho float64

	// I0 is the initial number of infected hosts (default 1).
	I0 float64
	// Dt is the integration step in seconds (0 = automatic).
	Dt float64
	// MaxTime bounds the simulated time in seconds (0 = automatic).
	MaxTime float64
}

// DefaultRho is the ASLR bypass probability used in the paper's hit-list
// analysis.
var DefaultRho = math.Exp2(-12)

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Beta <= 0 || p.N <= 1 || p.Gamma < 0 {
		return fmt.Errorf("epidemic: invalid parameters beta=%g N=%g gamma=%g", p.Beta, p.N, p.Gamma)
	}
	if p.Alpha < 0 || p.Alpha > 1 {
		return fmt.Errorf("epidemic: alpha %g out of [0,1]", p.Alpha)
	}
	if p.Rho < 0 || p.Rho > 1 {
		return fmt.Errorf("epidemic: rho %g out of [0,1]", p.Rho)
	}
	return nil
}

// Point is one sample of the propagation time series.
type Point struct {
	Time      float64
	Infected  float64
	Producers float64 // producers contacted by at least one infection attempt
}

// Result is the outcome of one model run.
type Result struct {
	// T0 is the time at which the first Producer has been contacted and the
	// community response clock starts.
	T0 float64
	// InfectedAtT0 is I(T0).
	InfectedAtT0 float64
	// FinalInfected is I(T0+Gamma): the total number of hosts ever infected,
	// since after T0+Gamma every host is immune.
	FinalInfected float64
	// InfectionRatio is FinalInfected / N.
	InfectionRatio float64
	// Saturated reports that the worm infected essentially every non-producer
	// host before the response completed.
	Saturated bool
	// Series is the (optionally recorded) time series.
	Series []Point
}

func (p Params) withDefaults() Params {
	if p.I0 <= 0 {
		p.I0 = 1
	}
	growth := p.Beta * p.Rho
	if growth <= 0 {
		growth = p.Beta
	}
	if p.Dt <= 0 {
		p.Dt = math.Min(0.02/growth, 0.05)
		if p.Gamma > 0 {
			p.Dt = math.Min(p.Dt, p.Gamma/200)
		}
		if p.Dt <= 0 || math.IsNaN(p.Dt) {
			p.Dt = 0.001
		}
	}
	if p.MaxTime <= 0 {
		// Long enough for even a slow worm to reach the first producer.
		p.MaxTime = 100.0/growth*math.Log(p.N) + p.Gamma + 10
	}
	return p
}

// derivatives implements equations (1)-(4): with proactive protection the
// infection term is scaled by rho, but contacts against producers (which only
// need to be observed, not succeed) are not.
func derivatives(p Params, I, P float64) (dI, dP float64) {
	susceptible := 1 - p.Alpha - I/p.N
	if susceptible < 0 {
		susceptible = 0
	}
	dI = p.Beta * p.Rho * I * susceptible
	prodRemaining := 0.0
	if p.Alpha > 0 {
		prodRemaining = 1 - P/(p.Alpha*p.N)
		if prodRemaining < 0 {
			prodRemaining = 0
		}
	}
	dP = p.Alpha * p.Beta * I * prodRemaining
	return dI, dP
}

// Simulate integrates the model with classic fourth-order Runge-Kutta until
// the community response completes (T0 + Gamma) and returns the outcome.
// recordSeries controls whether the full time series is kept.
func Simulate(params Params, recordSeries bool) (Result, error) {
	if err := params.Validate(); err != nil {
		return Result{}, err
	}
	p := params.withDefaults()

	I, P := p.I0, 0.0
	t := 0.0
	var res Result
	maxInfected := (1 - p.Alpha) * p.N

	record := func() {
		if recordSeries {
			res.Series = append(res.Series, Point{Time: t, Infected: I, Producers: P})
		}
	}
	record()

	step := func(dt float64) {
		k1i, k1p := derivatives(p, I, P)
		k2i, k2p := derivatives(p, I+dt/2*k1i, P+dt/2*k1p)
		k3i, k3p := derivatives(p, I+dt/2*k2i, P+dt/2*k2p)
		k4i, k4p := derivatives(p, I+dt*k3i, P+dt*k3p)
		I += dt / 6 * (k1i + 2*k2i + 2*k3i + k4i)
		P += dt / 6 * (k1p + 2*k2p + 2*k3p + k4p)
		if I > maxInfected {
			I = maxInfected
		}
		if p.Alpha > 0 && P > p.Alpha*p.N {
			P = p.Alpha * p.N
		}
		t += dt
	}

	// Phase 1: run until the first producer has been contacted (P >= 1).
	for p.Alpha > 0 && P < 1 && t < p.MaxTime {
		step(p.Dt)
		record()
	}
	if P < 1 {
		// No producer was ever contacted (there are none, or alpha is too
		// small / the worm too slow): nothing stops the worm, and it
		// saturates the susceptible population, unless no attempt can
		// succeed (Rho = 0).
		res.T0 = math.Inf(1)
		res.InfectedAtT0 = I
		res.FinalInfected, res.Saturated = maxInfected, true
		if p.Rho == 0 {
			res.FinalInfected, res.Saturated = I, false
		}
		res.InfectionRatio = res.FinalInfected / p.N
		return res, nil
	}
	t0 := t
	res.T0 = t0
	res.InfectedAtT0 = I

	// Phase 2: the worm keeps spreading for Gamma more seconds while the
	// antibody is generated, disseminated and installed.
	end := t0 + p.Gamma
	for t < end {
		dt := p.Dt
		if t+dt > end {
			dt = end - t
		}
		step(dt)
		record()
	}

	res.FinalInfected = I
	res.InfectionRatio = I / p.N
	res.Saturated = I >= 0.99*maxInfected
	return res, nil
}

// InfectionRatio is a convenience wrapper returning only the infection ratio.
func InfectionRatio(beta, n, alpha, gamma, rho float64) float64 {
	r, err := Simulate(Params{Beta: beta, N: n, Alpha: alpha, Gamma: gamma, Rho: rho}, false)
	if err != nil {
		return math.NaN()
	}
	return r.InfectionRatio
}

// SweepPoint is one cell of a deployment-ratio × response-time sweep.
type SweepPoint struct {
	Alpha          float64
	Gamma          float64
	InfectionRatio float64
}

// Figure6Alphas are the deployment ratios on the x-axis of Figure 6.
func Figure6Alphas() []float64 { return []float64{0.1, 0.01, 0.005, 0.001, 0.0001} }

// Figure78Alphas are the deployment ratios on the x-axis of Figures 7 and 8.
func Figure78Alphas() []float64 { return []float64{0.5, 0.1, 0.01, 0.001, 0.0001} }

// StandardGammas are the response times plotted in Figures 6-8.
func StandardGammas() []float64 { return []float64{5, 10, 20, 30, 50, 100} }

// SlammerParams returns the observed Slammer outbreak parameters.
func SlammerParams(alpha, gamma float64) Params {
	return Params{Beta: 0.1, N: 100000, Alpha: alpha, Gamma: gamma, Rho: 1}
}

// HitListParams returns hit-list worm parameters with proactive protection.
func HitListParams(beta, alpha, gamma float64) Params {
	return Params{Beta: beta, N: 100000, Alpha: alpha, Gamma: gamma, Rho: DefaultRho}
}
