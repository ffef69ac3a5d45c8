package epidemic

import (
	"fmt"
	"math"
)

// AgentParams configure the agent-based worm simulation: the cross-check of
// the differential-equation model, and the worm of the live communities in
// internal/experiments. Hosts are explicit and indexed: [0, producers) are
// Producers, [producers, protected) Consumers, and [protected, N) run no
// Sweeper at all. An infected host makes Beta contacts per unit time against
// uniformly random hosts (the hit-list assumption — the worm already knows
// who is vulnerable).
type AgentParams struct {
	N      int     // vulnerable hosts, at least 3
	Alpha  float64 // producer fraction, in [0,1]; there is always at least one producer
	Deploy float64 // fraction running Sweeper (producers and consumers), in (0,1]; at least one must be a consumer
	Beta   float64 // contact rate per infected host per unit time, > 0
	Gamma  float64 // community response time: the response lands Gamma after the first producer contact
	Rho    float64 // chance one contact compromises a consumer, in [0,1] (1 = no proactive protection)
	Step   float64 // simulation step (0 = automatic)
	Seed   uint64  // selects the contact stream
}

// Hosts validates p and returns the realised split of its N hosts.
func (p AgentParams) Hosts() (producers, protected int, err error) {
	// Negated so that NaN fails every range.
	inf := math.Inf(1)
	switch {
	case p.N < 3:
		return 0, 0, fmt.Errorf("epidemic: agent community needs at least 3 hosts, got %d", p.N)
	case !(p.Alpha >= 0 && p.Alpha <= 1) || !(p.Deploy > 0 && p.Deploy <= 1):
		return 0, 0, fmt.Errorf("epidemic: alpha %g / deploy %g out of range", p.Alpha, p.Deploy)
	case !(p.Beta > 0 && p.Beta < inf):
		return 0, 0, fmt.Errorf("epidemic: beta %g must be positive and finite", p.Beta)
	case !(p.Gamma >= 0 && p.Gamma < inf) || !(p.Step >= 0 && p.Step < inf):
		return 0, 0, fmt.Errorf("epidemic: gamma %g / step %g must be non-negative and finite", p.Gamma, p.Step)
	case !(p.Rho >= 0 && p.Rho <= 1):
		return 0, 0, fmt.Errorf("epidemic: rho %g out of [0,1]", p.Rho)
	}
	n := float64(p.N)
	producers = max(int(p.Alpha*n+0.5), 1)
	protected = min(max(int(p.Deploy*n+0.5), 1), p.N)
	if producers >= protected {
		return 0, 0, fmt.Errorf("epidemic: needs at least one consumer (%d producers of %d protected)", producers, protected)
	}
	return producers, protected, nil
}

// AgentHooks connect a run to a live community. The zero value runs the worm
// on its own.
type AgentHooks struct {
	// Contact, when set, hears of every worm contact with a producer.
	Contact func(producer int)
	// Respond, when set, runs once, at T0+Gamma, and marks in immune (one
	// entry per protected host) the hosts the community response reached.
	// When nil, it reaches every one.
	Respond func(immune []bool) error
}

// AgentResult is the outcome of one agent-based run.
type AgentResult struct {
	// T0 is the time of the first producer contact (+Inf when the run's
	// runaway bound came first).
	T0 float64
	// InfectedAtT0 is the ever-infected count at T0.
	InfectedAtT0 int
	// Infected is the number of hosts ever infected, and InfectionRatio is
	// Infected / N — the paper's I(T0+γ)/N.
	Infected       int
	InfectionRatio float64
	// Attempts counts the worm's contacts and Steps the steps simulated.
	Attempts int64
	Steps    int
	// Series is the infection time series: for each infected host in the
	// order it fell, the step of its infection (0 for patient zero).
	Series []int
}

type hostState uint8

const (
	hostSusceptible hostState = iota
	hostInfected
	hostImmune
)

// SimulateAgents runs the worm. Patient zero is host N-1: an unprotected
// host or, under full deployment, a consumer compromised before the outbreak
// began. Every step adds Beta·Step contacts per infected host to a running
// total, fractions carried to the next step, and each whole contact draws a
// uniformly random target:
//
//   - a producer: the first such contact is T0, and hooks.Contact hears of
//     every one;
//   - a host already infected or immune: nothing changes;
//   - a consumer: one more draw, which compromises it with chance Rho (the
//     draw is made at Rho = 1 too);
//   - an unprotected host: compromised.
//
// At T0+Gamma the community response lands: every protected host it reached
// (hooks.Respond) is immune from then on, and the worm keeps spreading until
// it owns every unprotected host — at once, under full deployment.
func SimulateAgents(p AgentParams, hooks AgentHooks) (AgentResult, error) {
	producers, protected, err := p.Hosts()
	if err != nil {
		return AgentResult{}, err
	}
	step := p.Step
	if step == 0 {
		// About one contact per infected host per step keeps the
		// discretisation error small.
		step = min(1/p.Beta, 0.05)
		if p.Gamma > 0 {
			step = min(step, p.Gamma/50)
		}
	}
	// The runaway bound. Outside the response window the worm makes at least
	// Beta contacts per unit time, so the bound leaves it 1000·N of them, far
	// beyond the N·(1 + ln N) that reaching a producer and then every
	// unprotected host take in expectation.
	maxSteps := int((p.Gamma + 1000*float64(p.N)/p.Beta) / step)

	res := AgentResult{T0: math.Inf(1)}
	hosts := make([]hostState, p.N)
	unowned := p.N - protected // unprotected hosts the worm has not taken yet
	infect := func(h int) {
		hosts[h] = hostInfected
		res.Series = append(res.Series, res.Steps)
		if h >= protected {
			unowned--
		}
	}
	infect(p.N - 1)

	rng := newStream(p.Seed)
	t0 := -1 // the step of the first producer contact
	contact := func(h int) {
		switch {
		case h < producers:
			if t0 < 0 {
				t0 = res.Steps
				res.InfectedAtT0 = len(res.Series)
			}
			if hooks.Contact != nil {
				hooks.Contact(h)
			}
		case hosts[h] != hostSusceptible:
		case h >= protected || rng.chance() < p.Rho:
			infect(h)
		}
	}
	perStep, attempts := p.Beta*step, 0.0
	tick := func() {
		res.Steps++
		attempts += perStep * float64(len(res.Series))
		for attempts >= 1 {
			attempts--
			res.Attempts++
			contact(rng.intn(p.N))
		}
	}

	for res.Steps < maxSteps && (t0 < 0 || float64(res.Steps-t0)*step < p.Gamma) {
		tick()
	}
	if t0 >= 0 {
		res.T0 = float64(t0) * step
		immune := make([]bool, protected)
		if hooks.Respond == nil {
			for h := range immune {
				immune[h] = true
			}
		} else if err := hooks.Respond(immune); err != nil {
			return AgentResult{}, err
		}
		for h, ok := range immune {
			if ok && hosts[h] == hostSusceptible {
				hosts[h] = hostImmune
			}
		}
		for res.Steps < maxSteps && unowned > 0 {
			tick()
		}
	}
	res.Infected = len(res.Series)
	res.InfectionRatio = float64(res.Infected) / float64(p.N)
	return res, nil
}

// SimulateAgentsMean averages the infection ratio of hook-free runs over
// several seeds (p.Seed, p.Seed+7919, ...).
func SimulateAgentsMean(p AgentParams, runs int) (mean float64, results []AgentResult, err error) {
	runs = max(runs, 1)
	sum := 0.0
	for i := 0; i < runs; i++ {
		q := p
		q.Seed = p.Seed + uint64(i)*7919
		r, err := SimulateAgents(q, AgentHooks{})
		if err != nil {
			return 0, nil, err
		}
		results = append(results, r)
		sum += r.InfectionRatio
	}
	return sum / float64(runs), results, nil
}

// stream is the worm's xorshift64* generator: a run depends on its seed
// alone, never on global randomness.
type stream struct{ s uint64 }

func newStream(seed uint64) *stream {
	return &stream{s: seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019}
}

func (r *stream) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s * 0x2545f4914f6cdd1d
}

func (r *stream) intn(n int) int { return int(r.next() % uint64(n)) }

// chance draws uniformly from [0,1).
func (r *stream) chance() float64 { return float64(r.next()>>11) / (1 << 53) }
