package epidemic

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestValidate(t *testing.T) {
	good := Params{Beta: 0.1, N: 1000, Alpha: 0.01, Gamma: 5, Rho: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("good params rejected: %v", err)
	}
	bad := []Params{
		{Beta: 0, N: 1000, Alpha: 0.01, Gamma: 5, Rho: 1},
		{Beta: 1, N: 0, Alpha: 0.01, Gamma: 5, Rho: 1},
		{Beta: 1, N: 1000, Alpha: 2, Gamma: 5, Rho: 1},
		{Beta: 1, N: 1000, Alpha: 0.1, Gamma: -1, Rho: 1},
		{Beta: 1, N: 1000, Alpha: 0.1, Gamma: 5, Rho: 7},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
		if _, err := Simulate(p, false); err == nil {
			t.Errorf("Simulate accepted bad params %d", i)
		}
	}
}

func TestSlammerReferencePoints(t *testing.T) {
	// Paper: alpha=0.0001, gamma=5s -> about 15% infected.
	r := InfectionRatio(0.1, 100000, 0.0001, 5, 1.0)
	if r < 0.10 || r > 0.25 {
		t.Errorf("Slammer alpha=1e-4 gamma=5: ratio %.3f outside [0.10,0.25]", r)
	}
	// Paper: alpha=0.001, gamma=20s -> about 5% infected.
	r = InfectionRatio(0.1, 100000, 0.001, 20, 1.0)
	if r < 0.02 || r > 0.12 {
		t.Errorf("Slammer alpha=1e-3 gamma=20: ratio %.3f outside [0.02,0.12]", r)
	}
	// Slow response times lose most of the population.
	r = InfectionRatio(0.1, 100000, 0.001, 100, 1.0)
	if r < 0.9 {
		t.Errorf("gamma=100 should approach saturation, got %.3f", r)
	}
}

func TestHitListReferencePoints(t *testing.T) {
	// With proactive protection and a 5 s response, infection is negligible
	// for both hit-list speeds (the paper's "<1%" claim).
	for _, beta := range []float64{1000, 4000} {
		r := InfectionRatio(beta, 100000, 0.0001, 5, DefaultRho)
		if r >= 0.01 {
			t.Errorf("beta=%v gamma=5: ratio %.4f, want < 1%%", beta, r)
		}
	}
	// Large gammas lose the population (the figures' γ=50/γ=100 curves).
	r := InfectionRatio(1000, 100000, 0.0001, 100, DefaultRho)
	if r < 0.5 {
		t.Errorf("beta=1000 gamma=100: ratio %.3f, expected large-scale infection", r)
	}
	// Without proactive protection the hit-list worm wins even with a fast
	// response (the argument for combining reactive and proactive defence).
	r = InfectionRatio(1000, 100000, 0.001, 5, 1.0)
	if r < 0.9 {
		t.Errorf("unprotected hit-list with gamma=5: ratio %.3f, expected saturation", r)
	}
}

func TestMonotonicityInGammaAndAlpha(t *testing.T) {
	// Infection ratio grows with the response time and shrinks with the
	// producer fraction.
	prev := 0.0
	for _, gamma := range []float64{5, 10, 20, 30, 50} {
		r := InfectionRatio(0.1, 100000, 0.001, gamma, 1.0)
		if r+1e-9 < prev {
			t.Errorf("ratio decreased when gamma grew: %.4f -> %.4f", prev, r)
		}
		prev = r
	}
	prevA := 1.1
	for _, alpha := range []float64{0.0001, 0.001, 0.01, 0.1} {
		r := InfectionRatio(0.1, 100000, alpha, 20, 1.0)
		if r > prevA+1e-9 {
			t.Errorf("ratio increased when alpha grew: %.4f -> %.4f", prevA, r)
		}
		prevA = r
	}
}

func TestSimulateDetails(t *testing.T) {
	res, err := Simulate(SlammerParams(0.001, 10), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.T0 <= 0 || math.IsInf(res.T0, 1) {
		t.Errorf("T0 = %v", res.T0)
	}
	if res.InfectedAtT0 < 1 {
		t.Errorf("I(T0) = %v", res.InfectedAtT0)
	}
	if res.FinalInfected < res.InfectedAtT0 {
		t.Error("infection cannot shrink during the response window")
	}
	if len(res.Series) == 0 {
		t.Error("series not recorded")
	}
	for i := 1; i < len(res.Series); i++ {
		if res.Series[i].Infected+1e-9 < res.Series[i-1].Infected {
			t.Fatal("I(t) must be non-decreasing")
		}
		if res.Series[i].Time <= res.Series[i-1].Time {
			t.Fatal("time must advance")
		}
	}
}

func TestNoProducersMeansTotalInfection(t *testing.T) {
	res, err := Simulate(Params{Beta: 1000, N: 100000, Alpha: 0, Gamma: 5, Rho: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated || res.InfectionRatio < 0.999 {
		t.Errorf("no producers should mean total infection, got %.3f", res.InfectionRatio)
	}
}

func TestHelperConstructors(t *testing.T) {
	s := SlammerParams(0.01, 5)
	if s.Beta != 0.1 || s.N != 100000 || s.Rho != 1 {
		t.Errorf("SlammerParams = %+v", s)
	}
	h := HitListParams(4000, 0.001, 10)
	if h.Beta != 4000 || h.Rho != DefaultRho {
		t.Errorf("HitListParams = %+v", h)
	}
	if len(Figure6Alphas()) != 5 || len(Figure78Alphas()) != 5 || len(StandardGammas()) != 6 {
		t.Error("figure axis helpers wrong")
	}
}

// TestQuickInfectionRatioBounds: for any parameters in range, the infection
// ratio is within [0, 1] and bounded by the non-producer fraction.
func TestQuickInfectionRatioBounds(t *testing.T) {
	prop := func(betaRaw, alphaRaw, gammaRaw, rhoRaw uint16) bool {
		beta := 0.05 + float64(betaRaw%4000)
		alpha := float64(alphaRaw%1000) / 1000.0
		gamma := float64(gammaRaw % 60)
		rho := (float64(rhoRaw%1000) + 1) / 1000.0
		r := InfectionRatio(beta, 50000, alpha, gamma, rho)
		if math.IsNaN(r) {
			return false
		}
		return r >= 0 && r <= 1.0001 && r <= (1-alpha)+0.01
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// --- agent-based simulator ---

func TestAgentSimulationBasics(t *testing.T) {
	res, err := SimulateAgents(AgentParams{N: 5000, Alpha: 0.01, Deploy: 1, Beta: 1.0, Gamma: 5, Rho: 1, Seed: 1}, AgentHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Infected < 1 || res.InfectionRatio <= 0 || res.InfectionRatio > 1 {
		t.Errorf("result %+v", res)
	}
	if res.Attempts == 0 {
		t.Error("no infection attempts recorded")
	}
	if len(res.Series) != res.Infected || !sort.IntsAreSorted(res.Series) {
		t.Errorf("series of %d infections, not in step order, for %d infected", len(res.Series), res.Infected)
	}
}

// TestAgentRejectsBadParams: every out-of-range input is an error, returned
// at once — a community with no consumer used to hang the simulator looking
// for a patient zero.
func TestAgentRejectsBadParams(t *testing.T) {
	good := AgentParams{N: 100, Alpha: 0.05, Deploy: 1, Beta: 0.1, Gamma: 8, Rho: 1, Step: 1, Seed: 1}
	if _, err := SimulateAgents(good, AgentHooks{}); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	for name, bad := range map[string]func(p *AgentParams){
		"every host a producer": func(p *AgentParams) { p.N, p.Alpha, p.Beta = 10, 1, 1 },
		"no consumer deployed":  func(p *AgentParams) { p.Deploy = p.Alpha },
		"two hosts":             func(p *AgentParams) { p.N = 2 },
		"alpha above 1":         func(p *AgentParams) { p.Alpha = 1.5 },
		"negative alpha":        func(p *AgentParams) { p.Alpha = -0.1 },
		"no deployment":         func(p *AgentParams) { p.Deploy = 0 },
		"deploy above 1":        func(p *AgentParams) { p.Deploy = 2 },
		"zero beta":             func(p *AgentParams) { p.Beta = 0 },
		"NaN beta":              func(p *AgentParams) { p.Beta = math.NaN() },
		"infinite beta":         func(p *AgentParams) { p.Beta = math.Inf(1) },
		"negative gamma":        func(p *AgentParams) { p.Gamma = -1 },
		"infinite gamma":        func(p *AgentParams) { p.Gamma = math.Inf(1) },
		"negative step":         func(p *AgentParams) { p.Step = -1 },
		"rho above 1":           func(p *AgentParams) { p.Rho = 1.5 },
		"negative rho":          func(p *AgentParams) { p.Rho = -0.5 },
	} {
		t.Run(name, func(t *testing.T) {
			p := good
			bad(&p)
			done := make(chan error, 1)
			go func() {
				_, err := SimulateAgents(p, AgentHooks{})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Errorf("%+v accepted", p)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%+v: no answer after 5 s", p)
			}
		})
	}
}

// TestRhoZeroNeverInfects: rho = 0 is perfect proactive protection, not a
// default. No attempt succeeds against a protected host, so the model keeps
// I0 and the agent keeps patient zero plus the unprotected hosts it owns.
func TestRhoZeroNeverInfects(t *testing.T) {
	// Producers reached, producers never reached (one, contacted at an ever
	// slower rate), no producers at all.
	for _, alpha := range []float64{0.01, 0.001, 0} {
		if r := InfectionRatio(0.1, 1000, alpha, 20, 0); math.Abs(r-1.0/1000) > 1e-12 {
			t.Errorf("model at rho=0, alpha=%g: ratio %g, want I0/N = 0.001", alpha, r)
		}
	}
	for _, deploy := range []float64{1, 0.5} {
		p := AgentParams{N: 1000, Alpha: 0.01, Deploy: deploy, Beta: 1, Gamma: 20, Rho: 0, Seed: 1}
		res, err := SimulateAgents(p, AgentHooks{})
		if err != nil {
			t.Fatal(err)
		}
		_, protected, _ := p.Hosts()
		if want := max(p.N-protected, 1); res.Infected != want {
			t.Errorf("agent at rho=0, deploy=%g: %d infected, want %d", deploy, res.Infected, want)
		}
	}
}

// TestAgentHooks: the contact hook hears every producer contact, the response
// runs once at T0+Gamma, and a protected host it leaves unreached stays
// exposed — here every consumer, so the run matches one whose response
// reached nobody.
func TestAgentHooks(t *testing.T) {
	p := AgentParams{N: 200, Alpha: 0.05, Deploy: 1, Beta: 0.1, Gamma: 8, Rho: 1, Step: 1, Seed: 3}
	contacts, responses := 0, 0
	res, err := SimulateAgents(p, AgentHooks{
		Contact: func(producer int) {
			if producer >= 10 {
				t.Errorf("contact hook called for host %d, not a producer", producer)
			}
			contacts++
		},
		Respond: func(immune []bool) error {
			responses++
			if len(immune) != p.N {
				t.Errorf("response sees %d protected hosts, want %d", len(immune), p.N)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if responses != 1 || contacts == 0 {
		t.Fatalf("%d responses, %d producer contacts", responses, contacts)
	}
	if want := int(res.T0 + p.Gamma); res.Steps != want {
		t.Errorf("run ended at step %d, want T0+Gamma = %d under full deployment", res.Steps, want)
	}
	free, err := SimulateAgents(p, AgentHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, free) {
		t.Errorf("hooks changed the contact stream:\n%+v\n%+v", res, free)
	}
	failed := errors.New("link failed")
	if _, err := SimulateAgents(p, AgentHooks{Respond: func([]bool) error { return failed }}); !errors.Is(err, failed) {
		t.Errorf("response error %v, want %v", err, failed)
	}
}

func TestAgentSimulationDeterministicPerSeed(t *testing.T) {
	p := AgentParams{N: 3000, Alpha: 0.01, Deploy: 1, Beta: 2, Gamma: 3, Rho: 1, Seed: 42}
	a, _ := SimulateAgents(p, AgentHooks{})
	b, _ := SimulateAgents(p, AgentHooks{})
	if a.Infected != b.Infected || a.T0 != b.T0 {
		t.Error("same seed should reproduce the same outcome")
	}
}

func TestAgentMatchesModelWithinTolerance(t *testing.T) {
	// One Slammer-like configuration: the agent simulation should land in the
	// same ballpark as the ODE model (factor-of-two band).
	model := InfectionRatio(0.1, 20000, 0.01, 20, 1.0)
	agent, _, err := SimulateAgentsMean(AgentParams{N: 20000, Alpha: 0.01, Deploy: 1, Beta: 0.1, Gamma: 20, Rho: 1, Seed: 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The agent simulation is stochastic and discretised; a factor-of-four
	// band around the deterministic model is the sanity bar here.
	lo, hi := model/4, model*4
	if agent < lo || agent > hi {
		t.Errorf("agent ratio %.4f outside [%.4f, %.4f] around model %.4f", agent, lo, hi, model)
	}
}

func TestAgentProactiveProtectionSlowsWorm(t *testing.T) {
	base := AgentParams{N: 10000, Alpha: 0.001, Deploy: 1, Beta: 1000, Gamma: 5, Seed: 9}
	unprotected := base
	unprotected.Rho = 1
	protected := base
	protected.Rho = DefaultRho
	u, _ := SimulateAgents(unprotected, AgentHooks{})
	p, _ := SimulateAgents(protected, AgentHooks{})
	if p.InfectionRatio >= u.InfectionRatio {
		t.Errorf("proactive protection should reduce infection: %.4f vs %.4f", p.InfectionRatio, u.InfectionRatio)
	}
	if u.InfectionRatio < 0.5 {
		t.Errorf("unprotected hit-list should saturate, got %.4f", u.InfectionRatio)
	}
	if p.InfectionRatio > 0.1 {
		t.Errorf("protected hit-list should be contained, got %.4f", p.InfectionRatio)
	}
}
