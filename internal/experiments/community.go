package experiments

import (
	"math"

	"sweeper/internal/epidemic"
)

// FigureSeries is one γ-curve of Figures 6-8: infection ratio as a function
// of the deployment (producer) ratio.
type FigureSeries struct {
	Gamma  float64
	Points []epidemic.SweepPoint
}

// communityFigure evaluates the SI model over the figure's grid.
func communityFigure(beta, rho float64, alphas []float64) []FigureSeries {
	var out []FigureSeries
	for _, gamma := range epidemic.StandardGammas() {
		fs := FigureSeries{Gamma: gamma}
		for _, alpha := range alphas {
			fs.Points = append(fs.Points, epidemic.SweepPoint{
				Alpha:          alpha,
				Gamma:          gamma,
				InfectionRatio: epidemic.InfectionRatio(beta, 100000, alpha, gamma, rho),
			})
		}
		out = append(out, fs)
	}
	return out
}

// Figure6 reproduces Figure 6: Sweeper community defence against Slammer
// (β = 0.1, N = 100000, no proactive protection).
func Figure6() []FigureSeries {
	return communityFigure(0.1, 1.0, epidemic.Figure6Alphas())
}

// Figure7 reproduces Figure 7: hit-list worm with β = 1000 and proactive
// protection ρ = 2^-12.
func Figure7() []FigureSeries {
	return communityFigure(1000, epidemic.DefaultRho, epidemic.Figure78Alphas())
}

// Figure8 reproduces Figure 8: hit-list worm with β = 4000 and proactive
// protection ρ = 2^-12.
func Figure8() []FigureSeries {
	return communityFigure(4000, epidemic.DefaultRho, epidemic.Figure78Alphas())
}

// ProactiveAblation compares the hit-list outcome with and without proactive
// probabilistic protection (ρ = 2^-12 vs ρ = 1), quantifying the paper's
// claim that the reactive antibody pipeline alone cannot stop a hit-list worm
// but the combination can.
type ProactiveAblationRow struct {
	Beta             float64
	Gamma            float64
	Alpha            float64
	WithProactive    float64
	WithoutProactive float64
}

// ProactiveAblation evaluates the ablation over a small grid.
func ProactiveAblation(beta float64) []ProactiveAblationRow {
	var rows []ProactiveAblationRow
	for _, gamma := range []float64{5, 10, 30} {
		for _, alpha := range []float64{0.01, 0.001, 0.0001} {
			rows = append(rows, ProactiveAblationRow{
				Beta:             beta,
				Gamma:            gamma,
				Alpha:            alpha,
				WithProactive:    epidemic.InfectionRatio(beta, 100000, alpha, gamma, epidemic.DefaultRho),
				WithoutProactive: epidemic.InfectionRatio(beta, 100000, alpha, gamma, 1.0),
			})
		}
	}
	return rows
}

// ResponseTimeAblation quantifies the cost of waiting for better antibodies:
// distributing the initial VSEF immediately (small γ) versus waiting for the
// refined VSEF (γ grows by the memory-bug analysis time), the trade-off the
// paper discusses under Table 3.
type ResponseTimeAblationRow struct {
	Beta         float64
	Alpha        float64
	GammaInitial float64
	GammaRefined float64
	RatioInitial float64
	RatioRefined float64
}

// ResponseTimeAblation compares infection ratios for the two dissemination
// policies. extraSeconds is the additional analysis time before the refined
// antibody exists (the paper measured about 14 s for Apache and 30 s for the
// Squid memory-bug step).
func ResponseTimeAblation(beta float64, extraSeconds float64) []ResponseTimeAblationRow {
	var rows []ResponseTimeAblationRow
	for _, alpha := range []float64{0.01, 0.001, 0.0001} {
		gi, gr := 5.0, 5.0+extraSeconds
		rows = append(rows, ResponseTimeAblationRow{
			Beta:         beta,
			Alpha:        alpha,
			GammaInitial: gi,
			GammaRefined: gr,
			RatioInitial: epidemic.InfectionRatio(beta, 100000, alpha, gi, epidemic.DefaultRho),
			RatioRefined: epidemic.InfectionRatio(beta, 100000, alpha, gr, epidemic.DefaultRho),
		})
	}
	return rows
}

// AgentCrossCheckRow compares the ODE model against the agent-based
// simulation for one configuration.
type AgentCrossCheckRow struct {
	Beta       float64
	Alpha      float64
	Gamma      float64
	Rho        float64
	ModelRatio float64
	AgentRatio float64
}

// AgentCrossCheck validates the differential-equation model against the
// agent-based simulator, run on its own under full deployment, on a few
// representative configurations.
func AgentCrossCheck(n int, runs int) ([]AgentCrossCheckRow, error) {
	if n <= 0 {
		n = 20000
	}
	configs := []struct {
		beta, alpha, gamma, rho float64
	}{
		{0.1, 0.01, 20, 1.0},
		{0.1, 0.001, 10, 1.0},
		{1000, 0.001, 10, epidemic.DefaultRho},
		{1000, 0.0001, 30, epidemic.DefaultRho},
	}
	var rows []AgentCrossCheckRow
	for _, c := range configs {
		model := epidemic.InfectionRatio(c.beta, float64(n), c.alpha, c.gamma, c.rho)
		agent, _, err := epidemic.SimulateAgentsMean(epidemic.AgentParams{
			N:      n,
			Alpha:  c.alpha,
			Deploy: 1,
			Beta:   c.beta,
			Gamma:  c.gamma,
			Rho:    c.rho,
			Seed:   1,
		}, runs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AgentCrossCheckRow{
			Beta:       c.beta,
			Alpha:      c.alpha,
			Gamma:      c.gamma,
			Rho:        c.rho,
			ModelRatio: model,
			AgentRatio: agent,
		})
	}
	return rows, nil
}

// AbstractContainmentClaim evaluates the abstract's headline claim: "for a
// hit-list worm otherwise capable of infecting all vulnerable hosts in under
// a second, Sweeper contains the extent of infection to under 5%". It returns
// the infection ratio of an unimpeded hit-list worm after one second and the
// contained ratio under Sweeper with proactive protection and a 5-second
// response time.
func AbstractContainmentClaim() (unimpededAfter1s, containedRatio float64) {
	// Unimpeded spread follows the closed-form logistic solution of the SI
	// model: I(t) = N·I0·e^{βt} / (N + I0·(e^{βt}-1)).
	const beta, n, i0, t = 1000.0, 100000.0, 1.0, 1.0
	unimpededAfter1s = 1.0 / (1.0 + (n/i0-1.0)*math.Exp(-beta*t))
	containedRatio = epidemic.InfectionRatio(1000, 100000, 0.001, 5, epidemic.DefaultRho)
	return unimpededAfter1s, containedRatio
}
