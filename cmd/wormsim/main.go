// Command wormsim attacks Sweeper-protected services. It has two modes.
//
// With -connect, it is a live worm driver over real sockets: it dials the
// framed TCP front ends a sweeperd exposes with -tcp-listen, offers benign
// traffic, fires the application's exploit at each target and reports what
// the defence answered (absorbed, filtered, or — if the daemon were
// unprotected — a dead connection). It exits non-zero with a clear
// diagnostic when a target daemon is unreachable, closes a connection
// mid-attack, or leaves a request unanswered for 10 s.
//
// Without -connect, it runs the Section 6 community-defence models: the
// Susceptible-Infected differential-equation model (equations 1-4) and, with
// -agent, its cross-check: the agent-based worm the live communities of
// Figures 6-8 run, here with no daemons under full deployment, for arbitrary
// worm and deployment parameters.
//
// Examples:
//
//	wormsim -connect 127.0.0.1:7400 -app squid -requests 50 -attack
//	wormsim -connect 127.0.0.1:7400,127.0.0.1:7401 -app squid -attack -variants 3
//
//	wormsim -beta 0.1 -alpha 0.001 -gamma 20              # Slammer-like
//	wormsim -beta 1000 -alpha 0.0001 -gamma 10 -rho 0.000244  # hit-list + ASLR
//	wormsim -beta 1000 -alpha 0.001 -gamma 10 -agent -n 50000 # agent-based
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"sweeper/internal/apps"
	"sweeper/internal/epidemic"
	"sweeper/internal/exploit"
	"sweeper/internal/metrics"
	"sweeper/internal/netproxy"
)

func main() {
	log.SetFlags(0)
	var (
		// Socket-driver mode.
		connect  = flag.String("connect", "", "comma-separated sweeperd TCP front ends to attack (host:port); leave empty for the epidemic models")
		appName  = flag.String("app", "squid", "with -connect: application the targets run (selects benign traffic and the exploit)")
		requests = flag.Int("requests", 20, "with -connect: benign requests per target before and after the attack")
		attack   = flag.Bool("attack", true, "with -connect: fire the exploit at each target between the benign phases")
		variants = flag.Int("variants", 1, "with -connect: polymorphic exploit variants per target")

		// Epidemic-model mode.
		beta   = flag.Float64("beta", 0.1, "contact rate (infection attempts per infected host per second)")
		n      = flag.Float64("n", 100000, "number of vulnerable hosts")
		alpha  = flag.Float64("alpha", 0.001, "producer (full Sweeper deployment) fraction")
		gamma  = flag.Float64("gamma", 5, "community response time in seconds")
		rho    = flag.Float64("rho", 1.0, "per-attempt success probability under proactive protection (2^-12 = 0.000244)")
		agent  = flag.Bool("agent", false, "also run the agent-based simulation")
		runs   = flag.Int("runs", 3, "agent-based runs to average")
		seed   = flag.Uint64("seed", 1, "agent-based contact-stream seed")
		series = flag.Bool("series", false, "print the I(t)/P(t) time series of the ODE model")
	)
	flag.Parse()

	if *connect != "" {
		if err := runSocketWorm(*connect, *appName, *requests, *variants, *attack); err != nil {
			log.Fatalf("wormsim: %v", err)
		}
		return
	}

	params := epidemic.Params{Beta: *beta, N: *n, Alpha: *alpha, Gamma: *gamma, Rho: *rho}
	res, err := epidemic.Simulate(params, *series)
	if err != nil {
		log.Fatalf("wormsim: %v", err)
	}
	fmt.Printf("SI model: beta=%g N=%g alpha=%g gamma=%gs rho=%g\n", *beta, *n, *alpha, *gamma, *rho)
	fmt.Printf("  T0 (first producer contacted) : %.3f s\n", res.T0)
	fmt.Printf("  infected at T0                : %.1f hosts\n", res.InfectedAtT0)
	fmt.Printf("  infected at T0+gamma          : %.1f hosts\n", res.FinalInfected)
	fmt.Printf("  infection ratio               : %.4f (%.2f%%)\n", res.InfectionRatio, res.InfectionRatio*100)
	if res.Saturated {
		fmt.Printf("  NOTE: the worm saturated the susceptible population before the response completed\n")
	}
	if *series {
		fmt.Printf("\n# t  infected  producers-contacted\n")
		step := len(res.Series)/200 + 1
		for i := 0; i < len(res.Series); i += step {
			p := res.Series[i]
			fmt.Printf("%.4f\t%.1f\t%.2f\n", p.Time, p.Infected, p.Producers)
		}
	}

	if *agent {
		mean, results, err := epidemic.SimulateAgentsMean(epidemic.AgentParams{
			N:      int(*n),
			Alpha:  *alpha,
			Deploy: 1,
			Beta:   *beta,
			Gamma:  *gamma,
			Rho:    *rho,
			Seed:   *seed,
		}, *runs)
		if err != nil {
			log.Fatalf("wormsim: agent simulation: %v", err)
		}
		fmt.Printf("\nAgent-based simulation (%d runs):\n", len(results))
		for i, r := range results {
			fmt.Printf("  run %d: T0=%.3fs infected=%d (%.2f%%), %d attempts\n",
				i+1, r.T0, r.Infected, r.InfectionRatio*100, r.Attempts)
		}
		fmt.Printf("  mean infection ratio: %.4f (%.2f%%)\n", mean, mean*100)
	}
}

// runSocketWorm drives each target front end over a real connection: benign
// traffic, the exploit variants, benign traffic again. Any unreachable
// daemon or connection closed mid-attack is a hard error — the caller exits
// non-zero with the diagnostic.
func runSocketWorm(targets, appName string, requests, variants int, attack bool) error {
	spec, err := apps.ByName(appName)
	if err != nil {
		return err
	}
	var addrs []string
	for _, a := range strings.Split(targets, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return fmt.Errorf("-connect lists no targets")
	}

	var failures int
	for _, addr := range addrs {
		if err := attackTarget(addr, spec, requests, variants, attack); err != nil {
			fmt.Fprintf(os.Stderr, "wormsim: target %s: %v\n", addr, err)
			failures++
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d targets failed", failures, len(addrs))
	}
	return nil
}

// roundTripTimeout bounds each request's round trip: a guest that never
// answers fails the target with the client's "did not answer within" error
// instead of hanging the worm. It is far above what a healthy guest takes,
// an absorbed exploit's analyses and recovery included.
const roundTripTimeout = 10 * time.Second

func attackTarget(addr string, spec *apps.Spec, requests, variants int, attack bool) error {
	c, err := netproxy.Dial(addr)
	if err != nil {
		return err // already says "daemon unreachable at ..."
	}
	defer c.Close()
	c.SetTimeout(roundTripTimeout)
	lat := metrics.NewLatencyRecorder()

	benign := func(tag string, seqBase int) error {
		for i := 0; i < requests; i++ {
			start := time.Now()
			status, resp, err := c.Do(exploit.Benign(spec.Name, seqBase+i))
			if err != nil {
				return fmt.Errorf("benign request %d (%s phase): %w", i, tag, err)
			}
			lat.Record(time.Since(start))
			if status != netproxy.StatusOK {
				return fmt.Errorf("benign request %d (%s phase): daemon answered %s", i, tag, netproxy.StatusName(status))
			}
			if len(resp) == 0 {
				return fmt.Errorf("benign request %d (%s phase): empty response", i, tag)
			}
		}
		return nil
	}

	if err := benign("before", 0); err != nil {
		return err
	}
	fmt.Printf("%s: %d benign requests served\n", addr, requests)

	if attack {
		for v := 0; v < variants; v++ {
			payload, err := exploit.ExploitVariant(spec, v)
			if err != nil {
				return fmt.Errorf("building exploit variant %d: %w", v, err)
			}
			status, _, err := c.Do(payload)
			if err != nil {
				// The revealing failure mode of an unprotected daemon: the
				// exploit kills the service and the connection dies with it.
				return fmt.Errorf("exploit variant %d (%d bytes): %w", v, len(payload), err)
			}
			fmt.Printf("%s: exploit variant %d (%d bytes) -> %s\n", addr, v, len(payload), netproxy.StatusName(status))
			switch status {
			case netproxy.StatusAbsorbed, netproxy.StatusFiltered:
				// The defence held: the request was excised during recovery,
				// or an antibody already dropped it at the proxy.
			case netproxy.StatusOK:
				return fmt.Errorf("exploit variant %d was served as a normal request — target is not protected", v)
			default:
				return fmt.Errorf("exploit variant %d: daemon answered %s", v, netproxy.StatusName(status))
			}
		}
	}

	if err := benign("after", requests); err != nil {
		return err
	}
	p50, p95, p99 := lat.Percentiles()
	fmt.Printf("%s: service intact after attack; %d benign responses, client-observed p50=%v p95=%v p99=%v\n",
		addr, lat.Count(), p50.Round(time.Microsecond), p95.Round(time.Microsecond), p99.Round(time.Microsecond))
	return nil
}
