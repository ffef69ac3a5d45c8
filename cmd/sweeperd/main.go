// Command sweeperd runs a fleet of evaluation servers under Sweeper
// protection — one goroutine per guest around a shared antibody store —
// drives a benign workload around a live exploit aimed at one guest, and
// prints the complete defence timeline: detection, each analysis step and its
// result, the antibodies generated (and when), recovery, and how the shared
// antibodies inoculate the rest of the fleet against the same worm.
//
// With -listen and -peers, several sweeperd daemons federate their antibody
// stores over HTTP+JSON: each daemon pushes what it publishes, polls what
// pushes missed, and replays a peer's full store on join. Federated daemons
// do not trust each other — every received antibody is re-verified by
// replaying its attached exploit input in a clone sandbox before adoption
// (disable with -verify-adopt=false to see why that would be a bad idea).
// -auth-token sets a community shared secret: served pushes and polls without
// it are rejected, and every outgoing request carries it.
//
// Examples:
//
//	sweeperd -app squid -guests 4
//	sweeperd -app apache1,cvs -benign 50 -variants 2
//	sweeperd -app cvs -no-aslr -shadow-stack
//	sweeperd -app squid -sequential
//
//	# a federated pair: a producer that gets attacked and a consumer that
//	# only ever sees the antibody arrive over the wire
//	sweeperd -app squid -listen 127.0.0.1:7070 -linger 3s
//	sweeperd -app squid -listen 127.0.0.1:7071 -peers 127.0.0.1:7070 -variants 0 -linger 3s
//
// With -tcp-listen, every guest gets a real TCP front end serving the framed
// request protocol (see internal/netproxy): connections are accepted, each
// length-prefixed request flows through the guest's filtering proxy, and the
// response (the guest's output, or the absorbed/filtered verdict) is written
// back on the same connection. Guest i listens on the base port plus i (on an
// ephemeral port each when the base port is 0); client-observed latency
// percentiles are printed at shutdown. The daemon keeps serving until
// interrupted. Drive it with wormsim -connect:
//
//	sweeperd -app squid -guests 2 -benign 0 -variants 0 -tcp-listen 127.0.0.1:7400
//	wormsim -connect 127.0.0.1:7400 -app squid -requests 50 -attack
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof: profiling handlers on the default mux
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sweeper/internal/apps"
	"sweeper/internal/core"
	"sweeper/internal/exploit"
	"sweeper/internal/federate"
	"sweeper/internal/metrics"
)

// flagWasSet reports whether the named flag was given explicitly on the
// command line (as opposed to holding its default value).
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func main() {
	log.SetFlags(0)
	var (
		appNames     = flag.String("app", "squid", "comma-separated applications to protect: apache1, apache2, cvs, squid")
		guests       = flag.Int("guests", 3, "number of protected guests per application")
		benign       = flag.Int("benign", 20, "benign requests per guest before and after the attack")
		variants     = flag.Int("variants", 1, "number of polymorphic exploit variants to launch at guest 0")
		interval     = flag.Uint64("checkpoint-ms", 200, "checkpoint interval in virtual milliseconds")
		noASLR       = flag.Bool("no-aslr", false, "disable address-space randomisation")
		shadowStack  = flag.Bool("shadow-stack", false, "enable the shadow-stack lightweight monitor")
		sequential   = flag.Bool("sequential", false, "run the heavyweight analyses sequentially instead of in parallel")
		analyses     = flag.String("analyses", "membug,taint,slicing", "comma-separated analyses to run after detection (registered: membug, taint, slicing)")
		showAntibody = flag.Bool("show-antibody", false, "print each final antibody as JSON")
		listen       = flag.String("listen", "", "serve the antibody store to federation peers on this address (e.g. 127.0.0.1:7070)")
		peers        = flag.String("peers", "", "comma-separated federation peers to gossip antibodies with (host:port)")
		verifyAdopt  = flag.Bool("verify-adopt", false, "replay each received antibody's exploit in a sandbox before adoption (default on when -listen or -peers is set)")
		pollMs       = flag.Int("poll-ms", 25, "federation poll interval in milliseconds")
		authToken    = flag.String("auth-token", "", "federation shared-secret: require it on every served push/poll and attach it to every outgoing request (empty = open federation)")
		linger       = flag.Duration("linger", 0, "keep the daemon alive this long after the scripted workload, serving peers and absorbing gossip")
		tcpListen    = flag.String("tcp-listen", "", "serve framed TCP requests to the guests from this base address (e.g. 127.0.0.1:7400; guest i takes the base port plus i, or an ephemeral port when it is 0); the daemon then runs until interrupted")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060) for profiling the live daemon")
		dataDir      = flag.String("data-dir", "", "persist the antibody store (write-ahead log + snapshot) and guest checkpoints under this directory; a restarted daemon replays the WAL and warm-restores its guests from it")
	)
	flag.Parse()
	if *guests < 1 {
		log.Fatalf("sweeperd: -guests must be at least 1")
	}
	var selected []string
	for _, name := range strings.Split(*analyses, ",") {
		if name = strings.TrimSpace(name); name != "" {
			selected = append(selected, name)
		}
	}
	if selected == nil {
		selected = []string{} // -analyses="" means: no heavyweight analyses
	}
	federated := *listen != "" || *peers != ""
	verify := *verifyAdopt
	if federated && !flagWasSet("verify-adopt") {
		// Untrusting by default across daemon boundaries: a listen-only
		// daemon still accepts pushes from arbitrary peers.
		verify = true
	}

	if *pprofAddr != "" {
		lis, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("sweeperd: -pprof %s: %v", *pprofAddr, err)
		}
		// net/http/pprof registered its handlers on the default mux.
		go http.Serve(lis, nil)
		fmt.Printf("sweeperd: pprof on http://%s/debug/pprof/\n", lis.Addr())
	}

	fleet := core.NewFleetWithOptions(core.FleetOptions{DataDir: *dataDir})
	if *dataDir != "" {
		if d := fleet.Durability(); d.Warnings > 0 {
			fmt.Printf("sweeperd: WARNING: data directory %s unusable (%d warnings); running in-memory\n", *dataDir, d.Warnings)
		} else {
			fmt.Printf("sweeperd: durable state in %s (%d antibodies replayed from disk)\n", *dataDir, fleet.Store().Len())
		}
	}
	var specs []*apps.Spec
	for _, name := range strings.Split(*appNames, ",") {
		if strings.TrimSpace(name) == "" {
			continue
		}
		spec, err := apps.ByName(strings.TrimSpace(name))
		if err != nil {
			log.Fatalf("sweeperd: %v", err)
		}
		specs = append(specs, spec)
		for i := 0; i < *guests; i++ {
			cfg := core.DefaultConfig()
			cfg.CheckpointIntervalMs = *interval
			cfg.ASLR = !*noASLR
			// Every guest gets its own randomised layout, like distinct hosts.
			cfg.ASLRSeed = 0x5eed + int64(i)*7919
			cfg.ShadowStack = *shadowStack
			cfg.ParallelAnalysis = !*sequential
			cfg.Analyses = selected
			cfg.VerifyAdoption = verify
			guestName := fmt.Sprintf("%s-%d", spec.Name, i)
			if _, err := fleet.AddGuest(guestName, spec.Name, spec.Image, spec.Options, cfg); err != nil {
				log.Fatalf("sweeperd: %v", err)
			}
			fmt.Printf("sweeperd: protecting %s (%s, %s)\n", guestName, spec.CVE, spec.BugType)
		}
	}
	engine := "parallel"
	if *sequential {
		engine = "sequential"
	}
	fmt.Printf("  analysis engine: %s; analyses: %s; checkpoints every %d ms; verify-before-adopt: %v\n",
		engine, strings.Join(selected, ","), *interval, verify)

	// Federation: serve our store to peers and gossip with theirs.
	fedRec := metrics.NewFederationRecorder()
	var node *federate.Node
	if *listen != "" {
		lis, err := net.Listen("tcp", *listen)
		if err != nil {
			log.Fatalf("sweeperd: -listen %s: %v", *listen, err)
		}
		fedSrv := federate.NewServer(fleet.Store(), fedRec)
		fedSrv.SetAuthToken(*authToken)
		srv := &http.Server{Handler: fedSrv}
		go srv.Serve(lis)
		defer srv.Close()
		auth := "open"
		if *authToken != "" {
			auth = "token required"
		}
		fmt.Printf("  federation: serving antibodies on %s (%s)\n", lis.Addr(), auth)
	}
	if *peers != "" {
		node = federate.NewNode(fleet.Store(), fedRec, federate.Config{
			Name:         "sweeperd@" + *listen,
			PollInterval: time.Duration(*pollMs) * time.Millisecond,
			AuthToken:    *authToken,
		})
		defer node.Close()
		for _, addr := range strings.Split(*peers, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			if err := node.AddPeer(addr); err != nil {
				log.Fatalf("sweeperd: %v", err)
			}
			fmt.Printf("  federation: peered with %s\n", addr)
		}
	}
	exploits := make(map[string][]byte)
	for _, spec := range specs {
		payload0, err := exploit.ExploitVariant(spec, 0)
		if err != nil {
			log.Fatalf("sweeperd: building exploit: %v", err)
		}
		exploits[spec.Name] = payload0
	}
	// TCP front ends: one listener per guest, attached before the serving
	// goroutines launch.
	if *tcpListen != "" {
		host, portStr, err := net.SplitHostPort(*tcpListen)
		if err != nil {
			log.Fatalf("sweeperd: -tcp-listen %s: %v", *tcpListen, err)
		}
		basePort, err := strconv.Atoi(portStr)
		if err != nil {
			log.Fatalf("sweeperd: -tcp-listen %s: bad port: %v", *tcpListen, err)
		}
		for i, g := range fleet.Guests() {
			port := basePort
			if basePort != 0 {
				port = basePort + i
			}
			if err := g.AttachListener(net.JoinHostPort(host, strconv.Itoa(port))); err != nil {
				log.Fatalf("sweeperd: %v", err)
			}
			fmt.Printf("  tcp front end: %s on %s\n", g.Name(), g.ListenAddr())
		}
	}
	fmt.Println()
	fleet.Start()

	// Benign traffic to every guest, the worm's exploit variants at guest 0
	// of each application, then more benign traffic.
	for _, spec := range specs {
		payload0 := exploits[spec.Name]
		for i := 0; i < *guests; i++ {
			guestName := fmt.Sprintf("%s-%d", spec.Name, i)
			for r := 0; r < *benign; r++ {
				fleet.Submit(guestName, exploit.Benign(spec.Name, r), "client", false)
			}
		}
		for v := 0; v < *variants; v++ {
			payload := payload0
			if v > 0 {
				var err error
				payload, err = exploit.ExploitVariant(spec, v)
				if err != nil {
					log.Fatalf("sweeperd: building exploit: %v", err)
				}
			}
			accepted := fleet.Submit(spec.Name+"-0", payload, "worm", true)
			fmt.Printf("worm: exploit variant %d submitted to %s-0 (%d bytes), accepted by proxy: %v\n",
				v, spec.Name, len(payload), accepted)
		}
		for i := 0; i < *guests; i++ {
			guestName := fmt.Sprintf("%s-%d", spec.Name, i)
			for r := 0; r < *benign; r++ {
				fleet.Submit(guestName, exploit.Benign(spec.Name, 1000+r), "client", false)
			}
		}
	}
	fleet.Drain()

	// Linger: keep serving federation peers and absorbing their gossip (a
	// consumer daemon receives, verifies and adopts antibodies during this
	// window; a producer keeps answering pulls).
	if *linger > 0 {
		fmt.Printf("\nlingering %v for federation traffic...\n", *linger)
		lingerUntil := time.Now().Add(*linger)
		for time.Now().Before(lingerUntil) {
			time.Sleep(50 * time.Millisecond)
			fleet.Drain() // let guests verify/adopt whatever just arrived
		}
	}

	// With TCP front ends attached, the daemon's real work happens now: keep
	// serving socket traffic until interrupted.
	if *tcpListen != "" {
		fmt.Println("\nserving TCP requests until interrupted (ctrl-c to stop)...")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("sweeperd: shutting down")
	}

	// The worm now tries every guest in the fleet: the antibodies generated
	// at guest 0 — or, with -variants 0 in a federated consumer, received
	// from peers and verified — have been distributed through the shared
	// store, so the exact-match input signature drops the exploit at every
	// proxy.
	fmt.Println()
	for _, spec := range specs {
		if *variants <= 0 && !federated {
			continue // no exploit was ever launched and none could arrive
		}
		payload := exploits[spec.Name]
		for i := 0; i < *guests; i++ {
			guestName := fmt.Sprintf("%s-%d", spec.Name, i)
			accepted := fleet.Submit(guestName, payload, "worm", true)
			fmt.Printf("worm: replayed exploit against %s: accepted=%v (inoculated=%v)\n",
				guestName, accepted, !accepted)
		}
	}
	fleet.Stop()

	fmt.Printf("\n=== fleet metrics ===\n")
	for _, g := range fleet.Guests() {
		st := g.Stats()
		fmt.Printf("%-12s served=%-4d attacks=%d recovered=%d generated=%d adopted=%d verified=%d provisional=%d rejected=%d filtered=%d halted=%v\n",
			st.Guest, st.RequestsServed, st.AttacksHandled, st.Recovered,
			st.AntibodiesGenerated, st.AntibodiesAdopted, st.AntibodiesVerified,
			st.ProvisionalInstalls, st.AntibodiesRejected, st.FilteredInputs, st.Halted)
	}
	fmt.Printf("shared store: %d antibodies\n", fleet.Store().Len())
	if *dataDir != "" {
		d := fleet.Durability()
		fmt.Printf("durability  : warm-restarts=%d cold-fallbacks=%d warnings=%d; store flushed and fsynced to %s\n",
			d.WarmRestarts, d.ColdFallbacks, d.Warnings, *dataDir)
	}
	for _, g := range fleet.Guests() {
		lat := g.FrontLatency()
		if lat == nil || lat.Count() == 0 {
			continue
		}
		p50, p95, p99 := lat.Percentiles()
		fmt.Printf("%-12s tcp front end: %d responses, client-observed p50=%v p95=%v p99=%v\n",
			g.Name(), lat.Count(), p50.Round(time.Microsecond), p95.Round(time.Microsecond), p99.Round(time.Microsecond))
	}
	for _, g := range fleet.Guests() {
		ck := g.Sweeper().Checkpoints()
		captured, full := ck.ByteStats()
		if ck.Taken() == 0 {
			continue
		}
		fmt.Printf("%-12s checkpoints: %d taken, %d KiB captured as dirty runs/pages (full-page scans would have copied %d KiB)\n",
			g.Name(), ck.Taken(), captured/1024, full/1024)
	}
	for _, g := range fleet.Guests() {
		s := g.Sweeper()
		lats := s.AnalyzerLatencies()
		if len(lats) == 0 {
			continue
		}
		created, reused := s.ClonePoolStats()
		fmt.Printf("%-12s analyzer latency:", g.Name())
		for _, l := range lats {
			fmt.Printf(" %s mean=%v max=%v (%d runs)", l.Name, l.Mean().Round(10_000), l.Max.Round(10_000), l.Runs)
		}
		fmt.Printf("; sandboxes built=%d pooled=%d; deferred backlog=%d dropped=%d\n",
			created, reused, s.DeferredBacklog(), s.DeferredDropped())
	}
	if federated {
		fs := fedRec.Snapshot()
		fmt.Printf("federation  : peers=%d pushed=%d received=%d duplicates=%d polls=%d push-errors=%d\n",
			fs.Peers, fs.Pushed, fs.Received, fs.Duplicates, fs.Polls, fs.PushErrors)
	}

	for _, g := range fleet.Guests() {
		s := g.Sweeper()
		for _, r := range s.Attacks() {
			// Deferred analyses (the slicing cross-check) complete after a
			// guest resumes service; join before printing their results.
			r.Wait()
			fmt.Printf("\n=== attack %d on %s (virtual t=%d ms, %s engine) ===\n",
				r.Seq, g.Name(), r.DetectedAtMs, map[bool]string{true: "parallel", false: "sequential"}[r.Parallel])
			fmt.Printf("detected : %s\n", r.Detection.Reason)
			fmt.Printf("#1 memory state  (%v): %s\n", r.Steps[0].Duration.Round(10_000), r.CoreDump.Summary())
			if r.InitialAntibody != nil && len(r.InitialAntibody.VSEFs) > 0 {
				fmt.Printf("   initial VSEF after %v: %s\n", r.TimeToFirstVSEF.Round(10_000), r.InitialAntibody.VSEFs[0])
			}
			if len(r.MemBugFindings) > 0 {
				fmt.Printf("#2 memory bug    : %s\n", r.MemBugFindings[0].Summary())
			} else {
				fmt.Printf("#2 memory bug    : no memory bug detected\n")
			}
			if r.RefinedAntibody != nil {
				fmt.Printf("   refined VSEF after %v: %s\n", r.TimeToBestVSEF.Round(10_000), r.RefinedAntibody.VSEFs[len(r.RefinedAntibody.VSEFs)-1])
			}
			if r.CulpritRequestID >= 0 {
				method := "taint analysis"
				if r.IsolationUsed {
					method = "request isolation"
				}
				fmt.Printf("#3 input/taint   : exploit input = request %d (%d bytes) via %s\n",
					r.CulpritRequestID, len(r.CulpritPayload), method)
			} else {
				fmt.Printf("#3 input/taint   : exploit input not identified\n")
			}
			switch {
			case r.SliceTruncated:
				fmt.Printf("#4 slicing       : %s\n", r.ErrorFor("slicing"))
			case r.FindingFor("slicing") != nil:
				fmt.Printf("#4 slicing       : %d dynamic instructions, consistent=%v\n", r.SliceNodes, r.SliceConsistent)
			case r.ErrorFor("slicing") != "":
				fmt.Printf("#4 slicing       : FAILED: %s\n", r.ErrorFor("slicing"))
			default:
				fmt.Printf("#4 slicing       : not run (see -analyses)\n")
			}
			fmt.Printf("analysis times   : first VSEF %v, best VSEF %v, initial %v, total %v\n",
				r.TimeToFirstVSEF.Round(10_000), r.TimeToBestVSEF.Round(10_000),
				r.InitialAnalysisTime.Round(10_000), r.TotalAnalysisTime.Round(10_000))
			fmt.Printf("recovery         : ok=%v in %v wall / %d ms virtual (diverged=%v)\n",
				r.Recovered, r.RecoveryTime.Round(10_000), r.RecoveryVirtualMs, r.RecoveryDiverged)
			if *showAntibody && r.FinalAntibody != nil {
				if data, err := r.FinalAntibody.Marshal(); err == nil {
					fmt.Printf("final antibody   : %s\n", data)
				}
			}
		}
	}
}
