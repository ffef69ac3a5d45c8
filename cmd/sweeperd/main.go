// Command sweeperd is the Sweeper daemon: it protects a fleet of evaluation
// servers — one goroutine per guest around a shared antibody store — and
// serves until SIGINT or SIGTERM. The worm comes from outside. With
// -tcp-listen every guest gets a TCP front end speaking the framed request
// protocol (see internal/netproxy): guest i listens on the base port plus i,
// or on an ephemeral port each when the base port is 0. wormsim -connect
// attacks those sockets. At shutdown the daemon prints its fleet counters,
// durability, client-observed latency, checkpoints, sandboxes, federation,
// and the defence timeline of every attack: detection, each analysis step
// and its result, the antibodies generated (and when), and recovery.
//
// With -listen and -peers, several sweeperd daemons federate their antibody
// stores over HTTP+JSON: each daemon pushes what it publishes, polls what
// pushes missed, and replays a peer's full store on join. Federated daemons
// do not trust each other — every received antibody is re-verified by
// replaying its attached exploit input in a clone sandbox before adoption
// (disable with -verify-adopt=false to see why that would be a bad idea).
// -auth-token sets a community shared secret: served pushes and polls without
// it are rejected, and every outgoing request carries it. GET /v1/antibodies
// on the -listen address serves the store's antibodies as JSON.
//
// A daemon with none of -tcp-listen, -listen and -peers has nothing to serve
// and exits at once.
//
// Examples:
//
//	# terminal 1: three squid guests on 7431-7433
//	sweeperd -app squid -guests 3 -tcp-listen 127.0.0.1:7431
//	# terminal 2: the worm, at guest 0 first, then at its peers
//	wormsim -connect 127.0.0.1:7431,127.0.0.1:7432,127.0.0.1:7433 -app squid
//	# then SIGTERM (or ctrl-c) the daemon for its summary
//
//	# a federated pair: a producer that gets attacked and a consumer that
//	# only ever sees the antibody arrive over the wire
//	sweeperd -app squid -listen 127.0.0.1:7070 -tcp-listen 127.0.0.1:7431
//	sweeperd -app squid -listen 127.0.0.1:7071 -peers 127.0.0.1:7070 -tcp-listen 127.0.0.1:7441
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
		appNames    = flag.String("app", "squid", "comma-separated applications to protect: apache1, apache2, cvs, squid")
		guests      = flag.Int("guests", 3, "number of protected guests per application")
		interval    = flag.Uint64("checkpoint-ms", 200, "checkpoint interval in virtual milliseconds")
		noASLR      = flag.Bool("no-aslr", false, "disable address-space randomisation")
		shadowStack = flag.Bool("shadow-stack", false, "enable the shadow-stack lightweight monitor")
		analyses    = flag.String("analyses", "membug,taint,slicing", "comma-separated analyses to run after detection (registered: membug, taint, slicing)")
		listen      = flag.String("listen", "", "serve the antibody store to federation peers on this address (e.g. 127.0.0.1:7070)")
		peers       = flag.String("peers", "", "comma-separated federation peers to gossip antibodies with (host:port)")
		verifyAdopt = flag.Bool("verify-adopt", false, "replay each received antibody's exploit in a sandbox before adoption (default on when -listen or -peers is set)")
		pollMs      = flag.Int("poll-ms", 25, "federation poll interval in milliseconds")
		authToken   = flag.String("auth-token", "", "federation shared-secret: require it on every served push/poll and attach it to every outgoing request (empty = open federation)")
		tcpListen   = flag.String("tcp-listen", "", "serve framed TCP requests to the guests from this base address (e.g. 127.0.0.1:7400; guest i takes the base port plus i, or an ephemeral port when it is 0)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060) for profiling the live daemon")
		dataDir     = flag.String("data-dir", "", "persist the antibody store (one append-only log, wal.log) and guest checkpoints under this directory; a restarted daemon replays the WAL and warm-restores its guests from it")
	)
	flag.Parse()
	if *tcpListen == "" && *listen == "" && *peers == "" {
		log.Fatalf("sweeperd: nothing to serve: set -tcp-listen, -listen or -peers")
	}
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
	for _, name := range strings.Split(*appNames, ",") {
		if strings.TrimSpace(name) == "" {
			continue
		}
		spec, err := apps.ByName(strings.TrimSpace(name))
		if err != nil {
			log.Fatalf("sweeperd: %v", err)
		}
		for i := 0; i < *guests; i++ {
			cfg := core.DefaultConfig()
			cfg.CheckpointIntervalMs = *interval
			cfg.ASLR = !*noASLR
			// Every guest gets its own randomised layout, like distinct hosts.
			cfg.ASLRSeed = 0x5eed + int64(i)*7919
			cfg.ShadowStack = *shadowStack
			cfg.Analyses = selected
			cfg.VerifyAdoption = verify
			guestName := fmt.Sprintf("%s-%d", spec.Name, i)
			if _, err := fleet.AddGuest(guestName, spec.Name, spec.Image, spec.Options, cfg); err != nil {
				log.Fatalf("sweeperd: %v", err)
			}
			fmt.Printf("sweeperd: protecting %s (%s, %s)\n", guestName, spec.CVE, spec.BugType)
		}
	}
	fmt.Printf("  analyses: %s; checkpoints every %d ms; verify-before-adopt: %v\n",
		strings.Join(selected, ","), *interval, verify)

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

	fmt.Println("serving until interrupted (SIGINT or SIGTERM to stop)...")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("sweeperd: shutting down")
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
		created, reused := s.ClonePoolStats()
		if created+reused == 0 {
			continue
		}
		fmt.Printf("%-12s sandboxes built=%d pooled=%d; deferred backlog=%d dropped=%d\n",
			g.Name(), created, reused, s.DeferredBacklog(), s.DeferredDropped())
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
			fmt.Printf("\n=== attack %d on %s (virtual t=%d ms) ===\n", r.Seq, g.Name(), r.DetectedAtMs)
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
		}
	}
}
