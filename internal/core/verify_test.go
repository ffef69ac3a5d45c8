package core

import (
	"testing"
	"time"

	"sweeper/internal/analysis/membug"
	"sweeper/internal/analysis/taint"
	"sweeper/internal/antibody"
	"sweeper/internal/apps"
	"sweeper/internal/exploit"
	"sweeper/internal/federate"
	"sweeper/internal/metrics"
)

// genuineFinalAntibody runs the full defence for an app on a standalone
// Sweeper and returns the final antibody (VSEFs + input signature + exploit
// input) it generated — the genuine article that verification tests mutate.
func genuineFinalAntibody(t *testing.T, appName string) *antibody.Antibody {
	t.Helper()
	s, spec := newSweeperFor(t, appName, func(c *Config) { c.InstanceID = "producer" })
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}
	submitBenign(s, appName, 0, 4)
	s.Submit(payload, "worm", true)
	if _, err := s.ServeAll(); err != nil {
		t.Fatal(err)
	}
	if len(s.Attacks()) != 1 || s.Attacks()[0].FinalAntibody == nil {
		t.Fatalf("producer did not generate a final antibody")
	}
	final := s.Attacks()[0].FinalAntibody
	if len(final.ExploitInput) == 0 || len(final.Sigs) == 0 {
		t.Fatalf("final antibody lacks exploit input or signatures: %s", final)
	}
	return final
}

// newVerifyingConsumer builds a one-guest fleet whose guest re-verifies every
// received antibody before adoption, running under a layout different from
// the producer's (distinct ASLR seed), like a distinct federated host.
func newVerifyingConsumer(t *testing.T, appName, guestName string, seed int64, mutate ...func(*Config)) *Fleet {
	t.Helper()
	spec, err := apps.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleetWithOptions(FleetOptions{})
	cfg := DefaultConfig()
	cfg.ASLRSeed = seed
	cfg.VerifyAdoption = true
	for _, m := range mutate {
		if m != nil {
			m(&cfg)
		}
	}
	if _, err := f.AddGuest(guestName, spec.Name, spec.Image, spec.Options, cfg); err != nil {
		t.Fatal(err)
	}
	f.Start()
	f.Submit(guestName, exploit.Benign(appName, 0), "client", false)
	f.Drain()
	return f
}

// TestVerifyBeforeAdoptAcceptsGenuineAntibody is the positive path: a guest
// that was never attacked replays the peer-generated exploit in a sandbox,
// sees the violation reproduce, and only then adopts — ending up inoculated.
func TestVerifyBeforeAdoptAcceptsGenuineAntibody(t *testing.T) {
	final := genuineFinalAntibody(t, "squid")
	f := newVerifyingConsumer(t, "squid", "squid-consumer", 314159)

	// An untrusted publisher (e.g. the federation layer) drops the genuine
	// antibody straight into the store.
	if !f.Store().Publish(final) {
		t.Fatal("store rejected the genuine antibody")
	}
	f.Drain()

	st := statsOf(f, "squid-consumer")
	if st.AntibodiesVerified != 1 {
		t.Errorf("AntibodiesVerified = %d, want 1", st.AntibodiesVerified)
	}
	if st.AntibodiesRejected != 0 {
		t.Errorf("AntibodiesRejected = %d, want 0", st.AntibodiesRejected)
	}
	if st.AntibodiesAdopted != 1 {
		t.Errorf("AntibodiesAdopted = %d, want 1", st.AntibodiesAdopted)
	}
	// The adopted signature must now filter the exploit at the proxy.
	if f.Submit("squid-consumer", final.ExploitInput, "worm", true) {
		t.Error("guest accepted the exploit after verified adoption")
	}
	f.Stop()
}

// TestVerifyBeforeAdoptNegativePaths feeds a verifying guest antibodies an
// untrusted peer could fabricate — corrupted exploit input, an exploit for a
// different program, a benign payload masquerading as an exploit, and bare
// signatures with no exploit at all — and requires every one to be rejected,
// counted, and to leave no filter behind that could censor benign traffic.
func TestVerifyBeforeAdoptNegativePaths(t *testing.T) {
	squidFinal := genuineFinalAntibody(t, "squid")
	cvsFinal := genuineFinalAntibody(t, "cvs")
	f := newVerifyingConsumer(t, "squid", "squid-consumer", 271828)

	benign := exploit.Benign("squid", 7)
	truncated := append([]byte(nil), squidFinal.ExploitInput[:10]...)

	cases := []struct {
		name string
		ab   *antibody.Antibody
	}{
		{
			// Exploit input corrupted in transit: the signature no longer
			// matches the exploit it claims to justify.
			name: "corrupted exploit, stale signature",
			ab: &antibody.Antibody{
				ID:           "rogue-corrupt-final",
				Program:      "squid",
				Stage:        antibody.StageFinal,
				Sigs:         squidFinal.Sigs,
				ExploitInput: truncated,
			},
		},
		{
			// Corruption with a consistent signature: the replay itself must
			// catch that the input no longer exploits anything.
			name: "corrupted exploit, matching signature",
			ab: &antibody.Antibody{
				ID:           "rogue-corrupt-consistent",
				Program:      "squid",
				Stage:        antibody.StageFinal,
				Sigs:         []*antibody.Signature{antibody.ExactSignature("rogue-corrupt-consistent-sig", truncated)},
				ExploitInput: truncated,
			},
		},
		{
			// A real exploit — for the wrong program. It reproduces nothing
			// on a squid guest, so the signature is unjustified here.
			name: "wrong-program exploit",
			ab: &antibody.Antibody{
				ID:           "rogue-wrong-program",
				Program:      "squid",
				Stage:        antibody.StageFinal,
				Sigs:         []*antibody.Signature{antibody.ExactSignature("rogue-wrong-program-sig", cvsFinal.ExploitInput)},
				ExploitInput: cvsFinal.ExploitInput,
			},
		},
		{
			// Censorship attempt: a benign request dressed up as an exploit,
			// whose signature would filter legitimate traffic if adopted.
			name: "benign input masquerading as exploit",
			ab: &antibody.Antibody{
				ID:           "rogue-benign-masquerade",
				Program:      "squid",
				Stage:        antibody.StageFinal,
				Sigs:         []*antibody.Signature{antibody.ExactSignature("rogue-benign-sig", benign)},
				ExploitInput: benign,
			},
		},
		{
			// Signatures with no exploit attached are unverifiable and must
			// not be trusted.
			name: "signatures without exploit input",
			ab: &antibody.Antibody{
				ID:      "rogue-bare-sigs",
				Program: "squid",
				Stage:   antibody.StageFinal,
				Sigs:    []*antibody.Signature{antibody.ExactSignature("rogue-bare-sig", benign)},
			},
		},
	}

	rejected := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !f.Store().Publish(tc.ab) {
				t.Fatal("store rejected the crafted antibody outright")
			}
			f.Drain()
			rejected++
			st := statsOf(f, "squid-consumer")
			if st.AntibodiesRejected != rejected {
				t.Errorf("AntibodiesRejected = %d, want %d", st.AntibodiesRejected, rejected)
			}
			if st.AntibodiesAdopted != 0 {
				t.Errorf("AntibodiesAdopted = %d, want 0", st.AntibodiesAdopted)
			}
			// No crafted signature may have been installed: benign traffic
			// must still flow.
			if !f.Submit("squid-consumer", benign, "client", false) {
				t.Error("benign request filtered — a rejected antibody left a filter behind")
			}
			f.Drain()
		})
	}

	st := statsOf(f, "squid-consumer")
	if st.AntibodiesVerified != 0 {
		t.Errorf("AntibodiesVerified = %d, want 0 (no crafted antibody verifies)", st.AntibodiesVerified)
	}
	f.Stop()
}

// TestVerifyRegeneratesFastTierFindings: the adoption sandbox does not just
// reproduce "a violation" — it re-runs the fast analysis tier against the
// reproduction, regenerating the memory-bug and taint evidence locally (the
// paper's strongest trust model: a receiving host could rebuild the antibody
// itself instead of installing the sender's).
func TestVerifyRegeneratesFastTierFindings(t *testing.T) {
	final := genuineFinalAntibody(t, "squid")

	// A distinct host: different ASLR layout, never attacked.
	s, _ := newSweeperFor(t, "squid", func(c *Config) { c.ASLRSeed = 987654 })
	submitBenign(s, "squid", 0, 3)
	if _, err := s.ServeAll(); err != nil {
		t.Fatal(err)
	}

	dec := s.VerifyAntibody(final)
	if !dec.Adoptable || !dec.Reproduced {
		t.Fatalf("genuine antibody not adoptable: %s", dec.Reason)
	}
	mb, ok := dec.Regenerated[membug.AnalyzerName].(*membug.Result)
	if !ok || len(mb.Findings) == 0 {
		t.Fatalf("memory-bug evidence not regenerated: %v", dec.Regenerated)
	}
	if mb.Findings[0].Kind != membug.KindHeapOverflow {
		t.Errorf("regenerated membug kind = %v, want heap overflow", mb.Findings[0].Kind)
	}
	tt, ok := dec.Regenerated[taint.AnalyzerName].(*taint.Result)
	if !ok || !tt.Detected {
		t.Fatalf("taint evidence not regenerated: %v", dec.Regenerated)
	}

	// A rejected antibody regenerates nothing: no reproduction, no evidence.
	benign := exploit.Benign("squid", 3)
	rogue := &antibody.Antibody{
		ID:           "rogue-no-regen",
		Program:      "squid",
		Stage:        antibody.StageFinal,
		Sigs:         []*antibody.Signature{antibody.ExactSignature("rogue-no-regen-sig", benign)},
		ExploitInput: benign,
	}
	if dec := s.VerifyAntibody(rogue); dec.Adoptable || len(dec.Regenerated) != 0 {
		t.Errorf("rejected antibody yielded regenerated findings: %+v", dec)
	}
}

// TestAdoptInstallsRegeneratedAntibody: a verifying consumer whose sandbox
// regenerated the fast-tier evidence does not install the sender's antibody
// at all — it synthesises its own (locally derived VSEFs plus an exact
// signature over the just-replayed exploit input) and installs that,
// removing the last trust in received antibody contents. The regenerated
// antibody must protect exactly like the original.
func TestAdoptInstallsRegeneratedAntibody(t *testing.T) {
	final := genuineFinalAntibody(t, "squid")
	f := newVerifyingConsumer(t, "squid", "squid-consumer", 161803)
	if !f.Store().Publish(final) {
		t.Fatal("store rejected the genuine antibody")
	}
	f.Drain()

	st := statsOf(f, "squid-consumer")
	if st.AntibodiesAdopted != 1 {
		t.Fatalf("AntibodiesAdopted = %d, want 1", st.AntibodiesAdopted)
	}
	if st.AntibodiesRegenerated != 1 {
		t.Errorf("AntibodiesRegenerated = %d, want 1 (DefaultConfig regenerates on verify)", st.AntibodiesRegenerated)
	}
	if st.FindingsRegenerated == 0 {
		t.Error("no findings regenerated; the local antibody had nothing to build from")
	}
	// The locally synthesised signature must filter the exploit like the
	// sender's would have.
	if f.Submit("squid-consumer", final.ExploitInput, "worm", true) {
		t.Error("guest accepted the exploit after regenerated adoption")
	}
	// Benign traffic still flows.
	if !f.Submit("squid-consumer", exploit.Benign("squid", 9), "client", false) {
		t.Error("regenerated antibody censored benign traffic")
	}
	f.Stop()

	// RegenerateAntibody itself: the ID keeps the sender's antibody family,
	// so stage replacement still works across regenerated/original stages.
	if got, want := antibodyFamily(final.ID+"+regen"), antibodyFamily(final.ID); got != want {
		t.Errorf("regenerated family %q != original family %q", got, want)
	}

	// With no fast-tier analyzer to regenerate from, the consumer verifies and
	// falls back to installing the sender's antibody, and counts no
	// regeneration.
	spec, err := apps.ByName("squid")
	if err != nil {
		t.Fatal(err)
	}
	f2 := NewFleetWithOptions(FleetOptions{})
	cfg := DefaultConfig()
	cfg.ASLRSeed = 141421
	cfg.VerifyAdoption = true
	cfg.Analyses = []string{}
	if _, err := f2.AddGuest("plain-consumer", spec.Name, spec.Image, spec.Options, cfg); err != nil {
		t.Fatal(err)
	}
	f2.Start()
	f2.Submit("plain-consumer", exploit.Benign("squid", 0), "client", false)
	f2.Drain()
	if !f2.Store().Publish(final) {
		t.Fatal("store rejected the genuine antibody")
	}
	f2.Drain()
	st2 := statsOf(f2, "plain-consumer")
	if st2.AntibodiesAdopted != 1 || st2.AntibodiesRegenerated != 0 {
		t.Errorf("adopted=%d regenerated=%d, want 1/0 with no fast-tier analyzer",
			st2.AntibodiesAdopted, st2.AntibodiesRegenerated)
	}
	if f2.Submit("plain-consumer", final.ExploitInput, "worm", true) {
		t.Error("fallback consumer accepted the exploit after adoption")
	}
	f2.Stop()
}

// TestVerifyReproducesViaConfiguredMonitors: an exploit that the live guest
// detects through an attached monitor (shadow stack; no ASLR, so no fault)
// must also reproduce in the verification sandbox — the clone carries no
// tools by default, so verifyGate re-attaches the configured monitor. A
// bare clone would let the hijack run cleanly and reject the genuine
// antibody forever.
func TestVerifyReproducesViaConfiguredMonitors(t *testing.T) {
	shadowCfg := func(c *Config) {
		c.ASLR = false
		c.ShadowStack = true
	}
	s, spec := newSweeperFor(t, "apache1", func(c *Config) {
		shadowCfg(c)
		c.InstanceID = "producer"
	})
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}
	submitBenign(s, "apache1", 0, 2)
	s.Submit(payload, "worm", true)
	if _, err := s.ServeAll(); err != nil {
		t.Fatal(err)
	}
	if len(s.Attacks()) != 1 || s.Attacks()[0].FinalAntibody == nil {
		t.Fatal("producer did not generate a final antibody")
	}
	final := s.Attacks()[0].FinalAntibody
	if len(final.ExploitInput) == 0 {
		t.Fatal("final antibody carries no exploit input")
	}

	f := NewFleetWithOptions(FleetOptions{})
	cfg := DefaultConfig()
	shadowCfg(&cfg)
	cfg.VerifyAdoption = true
	if _, err := f.AddGuest("apache1-consumer", spec.Name, spec.Image, spec.Options, cfg); err != nil {
		t.Fatal(err)
	}
	f.Start()
	f.Submit("apache1-consumer", exploit.Benign("apache1", 0), "client", false)
	f.Drain()
	if !f.Store().Publish(final) {
		t.Fatal("store rejected the genuine antibody")
	}
	f.Drain()
	st := statsOf(f, "apache1-consumer")
	if st.AntibodiesVerified != 1 {
		t.Errorf("AntibodiesVerified = %d, want 1 (monitor-detected exploit must reproduce in the sandbox)", st.AntibodiesVerified)
	}
	if st.AntibodiesRejected != 0 {
		t.Errorf("AntibodiesRejected = %d, want 0", st.AntibodiesRejected)
	}
	if f.Submit("apache1-consumer", final.ExploitInput, "worm", true) {
		t.Error("consumer accepted the exploit after verified adoption")
	}
	f.Stop()
}

// rogueDoubleFreeAntibody is a rogue peer's VSEF-only squid antibody: a
// double-free guard named rogue-dos-vsef on the Ret of libc's free wrapper,
// where R1 still holds the just-freed pointer — it fires on every request
// that frees memory.
func rogueDoubleFreeAntibody(t *testing.T) *antibody.Antibody {
	t.Helper()
	spec, err := apps.ByName("squid")
	if err != nil {
		t.Fatal(err)
	}
	freeEntry, ok := spec.Image.Symbols["free"]
	if !ok {
		t.Fatal("squid image has no free symbol")
	}
	return &antibody.Antibody{
		ID:      "rogue-dos-initial",
		Program: "squid",
		Stage:   antibody.StageInitial,
		VSEFs: []*antibody.VSEF{{
			Kind:      antibody.VSEFDoubleFree,
			Program:   "squid",
			Name:      "rogue-dos-vsef",
			InstrIdx:  freeEntry + 2, // free's Ret: R1 still holds the freed pointer
			InstrSym:  "free",
			CallerIdx: -1,
		}},
	}
}

// TestMaliciousVSEFOnlyAntibodyCannotTakeDownGuest closes the remaining DoS
// window: a VSEF-only antibody carries nothing verifiable, so it is adopted
// on the paper's "VSEFs cannot be harmful" premise — but a malicious probe
// CAN be harmful by raising false violations on benign traffic. The defence
// is in recovery: the replayed history is known benign, so a probe firing
// during recovery replay is faulty by definition and gets uninstalled
// instead of halting the guest. Here a rogue peer plants a double-free guard
// that fires on every request that frees memory (rogueDoubleFreeAntibody).
func TestMaliciousVSEFOnlyAntibodyCannotTakeDownGuest(t *testing.T) {
	f := newVerifyingConsumer(t, "squid", "squid-victim", 112233)
	if !f.Store().Publish(rogueDoubleFreeAntibody(t)) {
		t.Fatal("store rejected the rogue antibody outright")
	}
	f.Drain()

	// Benign traffic must keep flowing: the misfire is treated as an attack,
	// analysis finds nothing real, and recovery uninstalls the bad probe.
	for i := 0; i < 6; i++ {
		if !f.Submit("squid-victim", exploit.Benign("squid", 10+i), "client", false) {
			t.Fatalf("benign request %d filtered", i)
		}
	}
	f.Drain()

	g, _ := f.Guest("squid-victim")
	if err := g.ServeError(); err != nil {
		t.Fatalf("guest halted on the rogue VSEF: %v", err)
	}
	if g.Sweeper().Halted() {
		t.Fatal("guest halted on the rogue VSEF")
	}
	removed := false
	for _, r := range g.Sweeper().Attacks() {
		if !r.Recovered {
			t.Errorf("recovery failed for false-positive attack %d", r.Seq)
		}
		for _, name := range r.BadProbesRemoved {
			if name == "rogue-dos-vsef" {
				removed = true
			}
		}
	}
	if !removed {
		t.Error("rogue probe never fired or was not removed; DoS scenario not exercised")
	}
	st := statsOf(f, "squid-victim")
	if st.RequestsServed < 7 {
		t.Errorf("guest served %d requests, want all of them despite the rogue probe", st.RequestsServed)
	}
	f.Stop()
}

// TestMalformedPeerAntibodyCannotCrashVerifyingConsumer: a peer serving
// antibodies with a nil VSEF or a nil signature must not reach a verifying
// guest, whose adoption would dereference the nil on its serving goroutine
// and take the whole daemon down. The federation boundary refuses the batch
// and the guest keeps serving.
func TestMalformedPeerAntibodyCannotCrashVerifyingConsumer(t *testing.T) {
	f := newVerifyingConsumer(t, "squid", "squid-consumer", 424242)
	defer f.Stop()

	rogue := antibody.NewStore()
	for _, raw := range []string{
		`{"id":"p-attack1-initial","program":"squid","vsefs":[null]}`,
		`{"id":"p-attack1-final","program":"squid","signatures":[null],"exploit_input":"QUFBQQ=="}`,
	} {
		a, err := antibody.Unmarshal([]byte(raw))
		if err != nil {
			t.Fatal(err)
		}
		rogue.Publish(a) // a store takes what it is given; the boundary checks
	}
	hub := federate.NewHub()
	defer hub.Close()
	if _, err := hub.Register("rogue", rogue, metrics.NewFederationRecorder(), ""); err != nil {
		t.Fatal(err)
	}
	rec := metrics.NewFederationRecorder()
	node := federate.NewNode(f.Store(), rec, federate.Config{Name: "consumer", PollInterval: time.Millisecond})
	defer node.Close()
	tr, err := hub.Dial("rogue", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := node.AddTransport(tr); err != nil {
		t.Fatal(err)
	}
	f.Drain()
	if n := f.Store().Len(); n != 0 {
		t.Fatalf("consumer store took %d malformed antibodies", n)
	}
	if rec.Snapshot().Rejected == 0 {
		t.Error("the malformed batch was not counted Rejected")
	}

	served := statsOf(f, "squid-consumer").RequestsServed
	if !f.Submit("squid-consumer", exploit.Benign("squid", 3), "client", false) {
		t.Fatal("benign request filtered")
	}
	f.Drain()
	g, _ := f.Guest("squid-consumer")
	if err := g.ServeError(); err != nil {
		t.Fatalf("guest stopped serving: %v", err)
	}
	if got := statsOf(f, "squid-consumer").RequestsServed; got != served+1 {
		t.Fatalf("guest served %d requests, want %d", got, served+1)
	}
}
