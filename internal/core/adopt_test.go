package core

import (
	"sync"
	"testing"
	"time"

	"sweeper/internal/analysis"
	"sweeper/internal/antibody"
	"sweeper/internal/apps"
	"sweeper/internal/exploit"
	"sweeper/internal/metrics"
)

// The tests here cover the window a verifying consumer spends between the
// reproduction gate and the end of regeneration (see Guest.adopt): what is
// installed in it, what is never installed, and that it always closes.

const consumerName = "squid-consumer"

// holdAnalyzer is a custom fast-tier analyzer that finds nothing and holds
// every Run until released: registered on a consumer, it keeps a regeneration
// — and with it the provisional window — open for as long as a test needs.
type holdAnalyzer struct {
	once    sync.Once
	started chan struct{}
	release chan struct{}
}

func newHoldAnalyzer() *holdAnalyzer {
	return &holdAnalyzer{started: make(chan struct{}), release: make(chan struct{})}
}

func (h *holdAnalyzer) Name() string        { return "test.hold" }
func (h *holdAnalyzer) Cost() analysis.Tier { return analysis.TierFast }
func (h *holdAnalyzer) Run(*analysis.Context, *analysis.Sandbox) (analysis.Finding, error) {
	h.once.Do(func() { close(h.started) })
	<-h.release
	return nil, nil
}

// blockDeferredWorker occupies the guest's deferred worker until the returned
// function is called, and fills the queue behind it with extra more jobs:
// anything enqueued afterwards waits (or, with the queue full, is refused).
func blockDeferredWorker(t *testing.T, g *Guest, extra int) (release func()) {
	t.Helper()
	started, gate := make(chan struct{}), make(chan struct{})
	if !g.s.enqueueDeferred(func() { close(started); <-gate }) {
		t.Fatal("deferred queue refused the blocking job")
	}
	<-started
	for i := 0; i < extra; i++ {
		if !g.s.enqueueDeferred(func() {}) {
			t.Fatal("deferred queue refused a filler job")
		}
	}
	return func() { close(gate) }
}

// waitProvisional blocks until the guest has installed want provisional
// antibodies.
func waitProvisional(t *testing.T, f *Fleet, want int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		if st, _ := f.Metrics().Guest(consumerName); st.ProvisionalInstalls >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no provisional antibody #%d within 10s", want)
		}
	}
}

// installedID returns the ID of the antibody installed for a's family. Only
// valid while the fleet is drained.
func installedID(t *testing.T, f *Fleet, a *antibody.Antibody) string {
	t.Helper()
	g, _ := f.Guest(consumerName)
	ap := g.applied[antibodyFamily(a.ID)]
	if ap == nil {
		t.Fatalf("nothing installed for the family of %s", a.ID)
	}
	return ap.Antibody().ID
}

func consumerStats(f *Fleet) metrics.GuestStats {
	st, _ := f.Metrics().Guest(consumerName)
	return st
}

func consumerFilters(f *Fleet) []string {
	g, _ := f.Guest(consumerName)
	return g.s.Proxy().Filters()
}

// wantRegeneratedEndState asserts the end state of one genuine adoption: the
// locally regenerated antibody installed with its one exact filter, and the
// counters an adoption has always left behind.
func wantRegeneratedEndState(t *testing.T, f *Fleet, final *antibody.Antibody) {
	t.Helper()
	if got, want := installedID(t, f, final), final.ID+"+regen"; got != want {
		t.Errorf("installed antibody = %s, want %s", got, want)
	}
	if got := consumerFilters(f); len(got) != 1 || got[0] != final.ID+"+regen-sig" {
		t.Errorf("filters = %v, want only %s+regen-sig", got, final.ID)
	}
	st := consumerStats(f)
	if st.AntibodiesVerified != 1 || st.AntibodiesAdopted != 1 || st.AntibodiesRegenerated != 1 ||
		st.AntibodiesRejected != 0 || st.FindingsRegenerated != 2 {
		t.Errorf("verified=%d adopted=%d regenerated=%d rejected=%d findings=%d, want 1/1/1/0/2",
			st.AntibodiesVerified, st.AntibodiesAdopted, st.AntibodiesRegenerated,
			st.AntibodiesRejected, st.FindingsRegenerated)
	}
	if st.ProvisionalInstalls != 1 {
		t.Errorf("ProvisionalInstalls = %d, want 1", st.ProvisionalInstalls)
	}
}

// TestProvisionalWindowTrustsNoSenderSignature: a sender's final antibody
// carries, beside its exact signature, one that matches the exploit and
// benign FTP traffic alike — it passes the every-signature-matches check, and
// installing it would censor. While regeneration is held open the consumer's
// proxy holds exactly the one exact filter the consumer built itself: the
// exploit is rejected, the benign request is served. Afterwards the end state
// is the regenerated antibody, as it always was.
func TestProvisionalWindowTrustsNoSenderSignature(t *testing.T) {
	final := genuineFinalAntibody(t, "squid")
	benign := exploit.Benign("squid", 1)
	broad := &antibody.Signature{SigName: "rogue-broad-sig", Tokens: [][]byte{[]byte("ftp://")}}
	if !broad.Match(final.ExploitInput) || !broad.Match(benign) {
		t.Fatal("the over-broad signature must match both the exploit and the benign request")
	}
	tampered := *final
	tampered.Sigs = append(append([]*antibody.Signature(nil), final.Sigs...), broad)

	hold := newHoldAnalyzer()
	reg := DefaultRegistry()
	if err := reg.Register(hold); err != nil {
		t.Fatal(err)
	}
	f := newVerifyingConsumer(t, "squid", consumerName, 577215, func(c *Config) { c.Registry = reg })
	if !f.Store().Publish(&tampered) {
		t.Fatal("store rejected the antibody")
	}
	<-hold.started

	if got := consumerFilters(f); len(got) != 1 || got[0] != final.ID+"+gate-sig" {
		t.Errorf("filters during the window = %v, want only the consumer's own %s+gate-sig", got, final.ID)
	}
	if f.Submit(consumerName, final.ExploitInput, "worm", true) {
		t.Error("exploit accepted during the window")
	}
	served := consumerStats(f).RequestsServed
	if !f.Submit(consumerName, benign, "client", false) {
		t.Error("benign request filtered during the window: a sender signature was installed")
	}
	for deadline := time.Now().Add(10 * time.Second); consumerStats(f).RequestsServed == served; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("benign request not served while regeneration was held open")
		}
	}

	close(hold.release)
	f.Drain()
	wantRegeneratedEndState(t, f, final)
	if !f.Submit(consumerName, benign, "client", false) {
		t.Error("benign request filtered after regeneration")
	}
	g, _ := f.Guest(consumerName)
	runs := make(map[string]int)
	for _, l := range g.Sweeper().AnalyzerLatencies() {
		runs[l.Name] = l.Runs
	}
	if runs[latencyVerifyGate] != 1 || runs[latencyVerifyRegenerate] != 1 {
		t.Errorf("verify-gate/verify-regenerate observed %d/%d times, want 1/1 (have %v)",
			runs[latencyVerifyGate], runs[latencyVerifyRegenerate], runs)
	}
	f.Stop()
}

// TestNothingProvisionalBeforeTheGatePasses: a benign payload dressed up as
// an exploit, a signature that does not match its exploit, and a sandbox that
// fails transiently (its replay budget cannot reach quiescence) each leave
// the proxy without a filter at every moment, not only at the end.
func TestNothingProvisionalBeforeTheGatePasses(t *testing.T) {
	final := genuineFinalAntibody(t, "squid")
	benign := exploit.Benign("squid", 7)
	cases := []struct {
		name    string
		ab      *antibody.Antibody
		mutate  func(*Config)
		retries int
	}{
		{name: "rogue payload", ab: &antibody.Antibody{
			ID: "rogue-benign-final", Program: "squid", Stage: antibody.StageFinal,
			Sigs:         []*antibody.Signature{antibody.ExactSignature("rogue-benign-sig", benign)},
			ExploitInput: benign,
		}},
		{name: "signature mismatch", ab: &antibody.Antibody{
			ID: "rogue-mismatch-final", Program: "squid", Stage: antibody.StageFinal,
			Sigs:         []*antibody.Signature{antibody.ExactSignature("rogue-mismatch-sig", benign)},
			ExploitInput: final.ExploitInput,
		}},
		{name: "transient sandbox failure", ab: final, mutate: func(c *Config) { c.ReplayBudget = 1 }, retries: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newVerifyingConsumer(t, "squid", consumerName, 662607, tc.mutate)
			stop, sawFilter := make(chan struct{}), make(chan []string, 1)
			go func() {
				defer close(sawFilter)
				for {
					if got := consumerFilters(f); len(got) > 0 {
						sawFilter <- got
						return
					}
					select {
					case <-stop:
						return
					default:
						time.Sleep(50 * time.Microsecond)
					}
				}
			}()
			if !f.Store().Publish(tc.ab) {
				t.Fatal("store rejected the antibody")
			}
			f.Drain()
			close(stop)
			if got, ok := <-sawFilter; ok {
				t.Errorf("filters %v were installed although the gate never passed", got)
			}
			st := consumerStats(f)
			if st.AntibodiesRejected != 1 || st.AntibodiesVerified != 0 || st.AntibodiesAdopted != 0 || st.ProvisionalInstalls != 0 {
				t.Errorf("rejected=%d verified=%d adopted=%d provisional=%d, want 1/0/0/0",
					st.AntibodiesRejected, st.AntibodiesVerified, st.AntibodiesAdopted, st.ProvisionalInstalls)
			}
			g, _ := f.Guest(consumerName)
			if got := g.verifyRetries[tc.ab.ID]; got != tc.retries {
				t.Errorf("verification retried %d times, want %d", got, tc.retries)
			}
			f.Stop()
		})
	}
}

// TestAdoptRegeneratesInlineWhenDeferredQueueFull: with the deferred worker
// busy and its one-slot queue taken, the adoption does not skip regeneration
// and does not wait for the queue — it regenerates on the serving goroutine
// and reaches the same end state.
func TestAdoptRegeneratesInlineWhenDeferredQueueFull(t *testing.T) {
	final := genuineFinalAntibody(t, "squid")
	f := newVerifyingConsumer(t, "squid", consumerName, 299792, func(c *Config) { c.DeferredQueueDepth = 1 })
	g, _ := f.Guest(consumerName)
	release := blockDeferredWorker(t, g, 1)
	if !f.Store().Publish(final) {
		t.Fatal("store rejected the genuine antibody")
	}
	f.Drain() // returns although the worker is still blocked
	wantRegeneratedEndState(t, f, final)
	if got := g.Sweeper().DeferredDropped(); got != 0 {
		t.Errorf("DeferredDropped = %d, want 0: an inline regeneration drops nothing", got)
	}
	release()
	f.Stop()
}

// TestLandingRegenerationDoesNotDisplaceMoreRefinedStage: the final stage is
// adopted while the regeneration of an earlier stage of the same attack is
// still in flight. When the earlier one lands it must leave the family alone.
func TestLandingRegenerationDoesNotDisplaceMoreRefinedStage(t *testing.T) {
	final := genuineFinalAntibody(t, "squid")
	family := antibodyFamily(final.ID)
	refined := *final
	refined.ID = family + "-refined"
	refined.Stage = antibody.StageRefined

	f := newVerifyingConsumer(t, "squid", consumerName, 141421)
	g, _ := f.Guest(consumerName)
	release := blockDeferredWorker(t, g, 0)
	if !f.Store().Publish(&refined) {
		t.Fatal("store rejected the refined-stage antibody")
	}
	waitProvisional(t, f, 1)
	if !f.Store().Publish(final) {
		t.Fatal("store rejected the final antibody")
	}
	waitProvisional(t, f, 2)
	if got := consumerFilters(f); len(got) != 1 || got[0] != final.ID+"+gate-sig" {
		t.Errorf("filters with both regenerations in flight = %v, want only %s+gate-sig", got, final.ID)
	}
	release()
	f.Drain()
	if got, want := installedID(t, f, final), final.ID+"+regen"; got != want {
		t.Errorf("installed antibody = %s, want %s", got, want)
	}
	if got := consumerFilters(f); len(got) != 1 || got[0] != final.ID+"+regen-sig" {
		t.Errorf("filters = %v, want only %s+regen-sig", got, final.ID)
	}
	if f.Submit(consumerName, final.ExploitInput, "worm", true) {
		t.Error("exploit accepted after both regenerations landed")
	}
	f.Stop()
}

// TestStopWaitsForInFlightRegeneration: Stop (through Drain) returns only
// once the regeneration in flight has landed and its end state is installed.
func TestStopWaitsForInFlightRegeneration(t *testing.T) {
	final := genuineFinalAntibody(t, "squid")
	f := newVerifyingConsumer(t, "squid", consumerName, 173205)
	g, _ := f.Guest(consumerName)
	release := blockDeferredWorker(t, g, 0)
	if !f.Store().Publish(final) {
		t.Fatal("store rejected the genuine antibody")
	}
	waitProvisional(t, f, 1)
	stopped := make(chan struct{})
	go func() {
		f.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a regeneration was still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	<-stopped
	wantRegeneratedEndState(t, f, final)
}

// TestAdoptBeforeStartCompletesInline: a guest added to a fleet that has not
// started (the warm-restart path) adopts the store's antibodies inside
// AddGuest, with no serving loop to come back to — both halves run there.
func TestAdoptBeforeStartCompletesInline(t *testing.T) {
	final := genuineFinalAntibody(t, "squid")
	spec, err := apps.ByName("squid")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet()
	if !f.Store().Publish(final) {
		t.Fatal("store rejected the genuine antibody")
	}
	cfg := DefaultConfig()
	cfg.ASLRSeed = 223606
	cfg.VerifyAdoption = true
	g, err := f.AddGuest(consumerName, spec.Name, spec.Image, spec.Options, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRegeneratedEndState(t, f, final)
	if g.regenerating != 0 || len(g.regenerated) != 0 || g.Sweeper().DeferredBacklog() != 0 {
		t.Errorf("adoption left work behind: regenerating=%d landed=%d backlog=%d",
			g.regenerating, len(g.regenerated), g.Sweeper().DeferredBacklog())
	}
	f.Start()
	if f.Submit(consumerName, final.ExploitInput, "worm", true) {
		t.Error("exploit accepted after adoption before Start")
	}
	f.Stop()
}

// TestConsumerAbsorbsOwnAttacksDuringWindow: while its regeneration is in
// flight the consumer serves benign traffic, absorbs a polymorphic variant
// the exact filter does not match, and trips over a faulty VSEF the sender
// planted — which arrives renamed in the provisional antibody and is
// uninstalled by recovery. It must come out serving, with the regenerated
// antibody installed, and removing the provisional antibody again (its probes
// partly gone already) must change nothing.
func TestConsumerAbsorbsOwnAttacksDuringWindow(t *testing.T) {
	final := genuineFinalAntibody(t, "squid")
	spec, err := apps.ByName("squid")
	if err != nil {
		t.Fatal(err)
	}
	freeEntry, ok := spec.Image.Symbols["free"]
	if !ok {
		t.Fatal("squid image has no free symbol")
	}
	tampered := *final
	tampered.VSEFs = append(append([]*antibody.VSEF(nil), final.VSEFs...), &antibody.VSEF{
		Kind:      antibody.VSEFDoubleFree,
		Program:   "squid",
		Name:      "rogue-dos-vsef",
		InstrIdx:  freeEntry + 2, // free's Ret: R1 still holds the freed pointer
		InstrSym:  "free",
		CallerIdx: -1,
	})

	f := newVerifyingConsumer(t, "squid", consumerName, 112233)
	g, _ := f.Guest(consumerName)
	release := blockDeferredWorker(t, g, 0)
	if !f.Store().Publish(&tampered) {
		t.Fatal("store rejected the antibody")
	}
	waitProvisional(t, f, 1)

	variant := exploit.SquidExploitVariant(3)
	if !f.Submit(consumerName, variant, "worm", true) {
		t.Fatal("the exact filter matched a polymorphic variant")
	}
	for i := 0; i < 6; i++ {
		if !f.Submit(consumerName, exploit.Benign("squid", 10+i), "client", false) {
			t.Fatalf("benign request %d filtered during the window", i)
		}
	}
	// Wait for the serving loop to have consumed all of it, window still open.
	g.mu.Lock()
	for g.busy || g.pending {
		g.cond.Wait()
	}
	prov := g.applied[antibodyFamily(final.ID)]
	g.mu.Unlock()
	if prov == nil || prov.Antibody().ID != final.ID+"+gate" {
		t.Fatalf("installed during the window: %v, want the provisional antibody", prov)
	}
	release()
	f.Drain()

	if err := g.ServeError(); err != nil || g.Sweeper().Halted() {
		t.Fatalf("consumer did not survive the window: halted=%v err=%v", g.Sweeper().Halted(), err)
	}
	rogueRemoved := false
	for _, r := range g.Sweeper().Attacks() {
		if !r.Recovered {
			t.Errorf("recovery failed for attack %d", r.Seq)
		}
		for _, name := range r.BadProbesRemoved {
			if name == final.ID+"+gate/rogue-dos-vsef" {
				rogueRemoved = true
			}
		}
	}
	if len(g.Sweeper().Attacks()) < 2 || !rogueRemoved {
		t.Errorf("handled %d attacks, rogue probe removed=%v; want the variant and the faulty probe both absorbed",
			len(g.Sweeper().Attacks()), rogueRemoved)
	}
	if got, want := installedID(t, f, final), final.ID+"+regen"; got != want {
		t.Errorf("installed antibody = %s, want %s", got, want)
	}
	if f.Submit(consumerName, final.ExploitInput, "worm", true) || f.Submit(consumerName, variant, "worm", true) {
		t.Error("exploit or its absorbed variant accepted after the window")
	}
	served := g.Sweeper().Process().ServedRequests()
	if !f.Submit(consumerName, exploit.Benign("squid", 20), "client", false) {
		t.Error("benign request filtered after the window")
	}
	f.Drain()
	if got := g.Sweeper().Process().ServedRequests(); got != served+1 {
		t.Errorf("served %d requests after the window, want %d", got, served+1)
	}
	// The landing removed the provisional antibody after recovery had already
	// taken one of its probes; removing it again must change nothing.
	filters, probes := consumerFilters(f), g.Sweeper().Process().Machine.ProbeCount()
	prov.Remove()
	if got := consumerFilters(f); len(got) != len(filters) {
		t.Errorf("filters after a second Remove = %v, want %v", got, filters)
	}
	if got := g.Sweeper().Process().Machine.ProbeCount(); got != probes {
		t.Errorf("probe count after a second Remove = %d, want %d", got, probes)
	}
	f.Stop()
}
