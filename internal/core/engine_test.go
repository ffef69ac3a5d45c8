package core

import (
	"bytes"
	"runtime"
	"testing"

	"sweeper/internal/analysis"
	"sweeper/internal/antibody"
	"sweeper/internal/apps"
	"sweeper/internal/exploit"
)

// runFullCycle drives the complete detect → analyze → inoculate → recover
// cycle for one app and returns the Sweeper.
func runFullCycle(t *testing.T, appName string) *Sweeper {
	t.Helper()
	s, spec := newSweeperFor(t, appName, nil)
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}
	const before, after = 8, 8
	submitBenign(s, appName, 0, before)
	if !s.Submit(payload, "worm", true) {
		t.Fatal("exploit was filtered before any antibody existed")
	}
	submitBenign(s, appName, before, after)
	if _, err := s.ServeAll(); err != nil {
		t.Fatalf("ServeAll: %v", err)
	}
	if len(s.Attacks()) != 1 {
		t.Fatalf("attacks = %d, want 1", len(s.Attacks()))
	}
	// The deferred tier (slicing cross-check) completes after ServeAll has
	// returned; the assertions below read its fields.
	s.WaitAnalyses()
	return s
}

func marshalAll(t *testing.T, abs []*antibody.Antibody) []string {
	t.Helper()
	out := make([]string, len(abs))
	for i, a := range abs {
		data, err := a.Marshal()
		if err != nil {
			t.Fatalf("marshalling antibody %s: %v", a.ID, err)
		}
		out[i] = string(data)
	}
	return out
}

// TestAntibodiesIndependentOfSchedule: the fast-tier analyzers and the
// isolation workers run on goroutines, so the order in which their replays
// interleave is the runtime's choice. Antibodies must not depend on it. Each
// evaluation application's full cycle runs at GOMAXPROCS 1 — where the
// analyzer goroutines run one after another, the paper's sequential order —
// and again at GOMAXPROCS 4; every antibody (initial, refined, final — VSEFs,
// signatures, exploit input and all) must be byte-identical, and the analyses
// must have reached the same conclusions. It changes a process-wide setting,
// so it must not run in parallel with other tests.
func TestAntibodiesIndependentOfSchedule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, appName := range []string{"apache1", "apache2", "cvs", "squid"} {
		t.Run(appName, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			one := runFullCycle(t, appName)
			runtime.GOMAXPROCS(4)
			four := runFullCycle(t, appName)

			oneAbs := marshalAll(t, one.Antibodies())
			fourAbs := marshalAll(t, four.Antibodies())
			if len(oneAbs) != len(fourAbs) {
				t.Fatalf("antibody count differs: GOMAXPROCS=1 %d, GOMAXPROCS=4 %d", len(oneAbs), len(fourAbs))
			}
			for i := range oneAbs {
				if oneAbs[i] != fourAbs[i] {
					t.Errorf("antibody %d differs:\nGOMAXPROCS=1: %s\nGOMAXPROCS=4: %s", i, oneAbs[i], fourAbs[i])
				}
			}

			r1, r4 := one.Attacks()[0], four.Attacks()[0]
			if r1.CulpritRequestID != r4.CulpritRequestID {
				t.Errorf("culprit differs: %d at GOMAXPROCS=1, %d at 4", r1.CulpritRequestID, r4.CulpritRequestID)
			}
			if !bytes.Equal(r1.CulpritPayload, r4.CulpritPayload) {
				t.Error("culprit payload differs between schedules")
			}
			if r1.IsolationUsed != r4.IsolationUsed {
				t.Errorf("isolation used: %v at GOMAXPROCS=1, %v at 4", r1.IsolationUsed, r4.IsolationUsed)
			}
			if len(r1.MemBugFindings) != len(r4.MemBugFindings) {
				t.Errorf("membug findings differ: %d at GOMAXPROCS=1, %d at 4", len(r1.MemBugFindings), len(r4.MemBugFindings))
			}
			if r1.TaintDetected != r4.TaintDetected {
				t.Error("taint verdict differs between schedules")
			}
			if r1.SliceNodes != r4.SliceNodes || r1.SliceInstrs != r4.SliceInstrs {
				t.Errorf("slice differs: %d/%d at GOMAXPROCS=1, %d/%d at 4",
					r1.SliceNodes, r1.SliceInstrs, r4.SliceNodes, r4.SliceInstrs)
			}
			if r1.SliceConsistent != r4.SliceConsistent {
				t.Error("slice consistency differs between schedules")
			}
		})
	}
}

// gateFinding is what gateAnalyzer returns once released.
type gateFinding struct{}

func (gateFinding) Analyzer() string { return "test.gate" }
func (gateFinding) Summary() string  { return "gate released" }

// gateAnalyzer is a custom deferred-tier analyzer whose Run blocks until the
// test releases it — it makes the deferred tier's wall-clock arbitrarily
// long, so anything that completes while the gate is held is proven
// independent of deferred-analysis time.
type gateAnalyzer struct {
	started chan struct{}
	release chan struct{}
}

func (g *gateAnalyzer) Name() string        { return "test.gate" }
func (g *gateAnalyzer) Cost() analysis.Tier { return analysis.TierDeferred }
func (g *gateAnalyzer) Run(ctx *analysis.Context, sb *analysis.Sandbox) (analysis.Finding, error) {
	close(g.started)
	<-g.release
	return gateFinding{}, nil
}

// TestDeferredTierCompletesAfterServiceResumes pins the tentpole property:
// the antibody ships, recovery completes, and the guest serves post-recovery
// traffic while the deferred tier is still running — so TimeToFinalAntibody
// and time-to-resume-service are independent of slicing (deferred) wall-clock,
// which the gate analyzer stretches indefinitely. It also exercises the
// async-report contract under the race detector: a concurrent reader touches
// the deferred fields only after Done() while the guest is still serving.
func TestDeferredTierCompletesAfterServiceResumes(t *testing.T) {
	gate := &gateAnalyzer{started: make(chan struct{}), release: make(chan struct{})}
	reg := DefaultRegistry()
	if err := reg.Register(gate); err != nil {
		t.Fatal(err)
	}
	s, spec := newSweeperFor(t, "squid", func(c *Config) { c.Registry = reg })
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}
	submitBenign(s, "squid", 0, 4)
	s.Submit(payload, "worm", true)
	submitBenign(s, "squid", 4, 4)
	if _, err := s.ServeAll(); err != nil {
		t.Fatalf("ServeAll: %v", err)
	}
	report := s.Attacks()[0]

	// The deferred goroutine reached the gate (slicing, registered before the
	// gate, has already finished), yet the report must still be open...
	<-gate.started
	select {
	case <-report.Done():
		t.Fatal("report sealed while a deferred analyzer was still running")
	default:
	}
	// ...while everything client-visible is already finished: recovery,
	// the final antibody, and its publication timestamp.
	if !report.Recovered {
		t.Fatal("recovery did not complete before the deferred tier")
	}
	if report.FinalAntibody == nil {
		t.Fatal("final antibody not published before the deferred tier")
	}
	if report.TimeToFinalAntibody <= 0 {
		t.Fatal("TimeToFinalAntibody not recorded before the deferred tier")
	}

	// The guest serves fresh post-recovery traffic with the deferred tier
	// still outstanding.
	if got := submitBenign(s, "squid", 100, 4); got != 4 {
		t.Fatalf("post-recovery submissions accepted = %d, want 4", got)
	}
	if _, err := s.ServeAll(); err != nil {
		t.Fatalf("ServeAll after recovery: %v", err)
	}

	// A concurrent reader obeys the contract: fields are read only after
	// Done(). Under -race this validates the report's synchronisation while
	// the serving goroutine is still active.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		report.Wait()
		if !report.SliceConsistent {
			t.Errorf("slice inconsistent after Done: missing %v", report.MissingFromSlice)
		}
		if report.TotalAnalysisTime < report.TimeToFinalAntibody {
			t.Error("TotalAnalysisTime (includes deferred tier) below TimeToFinalAntibody")
		}
		if report.FindingFor("test.gate") == nil {
			t.Error("custom deferred analyzer's finding not recorded")
		}
		// The seal covers the recovery fields too: the report only closes
		// once both the handler goroutine and the deferred tier finished.
		if !report.Recovered || report.RecoveryTime <= 0 {
			t.Error("recovery fields not stable after Done")
		}
	}()
	close(gate.release)
	<-readerDone

	// The report timed every analyzer, custom included.
	steps := make(map[string]bool)
	for _, st := range report.StepDurations() {
		steps[st.Name] = true
	}
	for _, want := range []string{"memory-bug", "input-taint", "slicing", "test.gate"} {
		if !steps[want] {
			t.Errorf("no Steps entry for analyzer %q (have %v)", want, steps)
		}
	}
}

// TestConfigAnalysesSelection runs a cycle with only membug selected: taint
// and slicing must not run, the culprit comes from the isolation fallback,
// and the report — having no deferred tier — is sealed synchronously.
func TestConfigAnalysesSelection(t *testing.T) {
	s, spec := newSweeperFor(t, "squid", func(c *Config) { c.Analyses = []string{"membug"} })
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}
	submitBenign(s, "squid", 0, 4)
	s.Submit(payload, "worm", true)
	if _, err := s.ServeAll(); err != nil {
		t.Fatalf("ServeAll: %v", err)
	}
	r := s.Attacks()[0]
	select {
	case <-r.Done():
	default:
		t.Error("report with no deferred analyzers should be sealed when ServeAll returns")
	}
	if len(r.MemBugFindings) == 0 {
		t.Error("selected membug analyzer did not run")
	}
	if r.TaintDetected || len(r.TaintFindings) != 0 {
		t.Error("taint ran despite not being selected")
	}
	if r.SliceNodes != 0 {
		t.Error("slicing ran despite not being selected")
	}
	if !r.IsolationUsed || r.CulpritRequestID < 0 {
		t.Error("isolation fallback did not identify the exploit input")
	}
	if r.FinalAntibody == nil || len(r.FinalAntibody.Sigs) == 0 {
		t.Error("final antibody incomplete without taint/slicing")
	}
}

// TestConfigUnknownAnalysisRejected: naming an unregistered analysis — or
// the same analysis twice — is a construction-time error, not a silent no-op
// (a duplicate would run the analyzer twice and desynchronise the joins).
func TestConfigUnknownAnalysisRejected(t *testing.T) {
	spec, err := apps.ByName("squid")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Analyses = []string{"membug", "bogus"}
	if _, err := New(spec.Name, spec.Image, spec.Options, cfg); err == nil {
		t.Fatal("New accepted an unknown analysis name")
	}
	cfg.Analyses = []string{"membug", "membug"}
	if _, err := New(spec.Name, spec.Image, spec.Options, cfg); err == nil {
		t.Fatal("New accepted a duplicate analysis name")
	}
}

// fastStub is a custom fast-tier analyzer; its finding and step timing must
// land in the report like the builtin fast analyzers'.
type fastStub struct{}

func (fastStub) Name() string        { return "test.faststub" }
func (fastStub) Cost() analysis.Tier { return analysis.TierFast }
func (fastStub) Run(ctx *analysis.Context, sb *analysis.Sandbox) (analysis.Finding, error) {
	sb.Run()
	return gateFinding{}, nil
}

// TestCustomFastAnalyzerRecordedInReport: a registered custom fast-tier
// analyzer contributes a finding and a Steps entry.
func TestCustomFastAnalyzerRecordedInReport(t *testing.T) {
	reg := DefaultRegistry()
	if err := reg.Register(fastStub{}); err != nil {
		t.Fatal(err)
	}
	s, spec := newSweeperFor(t, "cvs", func(c *Config) { c.Registry = reg })
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}
	submitBenign(s, "cvs", 0, 4)
	s.Submit(payload, "worm", true)
	if _, err := s.ServeAll(); err != nil {
		t.Fatalf("ServeAll: %v", err)
	}
	s.WaitAnalyses()
	r := s.Attacks()[0]
	if r.FindingFor("test.faststub") == nil {
		t.Error("custom fast analyzer's finding not recorded")
	}
	found := false
	for _, st := range r.StepDurations() {
		if st.Name == "test.faststub" {
			found = true
		}
	}
	if !found {
		t.Error("custom fast analyzer has no Steps entry")
	}
}

// TestFullCycle runs the complete defence cycle and asserts the pipeline
// outcome (detection, analysis, inoculation and recovery) end to end for all
// four apps.
func TestFullCycle(t *testing.T) {
	for _, appName := range []string{"apache1", "apache2", "cvs", "squid"} {
		t.Run(appName, func(t *testing.T) {
			s := runFullCycle(t, appName)
			r := s.Attacks()[0]
			if !r.Recovered {
				t.Error("recovery did not complete")
			}
			if s.Halted() {
				t.Error("protected server halted")
			}
			if r.CulpritRequestID < 0 {
				t.Error("exploit input was not identified")
			}
			if r.FinalAntibody == nil || len(r.FinalAntibody.VSEFs) == 0 {
				t.Fatal("no final antibody / VSEFs generated")
			}
			if len(r.FinalAntibody.Sigs) == 0 {
				t.Error("no input signature generated")
			}
			if !r.SliceConsistent {
				t.Errorf("backward slice missing implicated instructions: %v", r.MissingFromSlice)
			}
			// Inoculation: the identical exploit must now be filtered.
			if s.Submit(r.CulpritPayload, "worm", true) {
				t.Error("identical exploit not filtered after recovery")
			}
		})
	}
}
