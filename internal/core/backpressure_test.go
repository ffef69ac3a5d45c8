package core

import (
	"strings"
	"testing"
	"time"

	"sweeper/internal/analysis"
	"sweeper/internal/analysis/membug"
	"sweeper/internal/analysis/slicing"
	"sweeper/internal/analysis/taint"
	"sweeper/internal/exploit"
)

// budgetHog is a fast-tier analyzer that cuts its own replay budget to 50
// instructions and replays its whole window: it must run out and say so,
// without touching the builtin analyzers or the antibody path.
type budgetHog struct{}

func (budgetHog) Name() string        { return "test.hog" }
func (budgetHog) Cost() analysis.Tier { return analysis.TierFast }
func (budgetHog) Run(ctx *analysis.Context, sb *analysis.Sandbox) (analysis.Finding, error) {
	sb.Budget = 50
	sb.Run()
	return nil, nil
}

// TestAnalyzerBudgetStarvesOnlyThatAnalyzer registers an expensive custom
// analyzer that bounds its own replay to 50 instructions: its exhaustion must
// surface via AttackReport.ErrorFor while the builtin fast tier, the antibody
// and recovery proceed untouched.
func TestAnalyzerBudgetStarvesOnlyThatAnalyzer(t *testing.T) {
	reg := DefaultRegistry()
	if err := reg.Register(budgetHog{}); err != nil {
		t.Fatal(err)
	}
	s, spec := newSweeperFor(t, "squid", func(c *Config) { c.Registry = reg })
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}
	submitBenign(s, "squid", 0, 6)
	s.Submit(payload, "worm", true)
	if _, err := s.ServeAll(); err != nil {
		t.Fatalf("ServeAll: %v", err)
	}
	s.WaitAnalyses()
	r := s.Attacks()[0]
	if msg := r.ErrorFor("test.hog"); !strings.Contains(msg, "budget") {
		t.Errorf("budgeted analyzer error = %q, want a budget-exhaustion error", msg)
	}
	if msg := r.ErrorFor("membug"); msg != "" {
		t.Errorf("membug unexpectedly failed: %s", msg)
	}
	if len(r.MemBugFindings) == 0 {
		t.Error("builtin memory-bug analysis should be unaffected by the custom analyzer's budget")
	}
	if !r.Recovered {
		t.Error("recovery should succeed despite the starved analyzer")
	}
	if r.FinalAntibody == nil {
		t.Error("final antibody should still ship")
	}
}

// shortSlicer is the slicing analyzer with its replay cut to 2000
// instructions, long before the squid exploit's fault.
type shortSlicer struct{ slicing.Analyzer }

func (a shortSlicer) Run(ctx *analysis.Context, sb *analysis.Sandbox) (analysis.Finding, error) {
	sb.Budget = 2000
	return a.Analyzer.Run(ctx, sb)
}

// TestSlicingCutShortByItsBudgetIsReportedInconclusive gives the deferred
// slicing replay a budget that ends long before the fault: the report must
// not carry a verdict about the slice from wherever the recording stopped,
// and must say why through ErrorFor, while everything else is untouched.
func TestSlicingCutShortByItsBudgetIsReportedInconclusive(t *testing.T) {
	reg := analysis.NewRegistry()
	for _, a := range []analysis.Analyzer{membug.Analyzer{}, taint.Analyzer{}, shortSlicer{}} {
		if err := reg.Register(a); err != nil {
			t.Fatal(err)
		}
	}
	s, spec := newSweeperFor(t, "squid", func(c *Config) { c.Registry = reg })
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}
	submitBenign(s, "squid", 0, 6)
	s.Submit(payload, "worm", true)
	if _, err := s.ServeAll(); err != nil {
		t.Fatalf("ServeAll: %v", err)
	}
	s.WaitAnalyses()
	r := s.Attacks()[0]
	if !r.SliceTruncated || r.SliceConsistent || r.SliceNodes != 0 || len(r.MissingFromSlice) != 0 {
		t.Errorf("truncated=%v consistent=%v nodes=%d missing=%v, want an inconclusive slice",
			r.SliceTruncated, r.SliceConsistent, r.SliceNodes, r.MissingFromSlice)
	}
	if msg := r.ErrorFor("slicing"); !strings.Contains(msg, "cut short at 2000") || !strings.Contains(msg, "budget") {
		t.Errorf("ErrorFor(slicing) = %q, want the cut, its place and its cause", msg)
	}
	if r.FindingFor("slicing") == nil {
		t.Error("the truncated result should still be available as the finding")
	}
	if !r.Recovered || r.FinalAntibody == nil || r.ErrorFor("membug") != "" || r.ErrorFor("taint") != "" {
		t.Error("the fast tier, the antibody and recovery should be unaffected")
	}
}

// blockingDeferred is a deferred-tier analyzer that parks until released, so
// a test can hold the deferred worker busy and fill the bounded queue.
type blockingDeferred struct {
	started chan struct{}
	release chan struct{}
}

func (b *blockingDeferred) Name() string        { return "test.blockingdeferred" }
func (b *blockingDeferred) Cost() analysis.Tier { return analysis.TierDeferred }
func (b *blockingDeferred) Run(ctx *analysis.Context, sb *analysis.Sandbox) (analysis.Finding, error) {
	select {
	case b.started <- struct{}{}:
	default:
	}
	<-b.release
	return nil, nil
}

// TestDeferredTierBackpressureBoundsTheQueue holds the single deferred
// worker busy and drives three attacks: the first occupies the worker, filler
// jobs take all but one queue slot, the second attack takes the last, and the
// third must be dropped — surfaced via ErrorFor and counted — while its
// report still seals and the guest keeps recovering and serving.
func TestDeferredTierBackpressureBoundsTheQueue(t *testing.T) {
	blocker := &blockingDeferred{started: make(chan struct{}, 8), release: make(chan struct{})}
	reg := analysis.NewRegistry()
	if err := reg.Register(blocker); err != nil {
		t.Fatal(err)
	}
	s, spec := newSweeperFor(t, "squid", func(c *Config) {
		c.Registry = reg
		c.Analyses = []string{"test.blockingdeferred"}
	})

	attack := func(variant int) {
		t.Helper()
		payload, err := exploit.ExploitVariant(spec, variant)
		if err != nil {
			t.Fatal(err)
		}
		submitBenign(s, "squid", variant*100, 3)
		if !s.Submit(payload, "worm", true) {
			t.Fatalf("variant %d filtered before submission", variant)
		}
		if _, err := s.ServeAll(); err != nil {
			t.Fatalf("ServeAll(variant %d): %v", variant, err)
		}
	}

	attack(0)
	// Wait until the worker is actually inside attack 0's deferred run, so
	// the queue slot is demonstrably free for attack 1.
	select {
	case <-blocker.started:
	case <-time.After(10 * time.Second):
		t.Fatal("deferred worker never started attack 0's analysis")
	}
	for i := 0; i < deferredQueueDepth-1; i++ {
		if !s.enqueueDeferred(func() {}) {
			t.Fatalf("deferred queue refused filler job %d", i)
		}
	}
	attack(1) // takes the last slot behind the blocked worker
	attack(2) // queue full: must be dropped, not piled up

	if got := s.DeferredDropped(); got != 1 {
		t.Errorf("DeferredDropped = %d, want 1", got)
	}
	if got, want := s.DeferredBacklog(), deferredQueueDepth+1; got != want {
		t.Errorf("DeferredBacklog = %d, want %d (one running, a full queue)", got, want)
	}
	close(blocker.release)
	s.WaitAnalyses()

	reports := s.Attacks()
	if len(reports) != 3 {
		t.Fatalf("attacks handled = %d, want 3", len(reports))
	}
	for i, r := range reports[:2] {
		if msg := r.ErrorFor("test.blockingdeferred"); msg != "" {
			t.Errorf("attack %d deferred analysis unexpectedly failed: %s", i, msg)
		}
	}
	if msg := reports[2].ErrorFor("test.blockingdeferred"); !strings.Contains(msg, "dropped") {
		t.Errorf("attack 2 deferred error = %q, want a queue-full drop", msg)
	}
	for i, r := range reports {
		if !r.Recovered {
			t.Errorf("attack %d did not recover", i)
		}
	}
	if got := s.DeferredBacklog(); got != 0 {
		t.Errorf("DeferredBacklog after drain = %d, want 0", got)
	}
}
