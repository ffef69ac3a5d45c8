package core

import (
	"fmt"
	"sync"
	"time"

	"sweeper/internal/analysis"
	"sweeper/internal/analysis/membug"
	"sweeper/internal/analysis/slicing"
	"sweeper/internal/analysis/taint"
	"sweeper/internal/proc"
)

// DefaultRegistry returns a registry with the paper's three heavyweight
// rollback-and-replay analyses registered: memory-bug detection and taint
// analysis in the fast tier, backward slicing in the deferred tier.
// Custom analyzers are added on top via Config.Registry.
func DefaultRegistry() *analysis.Registry {
	r := analysis.NewRegistry()
	for _, a := range []analysis.Analyzer{membug.Analyzer{}, taint.Analyzer{}, slicing.Analyzer{}} {
		if err := r.Register(a); err != nil {
			panic(err) // unreachable: fixed, distinct names
		}
	}
	return r
}

// stepNameFor maps builtin analyzer names to the Table 3 step names the
// reports and experiments have always used; custom analyzers report under
// their own name.
func stepNameFor(analyzer string) string {
	switch analyzer {
	case membug.AnalyzerName:
		return "memory-bug"
	case taint.AnalyzerName:
		return "input-taint"
	case slicing.AnalyzerName:
		return "slicing"
	}
	return analyzer
}

// buildAnalyzers resolves the configuration into the analyzer set this
// Sweeper runs per attack, plus the registry they came from (so per-analyzer
// replay budgets are read live — a SetBudget after construction takes effect
// on the next attack): the names cfg.Analyses lists, or every registered
// analyzer when it is nil.
func buildAnalyzers(cfg Config) ([]analysis.Analyzer, *analysis.Registry, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = DefaultRegistry()
	}
	names := cfg.Analyses
	if names == nil {
		names = reg.Names()
	}
	out := make([]analysis.Analyzer, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			return nil, nil, fmt.Errorf("core: analysis %q listed twice in Config.Analyses", n)
		}
		seen[n] = true
		a, ok := reg.Get(n)
		if !ok {
			return nil, nil, fmt.Errorf("core: analysis %q is not registered (registered: %v)", n, reg.Names())
		}
		out = append(out, a)
	}
	return out, reg, nil
}

// deferredYieldInstrs is the replay chunk size for sandboxes that run on the
// deferred worker, behind live service: the deferred analysis tier's and the
// regeneration half of an adoption (see Guest.adopt). A replay yields to the
// serving goroutine once per chunk; as measured on the benchmark host over
// the 300 k-instruction squid exploit, a chunk takes 1.1–2.3 ms under the
// slicer, 0.5–0.6 ms under taint and ~0.3 ms under membug — a fraction of the
// runtime's 10 ms preemption quantum, and large enough that the re-entry cost
// of vm.Machine.Run is noise.
const deferredYieldInstrs = 50_000

// analyzerRun is one analyzer's execution within a pipeline run. exec runs at
// most once (goroutine in the parallel engine, lazily on join in the
// sequential one) and closes done when the finding is in place.
type analyzerRun struct {
	a        analysis.Analyzer
	stepName string
	sb       *analysis.Sandbox
	sbErr    error

	once    sync.Once
	done    chan struct{}
	finding analysis.Finding
	err     error
	dur     time.Duration
}

func (ar *analyzerRun) exec(ctx *analysis.Context, s *Sweeper) {
	ar.once.Do(func() {
		defer close(ar.done)
		start := time.Now()
		if ar.sbErr != nil {
			ar.err = ar.sbErr
		} else {
			ar.finding, ar.err = ar.a.Run(ctx, ar.sb)
			if ar.err == nil && ar.finding == nil && ar.sb.Exhausted() {
				// A starved analyzer must be distinguishable from one that
				// ran its window and found nothing; one that found something
				// before running out keeps its finding as the outcome.
				ar.err = fmt.Errorf("replay budget (%d instructions) exhausted", ar.sb.Budget)
			}
			ar.sb.Release()
		}
		ar.dur = time.Since(start)
		if ar.finding != nil {
			ctx.AddFinding(ar.a.Name(), ar.finding)
		}
		s.latency.Observe(ar.a.Name(), ar.dur)
	})
}

// pipelineRun is one attack's pass through the analysis pipeline. The fast
// tier is joined (per analyzer) on the attack-handling goroutine before the
// matching antibody stage ships; the deferred tier is completed by
// finishDeferredAsync on its own goroutine, after recovery has resumed
// service, and seals the report when it is done.
type pipelineRun struct {
	s        *Sweeper
	ctx      *analysis.Context
	parallel bool
	byName   map[string]*analyzerRun
	fast     []*analyzerRun
	deferred []*analyzerRun
}

// startAnalyses builds a sandbox per configured analyzer (all on the calling
// goroutine — the guest is stopped at the detection point, so the source
// process is quiescent) and launches the fast tier. With
// cfg.ParallelAnalysis the fast analyzers run concurrently, each replaying
// the attack window on its own clone; otherwise each runs inside its join
// call, preserving the paper's one-after-another order. The deferred tier
// never starts here.
func (s *Sweeper) startAnalyses(snap *proc.Snapshot) *pipelineRun {
	run := &pipelineRun{
		s:        s,
		ctx:      analysis.NewContext(),
		parallel: s.cfg.ParallelAnalysis,
		byName:   make(map[string]*analyzerRun, len(s.analyzers)),
	}
	for _, a := range s.analyzers {
		ar := &analyzerRun{
			a:        a,
			stepName: stepNameFor(a.Name()),
			done:     make(chan struct{}),
		}
		ar.sb, ar.sbErr = s.sandbox(snap, s.budgetFor(a.Name()))
		run.byName[a.Name()] = ar
		if a.Cost() == analysis.TierDeferred {
			if ar.sb != nil {
				// Deferred replays run behind the recovered service; chunk them
				// so they cannot monopolize a processor against live requests.
				ar.sb.SetYieldEvery(deferredYieldInstrs)
			}
			run.deferred = append(run.deferred, ar)
		} else {
			run.fast = append(run.fast, ar)
		}
	}
	if run.parallel {
		for _, ar := range run.fast {
			go ar.exec(run.ctx, s)
		}
	}
	return run
}

// wait joins the named analyzer: in the sequential engine it runs the
// analyzer now, in the parallel engine it blocks until the goroutine
// finishes. It returns nil when the analyzer is not configured.
func (r *pipelineRun) wait(name string) *analyzerRun {
	ar := r.byName[name]
	if ar == nil {
		return nil
	}
	if !r.parallel {
		ar.exec(r.ctx, r.s)
	}
	<-ar.done
	return ar
}

// waitFast joins every fast-tier analyzer (custom fast analyzers included),
// so the final antibody never ships before the tier that gates it completes.
func (r *pipelineRun) waitFast() {
	for _, ar := range r.fast {
		if !r.parallel {
			ar.exec(r.ctx, r.s)
		}
		<-ar.done
	}
}

// finishDeferredAsync completes the deferred tier off the client-visible
// path, retiring its report part when every deferred analyzer — and its
// report fields — is in place (the report seals once the attack-handling
// goroutine has also finished recovery). It is called before recovery
// begins, so the deferred replays overlap rollback, re-execution and resumed
// service; nothing on the client-visible path waits for them.
//
// The work runs on the Sweeper's single deferred worker, fed by a bounded
// queue: under an attack storm the deferred runs of distinct attacks queue
// up to cfg.DeferredQueueDepth instead of spawning a goroutine each, and
// once the queue is full the newest attack's deferred analyses are dropped —
// surfaced per analyzer via AttackReport.ErrorFor — rather than piling up
// unbounded work behind the recovered service.
func (r *pipelineRun) finishDeferredAsync(report *AttackReport, t0 time.Time) {
	seal := func() {
		report.mu.Lock()
		report.TotalAnalysisTime = time.Since(t0)
		report.mu.Unlock()
	}
	if len(r.deferred) == 0 {
		seal()
		return
	}
	report.addPart()
	enqueued := r.s.enqueueDeferred(func() {
		for _, ar := range r.deferred {
			ar.exec(r.ctx, r.s)
			report.recordAnalyzer(ar)
		}
		seal()
		report.finishPart()
	})
	if !enqueued {
		r.s.deferredDropped.Add(1)
		for _, ar := range r.deferred {
			if ar.sb != nil {
				ar.sb.Release()
			}
			report.mu.Lock()
			report.errs[ar.a.Name()] = fmt.Sprintf(
				"deferred analysis dropped: queue full (%d attacks backlogged)", r.s.cfg.DeferredQueueDepth)
			report.mu.Unlock()
		}
		seal()
		report.finishPart()
	}
}
