package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sweeper/internal/analysis"
	"sweeper/internal/analysis/coredump"
	"sweeper/internal/analysis/membug"
	"sweeper/internal/analysis/slicing"
	"sweeper/internal/analysis/taint"
	"sweeper/internal/antibody"
	"sweeper/internal/monitor"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// StepTiming records the wall-clock duration of one analysis component
// (Table 3's "component diagnosis time").
type StepTiming struct {
	Name     string
	Duration time.Duration
}

// AttackReport captures everything Sweeper learned and did about one attack:
// the detection event, the result of each analysis step, the antibodies
// generated (and when), and the recovery outcome. Tables 2 and 3 are built
// from these reports.
//
// A report is completed asynchronously: the deferred analysis tier (the
// slicing cross-check) finishes after recovery has already resumed service,
// so HandleAttack returns — and the guest serves traffic again — while the
// deferred fields (SliceNodes, SliceInstrs, SliceConsistent,
// MissingFromSlice, TotalAnalysisTime and the deferred Steps entries) are
// still being filled in. Done is closed once the report is sealed — after
// BOTH the attack-handling goroutine (analysis, antibodies, recovery) and
// the deferred tier have finished — so every field read after Done (or
// Wait) is stable.
type AttackReport struct {
	Seq          int
	DetectedAtMs uint64
	Detection    monitor.Detection
	// Parallel records which analysis engine handled the attack.
	Parallel bool

	// Analysis results.
	CoreDump         *coredump.Report
	MemBugFindings   []membug.Finding
	TaintFindings    []taint.Finding
	TaintDetected    bool
	SliceNodes       int
	SliceInstrs      int
	SliceConsistent  bool
	MissingFromSlice []int
	// SliceRestricted says the deferred slicing replay was restricted to the
	// culprit request because both fast-tier analyses had implicated
	// instructions (the cheap, focused cross-check).
	SliceRestricted bool
	// SliceTruncated says the slicing recording was cut short (replay budget
	// or node limit) before the failure, so SliceConsistent is false because
	// nothing could be verified, not because something was missing;
	// ErrorFor("slicing") says what cut it and where.
	SliceTruncated bool

	// Exploit input identification.
	CulpritRequestID int
	CulpritPayload   []byte
	IsolationUsed    bool

	// Antibodies, in the order they became available.
	InitialAntibody *antibody.Antibody
	RefinedAntibody *antibody.Antibody
	FinalAntibody   *antibody.Antibody

	// Wall-clock timings measured from the moment of detection.
	TimeToFirstVSEF     time.Duration
	TimeToBestVSEF      time.Duration
	InitialAnalysisTime time.Duration
	// TimeToFinalAntibody is when the final antibody (VSEFs + input
	// signature + exploit input) was published. It excludes the deferred
	// tier, which the antibody does not depend on.
	TimeToFinalAntibody time.Duration
	// TotalAnalysisTime is when the last analysis (including the deferred
	// tier, which overlaps recovery and resumed service) completed. Deferred;
	// stable after Done.
	TotalAnalysisTime time.Duration
	Steps             []StepTiming

	// Recovery.
	Recovered bool
	// RecoveryPipelined reports that the live process adopted the state of a
	// prefix replay that ran concurrently with the analyses (the pipelined
	// recovery path) instead of re-executing the benign history serially
	// after them.
	RecoveryPipelined  bool
	RecoveryTime       time.Duration
	RecoveryVirtualMs  uint64
	RecoveryDiverged   bool
	RecoveryDivergence string
	// BadProbesRemoved lists filters that raised violations while the known
	// benign history replayed during recovery. A filter that fires on
	// requests which previously completed service is wrong by definition
	// (incorrect — or malicious, since VSEF-only antibodies from peers are
	// applied before any exploit-replay verification is possible), so
	// recovery uninstalls it and retries rather than letting it take the
	// service down.
	BadProbesRemoved []string

	// mu seals the deferred-tier fields (and Steps, which both tiers append
	// to) until done closes. parts counts the writers that must finish before
	// the report seals: the attack-handling goroutine itself, plus the
	// deferred-tier goroutine when one is launched; whichever finishes last
	// closes done (the atomic decrements order their writes before the close).
	mu       sync.Mutex
	done     chan struct{}
	parts    atomic.Int32
	findings map[string]analysis.Finding
	errs     map[string]string
}

func newAttackReport(seq int, detectedAtMs uint64, det monitor.Detection) *AttackReport {
	r := &AttackReport{
		Seq:              seq,
		DetectedAtMs:     detectedAtMs,
		Detection:        det,
		CulpritRequestID: -1,
		done:             make(chan struct{}),
		findings:         make(map[string]analysis.Finding),
		errs:             make(map[string]string),
	}
	r.parts.Store(1) // the attack-handling goroutine
	return r
}

// Done returns a channel that is closed once every analysis — including the
// deferred tier that completes after recovery — has finished and the report's
// fields are final.
func (r *AttackReport) Done() <-chan struct{} { return r.done }

// Wait blocks until the report is complete.
func (r *AttackReport) Wait() { <-r.done }

// FindingFor returns the named analyzer's finding for this attack, or nil.
// Deferred-tier findings are present only after Done.
func (r *AttackReport) FindingFor(analyzer string) analysis.Finding {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.findings[analyzer]
}

// ErrorFor returns why the named analyzer produced no finding for this
// attack — a sandbox-construction or Run error — or "" if it did not fail.
// An analyzer that ran cleanly and found nothing has neither a finding nor
// an error; a slicing run whose recording was cut short has both.
// Deferred-tier entries are present only after Done.
func (r *AttackReport) ErrorFor(analyzer string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.errs[analyzer]
}

// finishPart retires one report writer; the last one seals the report.
func (r *AttackReport) finishPart() {
	if r.parts.Add(-1) == 0 {
		close(r.done)
	}
}

// addPart registers an additional report writer (the deferred-tier
// goroutine). It must be called before the corresponding finishPart can run.
func (r *AttackReport) addPart() { r.parts.Add(1) }

// addStep appends a component timing under the report mutex (the recovery
// step on the attack-handling goroutine races the deferred tier's entries
// otherwise).
func (r *AttackReport) addStep(name string, d time.Duration) {
	r.mu.Lock()
	r.Steps = append(r.Steps, StepTiming{Name: name, Duration: d})
	r.mu.Unlock()
}

// StepDurations returns a copy of the per-component timings recorded so far.
func (r *AttackReport) StepDurations() []StepTiming {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]StepTiming(nil), r.Steps...)
}

// recordFinding stores an analyzer's finding for FindingFor.
func (r *AttackReport) recordFinding(name string, f analysis.Finding) {
	if f == nil {
		return
	}
	r.mu.Lock()
	r.findings[name] = f
	r.mu.Unlock()
}

// recordRunOutcome stores one analyzer's finding and failure, if any, so a
// failed analysis is distinguishable from one that found nothing.
func (r *AttackReport) recordRunOutcome(ar *analyzerRun) {
	r.recordFinding(ar.a.Name(), ar.finding)
	if ar.err != nil {
		r.mu.Lock()
		r.errs[ar.a.Name()] = ar.err.Error()
		r.mu.Unlock()
	}
}

// recordAnalyzer folds one completed deferred analyzer into the report.
func (r *AttackReport) recordAnalyzer(ar *analyzerRun) {
	if res, ok := ar.finding.(*slicing.Result); ok {
		r.mu.Lock()
		r.SliceNodes = res.Nodes
		r.SliceInstrs = res.Instrs
		r.MissingFromSlice = res.Missing
		r.SliceConsistent = res.Consistent
		r.SliceRestricted = res.Restricted
		r.SliceTruncated = res.Truncated
		if res.Truncated {
			r.errs[ar.a.Name()] = res.Summary()
		}
		r.mu.Unlock()
	}
	r.recordRunOutcome(ar)
	r.addStep(ar.stepName, ar.dur)
}

// BestVSEF returns the most refined VSEF available (refined if the memory-bug
// step produced one, otherwise the initial one).
func (r *AttackReport) BestVSEF() *antibody.VSEF {
	if r.RefinedAntibody != nil && len(r.RefinedAntibody.VSEFs) > 0 {
		return r.RefinedAntibody.VSEFs[len(r.RefinedAntibody.VSEFs)-1]
	}
	if r.InitialAntibody != nil && len(r.InitialAntibody.VSEFs) > 0 {
		return r.InitialAntibody.VSEFs[0]
	}
	return nil
}

func (s *Sweeper) newAntibodyID(stage antibody.Stage) string {
	owner := s.name
	if s.cfg.InstanceID != "" {
		owner = s.cfg.InstanceID
	}
	return fmt.Sprintf("%s-attack%d-%s", owner, s.attackSeq, stage)
}

func (s *Sweeper) publish(a *antibody.Antibody) {
	if !s.cfg.ProduceAntibodies {
		// Consumer role: the attack is detected, analysed and recovered from,
		// but nothing leaves this host — the report keeps the antibody stages
		// for inspection, Antibodies() and the fan-out stay empty.
		return
	}
	s.antibodies = append(s.antibodies, a)
	if s.OnAntibody != nil {
		s.OnAntibody(a)
	}
}

// prefixReplay is a recovery clone replaying the benign history prefix —
// everything logged before the suspect request — concurrently with the
// analysis tier. join delivers the finished clone exactly once.
type prefixReplay struct {
	suspect int
	ch      chan prefixResult
}

type prefixResult struct {
	clone *proc.Process
	stop  *vm.StopInfo
}

// startPrefixReplay forks a recovery clone from the checkpoint and sets it
// replaying the history up to (but not including) the request being served at
// detection time. The fork happens synchronously — the clone must capture the
// skip/excise state of the moment of detection, before recovery mutates it —
// but the replay itself runs on its own goroutine, overlapped with the
// analyses. Returns nil when no request was in flight (nothing to pin the
// prefix against).
func (s *Sweeper) startPrefixReplay(snap *proc.Snapshot) *prefixReplay {
	suspect := s.proc.CurrentRequestID()
	if suspect == 0 {
		return nil
	}
	clone, err := s.proc.Clone(snap)
	if err != nil {
		return nil
	}
	// The serial recovery path replays with the temporary drops cleared
	// (ClearDropped below); the prefix must see the same history.
	clone.ClearDropped()
	clone.SetReplayStopBefore(suspect)
	pr := &prefixReplay{suspect: suspect, ch: make(chan prefixResult, 1)}
	go func() {
		stop := clone.Run(s.cfg.ReplayBudget)
		pr.ch <- prefixResult{clone: clone, stop: stop}
	}()
	return pr
}

// snapshotForAnalysis picks the most recent checkpoint taken before the
// current (suspected) attack request was read in.
func (s *Sweeper) snapshotForAnalysis() *proc.Snapshot {
	// Find the log index of the request being served when the monitor
	// tripped; any checkpoint at or before that index predates the request.
	if curID := s.proc.CurrentRequestID(); curID != 0 {
		if at, _, ok := s.proc.Log.FindRequest(curID); ok {
			if snap, err := s.ckpt.BeforeLogIndex(at); err == nil {
				return snap
			}
		}
	}
	return s.ckpt.Latest()
}

// HandleAttack runs the full post-detection pipeline: memory-state analysis,
// the fast analysis tier on pooled replay sandboxes (gating antibody
// generation and distribution), and rollback/re-execution recovery with the
// attack input dropped. The deferred analysis tier (the slicing cross-check)
// is left running on its own goroutine: it completes after recovery has
// resumed service and seals the returned report (AttackReport.Done).
func (s *Sweeper) HandleAttack(stop *vm.StopInfo, det monitor.Detection) *AttackReport {
	s.attackSeq++
	t0 := time.Now()
	report := newAttackReport(s.attackSeq, s.proc.Machine.NowMillis(), det)

	// --- Step 1: memory-state (core dump) analysis, no rollback needed. ---
	t := time.Now()
	cd := coredump.Analyze(s.proc, stop)
	report.CoreDump = cd
	initVSEF := antibody.FromCoreDump(s.newAntibodyID("initial")+"-vsef", s.name, cd)
	report.addStep("memory-state", time.Since(t))

	initial := &antibody.Antibody{
		ID:          s.newAntibodyID(antibody.StageInitial),
		Program:     s.name,
		Stage:       antibody.StageInitial,
		CreatedAtMs: s.proc.Machine.NowMillis(),
		Notes:       []string{cd.Summary()},
	}
	if initVSEF != nil {
		initial.VSEFs = append(initial.VSEFs, initVSEF)
	}
	report.InitialAntibody = initial
	report.TimeToFirstVSEF = time.Since(t0)
	s.publish(initial)

	snap := s.snapshotForAnalysis()
	if snap == nil {
		// Nothing to roll back to: deploy what we have and give up on
		// recovery (the caller will restart the service).
		report.TotalAnalysisTime = time.Since(t0)
		report.finishPart()
		return report
	}

	// Pipelined recovery: the replay of the history prefix strictly before
	// the suspect request is the same whatever the analyses conclude, so it
	// starts now, on a recovery clone, and proceeds concurrently with the
	// whole analysis tier below. Only a tool- and probe-free live machine can
	// adopt the result: stateful monitors and previously installed VSEF
	// probes rebuild their shadow state during a serial replay, which the
	// clone (which carries neither) cannot stand in for.
	var prefix *prefixReplay
	if s.cfg.PipelinedRecovery && s.proc.Machine.ProbeCount() == 0 &&
		len(s.proc.Machine.Tools()) == 0 {
		prefix = s.startPrefixReplay(snap)
	}

	// --- Steps 2-4: the heavyweight rollback-and-replay analyses, scheduled
	// by the pipeline. Each analyzer runs on its own (pooled) copy-on-write
	// clone of the checkpoint — concurrently when cfg.ParallelAnalysis is set;
	// the live process is never rolled back for analysis, only for recovery
	// below. Each fast-tier analyzer is joined exactly when its result is
	// needed, so every antibody stage ships as early as its inputs allow.
	run := s.startAnalyses(snap)
	run.ctx.Implicate("coredump", cd.FaultPC)
	report.Parallel = run.parallel

	// --- Step 2 results: memory-bug detection and the refined antibody. ---
	var membugPrimary *membug.Finding
	if ar := run.wait(membug.AnalyzerName); ar != nil {
		if res, ok := ar.finding.(*membug.Result); ok {
			report.MemBugFindings = res.Findings
			membugPrimary = res.Primary
		}
		report.recordRunOutcome(ar)
		report.addStep(ar.stepName, ar.dur)
	}
	refinedVSEF := antibody.FromMemBug(s.newAntibodyID("refined")+"-vsef", s.name, membugPrimary)
	if refinedVSEF != nil {
		refined := &antibody.Antibody{
			ID:          s.newAntibodyID(antibody.StageRefined),
			Program:     s.name,
			Stage:       antibody.StageRefined,
			CreatedAtMs: s.proc.Machine.NowMillis(),
		}
		if initVSEF != nil {
			refined.VSEFs = append(refined.VSEFs, initVSEF)
		}
		refined.VSEFs = append(refined.VSEFs, refinedVSEF)
		if membugPrimary != nil {
			refined.Notes = append(refined.Notes, membugPrimary.Summary())
		}
		report.RefinedAntibody = refined
		s.publish(refined)
		report.TimeToBestVSEF = time.Since(t0)
	} else {
		report.TimeToBestVSEF = report.TimeToFirstVSEF
	}

	// --- Step 3 results: taint analysis and exploit-input identification. ---
	var taintVSEF *antibody.VSEF
	if ar := run.wait(taint.AnalyzerName); ar != nil {
		if res, ok := ar.finding.(*taint.Result); ok {
			report.TaintFindings = res.Findings
			report.TaintDetected = res.Detected
			report.CulpritRequestID = res.Culprit
			if res.Tracker != nil {
				taintVSEF = antibody.FromTaint(s.newAntibodyID("taint")+"-vsef", s.name, res.Tracker)
			}
		}
		report.recordRunOutcome(ar)
		report.addStep(ar.stepName, ar.dur)
	}
	if report.CulpritRequestID < 0 {
		t = time.Now()
		report.CulpritRequestID = s.isolateInput(snap)
		report.IsolationUsed = true
		report.addStep("input-isolation", time.Since(t))
	}
	if report.CulpritRequestID >= 0 {
		report.CulpritPayload = s.payloadOf(report.CulpritRequestID)
		// The deferred tier restricts itself to the culprit request; feed it
		// the isolation fallback's answer too (SetCulprit keeps the first).
		run.ctx.SetCulprit(report.CulpritRequestID)
	}
	// Join any remaining fast-tier analyzers (custom registrations): the
	// final antibody must not ship before the tier that gates it. membug and
	// taint were folded into the report above; fold the rest here.
	run.waitFast()
	for _, ar := range run.fast {
		if name := ar.a.Name(); name != membug.AnalyzerName && name != taint.AnalyzerName {
			report.recordRunOutcome(ar)
			report.addStep(ar.stepName, ar.dur)
		}
	}
	report.InitialAnalysisTime = time.Since(t0)

	// --- Final antibody: best VSEFs + input signature + exploit input. It
	// ships before the deferred cross-check completes: slicing contributes
	// nothing to the antibody, so hosts should not wait for it. ---
	final := &antibody.Antibody{
		ID:          s.newAntibodyID(antibody.StageFinal),
		Program:     s.name,
		Stage:       antibody.StageFinal,
		CreatedAtMs: s.proc.Machine.NowMillis(),
	}
	if initVSEF != nil {
		final.VSEFs = append(final.VSEFs, initVSEF)
	}
	if refinedVSEF != nil {
		final.VSEFs = append(final.VSEFs, refinedVSEF)
	}
	if taintVSEF != nil {
		final.VSEFs = append(final.VSEFs, taintVSEF)
	}
	if report.CulpritPayload != nil {
		sig := antibody.ExactSignature(final.ID+"-sig", report.CulpritPayload)
		final.Sigs = append(final.Sigs, sig)
		final.ExploitInput = report.CulpritPayload
	}
	report.FinalAntibody = final
	s.publish(final)
	report.TimeToFinalAntibody = time.Since(t0)

	// --- Step 4: the deferred tier (backward-slicing cross-check) leaves the
	// client-visible path entirely: it completes on its own goroutine while
	// recovery below — and the resumed service after it — proceeds, then
	// seals the report. ---
	run.finishDeferredAsync(report, t0)

	// --- Step 5: recovery by rollback and re-execution without the attack.
	// The analysis replays above ran on shadow clones, so the live process's
	// clock still reads the moment of detection; the client-visible service
	// gap only advances by the rollback and re-execution below (this is what
	// Figure 5 measures as the recovery gap).
	t = time.Now()
	recoveryStartMs := s.proc.Machine.NowMillis()
	s.proc.ClearDropped()
	if report.CulpritRequestID >= 0 {
		s.proc.ExciseRequests(report.CulpritRequestID)
	}
	// Re-execute the logged, non-malicious requests in the sandbox; once the
	// log is exhausted the process is back in a safe, up-to-date state and is
	// switched to live mode so the ServeAll loop can continue serving queued
	// and future requests (each of which is now covered by the new VSEFs and
	// input filters). The replayed history is known benign — every request in
	// it completed service before — so a probe that raises a violation during
	// this replay is itself faulty: it is uninstalled and the replay retried
	// (bounded), instead of a bad filter taking the service down.
	appliedFinal := false
	applyFinal := func() {
		// Probes survive rollbacks; the antibody is installed once, whichever
		// path (and however many serial retries) recovery takes.
		if appliedFinal {
			return
		}
		appliedFinal = true
		if applied, err := final.Apply(s.proc, s.proxy); err == nil {
			s.applied = append(s.applied, applied)
		}
	}
	pipelined := false
	if prefix != nil {
		// Join the concurrent prefix replay. Its state is adoptable only when
		// it suspended cleanly at the suspect's boundary AND the excision
		// decision removed exactly the suspect — if the culprit were an
		// earlier request, excision would reach into the already-replayed
		// prefix and the clone's state would include the attack's effects.
		res := <-prefix.ch
		if res.stop != nil && res.stop.Reason == vm.StopWaitInput &&
			report.CulpritRequestID == prefix.suspect {
			s.proc.AdoptReplayState(res.clone, proc.ModeReplay, false)
			applyFinal()
			// Finish the (usually empty) tail: replay consumes the excised
			// suspect's log entries and reaches the wait-input boundary.
			tail := s.proc.Run(s.cfg.ReplayBudget)
			if tail.Reason == vm.StopWaitInput {
				pipelined = true
				report.RecoveryPipelined = true
				report.Recovered = true
				s.proc.SetMode(proc.ModeLive, false)
				// Start the post-recovery epoch from a fresh checkpoint so
				// later analyses never need to replay across the excised
				// attack.
				s.ckpt.Checkpoint(s.proc)
			}
			// Any other tail stop (e.g. a freshly installed probe raising a
			// violation) falls back to the full serial replay below, which
			// re-rolls back from the checkpoint and keeps the bad-probe
			// removal semantics intact.
		}
	}
	const maxBadProbeRemovals = 3
	for !pipelined {
		s.proc.Rollback(snap, proc.ModeReplay, false)
		applyFinal()
		replayStop := s.proc.Run(s.cfg.ReplayBudget)
		if replayStop.Reason == vm.StopViolation && replayStop.Violation != nil &&
			len(report.BadProbesRemoved) < maxBadProbeRemovals {
			owner := strings.TrimSuffix(replayStop.Violation.Tool, ".tracker")
			removed := s.proc.Machine.RemoveProbes(owner)
			s.proc.Machine.DetachTool(owner + ".source")
			if removed > 0 {
				report.BadProbesRemoved = append(report.BadProbesRemoved, owner)
				continue
			}
		}
		switch replayStop.Reason {
		case vm.StopWaitInput:
			report.Recovered = true
			s.proc.SetMode(proc.ModeLive, false)
			// Start the post-recovery epoch from a fresh checkpoint so later
			// analyses never need to replay across the excised attack.
			s.ckpt.Checkpoint(s.proc)
		default:
			// The replayed benign traffic itself faulted or ran away (should
			// not happen); treat recovery as failed so the caller can fall
			// back to a restart.
			report.Recovered = false
		}
		break
	}
	report.RecoveryTime = time.Since(t)
	report.RecoveryVirtualMs = s.proc.Machine.NowMillis() - recoveryStartMs
	report.RecoveryDiverged, report.RecoveryDivergence = s.proc.Diverged()
	report.addStep("recovery", report.RecoveryTime)
	report.finishPart()
	return report
}

// payloadOf returns the payload of a logged request.
func (s *Sweeper) payloadOf(requestID int) []byte {
	if _, payload, ok := s.proc.Log.FindRequest(requestID); ok {
		return append([]byte(nil), payload...)
	}
	return nil
}
