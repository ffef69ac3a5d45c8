package core

import (
	"fmt"

	"sweeper/internal/analysis"
	"sweeper/internal/analysis/membug"
	"sweeper/internal/analysis/taint"
	"sweeper/internal/antibody"
	"sweeper/internal/monitor"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// VerifyDecision is the outcome of verifying a received antibody before
// adoption.
type VerifyDecision struct {
	// Adoptable says the antibody may be installed.
	Adoptable bool
	// Reproduced says an exploit replay ran and reproduced a detectable
	// violation (VSEF-only antibodies are adoptable without one).
	Reproduced bool
	// Transient says the verdict proves nothing about the antibody: the
	// sandbox could not be built or did not quiesce. The caller should retry
	// rather than record the antibody as rejected-forever.
	Transient bool
	// Reason explains the decision.
	Reason string
	// Regenerated holds, per analyzer, the findings the fast analysis tier
	// re-derived by replaying the exploit inside the verification sandbox —
	// the paper's strongest trust model: the receiving host does not merely
	// observe "a violation", it regenerates the analysis evidence (and could
	// regenerate the antibody) locally instead of trusting the sender's.
	// Present only when the exploit reproduced.
	Regenerated map[string]analysis.Finding
}

// VerifyAntibody decides whether an antibody received from an untrusted
// publisher may be adopted, the paper's verify-before-adopt step:
//
//   - A VSEF-only antibody (no input signatures, no exploit input) is
//     adoptable without verification — by their nature VSEFs cannot be
//     harmful, an incorrect one only adds unnecessary checking.
//   - Input signatures are different: a malicious signature silently censors
//     whatever it matches. Signatures are therefore only adoptable alongside
//     an exploit input that (a) every signature matches and (b) demonstrably
//     reproduces a violation when replayed against this guest in a sandbox.
//   - An antibody whose exploit input does not reproduce any violation —
//     corrupted in transit, generated for a different program, or a benign
//     payload masquerading as an exploit to poison the filters — is rejected.
//
// The antibodies installed on this guest are re-applied (VSEF probes only, no
// input filters) to the sandbox, so an exploit that only the host's existing
// filters can detect — e.g. a polymorphic variant the generating host caught
// via an earlier antibody's probes — still reproduces.
func (s *Sweeper) VerifyAntibody(a *antibody.Antibody) VerifyDecision {
	dec, rep := s.verifyGate(a)
	if rep != nil {
		dec.Regenerated = rep.regenerate(0)
	}
	return dec
}

// replayBudgetSlices bounds how many ReplayBudget-sized slices each sandbox
// run may take before the verification gives up.
const replayBudgetSlices = 8

// runToQuiescence drives a sandbox clone until it blocks for input, stops for
// another reason, or exhausts the slice allowance.
func (s *Sweeper) runToQuiescence(clone *proc.Process) *vm.StopInfo {
	var stop *vm.StopInfo
	for i := 0; i < replayBudgetSlices; i++ {
		stop = clone.Run(s.cfg.ReplayBudget)
		if stop.Reason != vm.StopInstrBudget {
			break
		}
	}
	return stop
}

// reproduction is an exploit replay that passed the gate and has not been
// regenerated from yet: the sandbox the exploit stopped, and the quiescent
// snapshot taken just before the exploit went in, which the regeneration
// sub-clones replay from. Nothing in it is shared with the live process, so
// regenerate may run on any goroutine.
type reproduction struct {
	s    *Sweeper
	sb   *analysis.Sandbox
	base *proc.Snapshot
}

// verifyGate is the first half of VerifyAntibody — everything that decides
// whether the antibody may be adopted. Past the signature checks it replays
// the exploit: it builds a (pooled) copy-on-write clone of the latest
// checkpoint, drains the clone's logged replay window to reach a quiescent,
// up-to-date state, switches it live, feeds it the exploit through its own
// fresh (filterless) proxy and classifies the stop. The live process, its
// proxy and its clock are never touched, but the gate reads the live
// process's checkpoint and log, so it runs on the serving goroutine.
//
// A non-nil reproduction is returned when the exploit reproduced and a
// fast-tier analyzer is configured to regenerate from it; the caller owes it
// a regenerate call (which also returns the sandbox to the pool), on this
// goroutine or another.
func (s *Sweeper) verifyGate(a *antibody.Antibody) (VerifyDecision, *reproduction) {
	if len(a.ExploitInput) == 0 {
		if len(a.Sigs) > 0 {
			return VerifyDecision{Reason: "input signatures without an exploit input to verify them"}, nil
		}
		return VerifyDecision{Adoptable: true, Reason: "VSEF-only antibody; harmless by construction"}, nil
	}
	for _, sig := range a.Sigs {
		if !sig.Match(a.ExploitInput) {
			return VerifyDecision{Reason: fmt.Sprintf("signature %s does not match the attached exploit input", sig.Name())}, nil
		}
	}
	snap := s.ckpt.Latest()
	if snap == nil {
		return VerifyDecision{Transient: true, Reason: "no checkpoint to build a verification sandbox from"}, nil
	}
	sb, err := s.sandbox(snap)
	if err != nil {
		return VerifyDecision{Transient: true, Reason: fmt.Sprintf("verification sandbox: %v", err)}, nil
	}
	// The sandbox goes back to the pool here unless a reproduction takes it.
	handedOver := false
	defer func() {
		if !handedOver {
			sb.Release()
		}
	}()
	clone := sb.Proc
	// The sandbox must detect everything the live guest would: clones carry
	// no tools or probes, so re-attach the configured lightweight monitor
	// (the layout, and with it ASLR, is inherited) and re-apply the VSEF
	// probes of the installed antibodies, in install order, less any VSEF
	// recovery removed as faulty. Without these, an exploit the live guest
	// catches via e.g. the shadow stack or an earlier antibody's probes would
	// fail to "reproduce" on a bare clone and a genuine antibody would be
	// rejected. Input filters are deliberately NOT installed on the sandbox
	// proxy: they would swallow the exploit before it could prove anything.
	if s.cfg.ShadowStack {
		clone.Machine.AttachTool(monitor.NewShadowStack())
	}
	for _, ap := range s.installed {
		if _, err := ap.Antibody().Apply(clone, nil); err != nil {
			return VerifyDecision{Transient: true, Reason: fmt.Sprintf("verification sandbox: re-applying %s: %v", ap.Antibody().ID, err)}, nil
		}
	}
	if stop := s.runToQuiescence(clone); stop.Reason != vm.StopWaitInput {
		return VerifyDecision{Transient: true, Reason: fmt.Sprintf("verification sandbox did not quiesce: %v", stop.Reason)}, nil
	}
	// Capture the quiescent state: the regeneration sub-clones replay from
	// here, with the exploit as the only logged request after it. The
	// snapshot (a page-map copy plus COW arming) is only worth taking when a
	// fast-tier analyzer exists to consume it.
	var base *proc.Snapshot
	if s.hasFastAnalyzers() {
		base = clone.Snapshot(0)
	}
	clone.SetMode(proc.ModeLive)
	clone.Proxy().Submit(a.ExploitInput, "verifier", true)
	stop := s.runToQuiescence(clone)
	det := monitor.Classify(stop)
	if !det.Suspicious {
		// An exploit that neither quiesces nor violates (e.g. runs the budget
		// out or halts the sandbox) is deterministic: rejecting it is final.
		return VerifyDecision{Reason: fmt.Sprintf("exploit replay did not reproduce a violation (stop: %v)", stop.Reason)}, nil
	}
	dec := VerifyDecision{Adoptable: true, Reproduced: true, Reason: "exploit replay reproduced: " + det.Reason}
	if base == nil {
		return dec, nil
	}
	handedOver = true
	return dec, &reproduction{s: s, sb: sb, base: base}
}

// RegenerateAntibody synthesises a local replacement for a verified received
// antibody from the evidence this host re-derived itself: VSEF probes built
// from the regenerated memory-bug and taint findings, plus an exact input
// signature over the attached exploit input (which this host just replayed
// and watched reproduce — it is the one part of the sender's antibody that
// was independently validated). Installing the regenerated antibody removes
// the last trust in the sender's contents: nothing of the received probe or
// filter definitions survives, only the exploit they were claimed to stop.
//
// Returns nil when the regenerated findings cannot produce any VSEF — the
// caller keeps the verified sender antibody it installed at the gate.
func (s *Sweeper) RegenerateAntibody(a *antibody.Antibody, dec VerifyDecision) *antibody.Antibody {
	if !dec.Reproduced || len(dec.Regenerated) == 0 || len(a.ExploitInput) == 0 {
		return nil
	}
	// "+regen" keeps antibodyFamily(ID) — everything up to the last '-' —
	// identical to the sender's, so stage replacement keeps working across
	// regenerated and original antibodies of the same attack.
	id := a.ID + "+regen"
	var mb, tt *antibody.VSEF
	if res, ok := dec.Regenerated[membug.AnalyzerName].(*membug.Result); ok {
		mb = antibody.FromMemBug(id+"-vsef", a.Program, res.Primary)
	}
	if res, ok := dec.Regenerated[taint.AnalyzerName].(*taint.Result); ok && res.Tracker != nil {
		tt = antibody.FromTaint(id+"-taint-vsef", a.Program, res.Tracker)
	}
	if mb == nil && tt == nil {
		return nil
	}
	return antibody.New(id, a.Program, a.Stage, s.proc.Machine.NowMillis(), []*antibody.VSEF{mb, tt}, a.ExploitInput,
		"regenerated locally from verified exploit replay of "+a.ID)
}

// hasFastAnalyzers reports whether any configured analyzer runs in the fast
// tier.
func (s *Sweeper) hasFastAnalyzers() bool {
	for _, a := range s.analyzers {
		if a.Cost() == analysis.TierFast {
			return true
		}
	}
	return false
}

// regenerate is the second half of a verification: it re-runs the configured
// fast-tier analyzers against the reproduced exploit, each on its own clone
// of the sandbox's quiescent state, replaying only the candidate request, and
// releases the sandbox. Sub-clones are built directly from the sandbox (not
// the pool — their log view belongs to the sandbox, not the live process).
// A non-zero yieldEvery chunks the replays like the deferred analysis tier's.
// Failures are tolerated: regeneration is corroborating evidence, not a gate.
func (r *reproduction) regenerate(yieldEvery uint64) map[string]analysis.Finding {
	s := r.s
	defer r.sb.Release()
	out := make(map[string]analysis.Finding)
	ctx := analysis.NewContext()
	for _, a := range s.analyzers {
		if a.Cost() != analysis.TierFast {
			continue
		}
		sub, err := r.sb.Proc.Clone(r.base)
		if err != nil {
			continue
		}
		sb := analysis.NewSandbox(sub, s.cfg.ReplayBudget, nil)
		sb.SetYieldEvery(yieldEvery)
		f, err := runAnalyzer(a, ctx, sb)
		if err != nil || f == nil {
			continue
		}
		out[a.Name()] = f
	}
	return out
}
