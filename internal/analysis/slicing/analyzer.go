package slicing

import (
	"fmt"

	"sweeper/internal/analysis"
)

// AnalyzerName is the pipeline name of the backward-slicing analyzer.
const AnalyzerName = "slicing"

// Result is the slicing analyzer's pipeline finding: the consistency
// cross-check of the other analyses ("anything they blame must be in the
// backward slice from the failure").
type Result struct {
	// Slice is the materialised backward slice. It is nil in focused mode,
	// where only the targeted reachability check runs.
	Slice *Slice
	// Nodes and Instrs count the dynamic and static instructions in the
	// slice — or, in focused mode, the ones explored before every implicated
	// instruction was found.
	Nodes  int
	Instrs int
	// Missing lists the implicated static instructions NOT in the slice;
	// Consistent is true when there are none.
	Missing    []int
	Consistent bool
	// Restricted says the replay covered only the culprit request: the fast
	// tier had already identified the attack input, so the dependence tracker
	// skipped the benign requests in the window.
	Restricted bool
	// Focused says the check ran as a targeted backward reachability search
	// (early exit once every implicated instruction was found) instead of
	// materialising the full slice.
	Focused bool
	// ControlPruned says control-dependence fan-out was pruned: no analysis
	// implicated an instruction beyond the memory-state fault PC, so the
	// full-slice fallback recorded data dependences only. The slice from
	// the failure then covers the instructions whose *data* influenced it —
	// the useful diagnostic — instead of ballooning to essentially the whole
	// execution through the every-instruction→last-branch edges.
	ControlPruned bool
	// Recorded counts the dynamic instructions the dependence tracker
	// recorded during the replay (the slice explores a subset of these).
	Recorded int
	// Truncated says the recording was cut short — the replay budget ran out
	// or MaxNodes was reached before the failure — so its last node is not
	// the failure and no slice was taken from it: the verdict is inconclusive
	// (Consistent is false, Missing empty).
	Truncated bool
	cutBy     string // what cut the recording short, for Summary
}

// Analyzer implements analysis.Finding.
func (r *Result) Analyzer() string { return AnalyzerName }

// Summary implements analysis.Finding.
func (r *Result) Summary() string {
	if r.Truncated {
		return fmt.Sprintf("INCONCLUSIVE: recording cut short at %d dynamic instructions (%s) before the failure; nothing was verified", r.Recorded, r.cutBy)
	}
	if !r.Consistent {
		return fmt.Sprintf("INCONSISTENT: implicated instructions %v not in the backward slice", r.Missing)
	}
	mode := "full slice"
	if r.Focused {
		mode = "focused check"
	} else if r.ControlPruned {
		mode = "data-only slice"
	}
	return fmt.Sprintf("slice verifies the other analyses (%d dynamic / %d static instructions, %s)", r.Nodes, r.Instrs, mode)
}

// Analyzer adapts dynamic backward slicing to the analysis.Analyzer API. It
// is the most expensive analysis, and it only sanity-checks the others, so it
// runs in the deferred tier — after the antibody has shipped and recovery has
// resumed service. When the fast tier produced both a memory-bug and a taint
// implication (and named the culprit request), the dependence tracker is
// restricted to the culprit's execution and the check runs as a targeted
// reachability search over the implicated instructions, cutting the slicing
// critical path without weakening the cross-check. On the full-slice
// fallback path — taken when nothing beyond the memory-state fault PC was
// implicated (neither membug, taint, nor any custom analyzer) —
// control-dependence fan-out is pruned: with nothing of the fast tier's to
// verify, the every-instruction→last-branch edges only inflate the slice to
// the whole execution, so the fallback records data dependences alone (the
// failure's own instruction, the one implication memory-state analysis
// contributes, is the slice root and stays trivially covered).
type Analyzer struct {
	// ForceControlDeps keeps control-dependence tracking on even on the
	// fallback path — the pre-prune behaviour, retained for the benchmarks
	// that measure what the prune saves.
	ForceControlDeps bool
}

// Name implements analysis.Analyzer.
func (Analyzer) Name() string { return AnalyzerName }

// Cost implements analysis.Analyzer.
func (Analyzer) Cost() analysis.Tier { return analysis.TierDeferred }

// Run implements analysis.Analyzer.
func (a Analyzer) Run(ctx *analysis.Context, sb *analysis.Sandbox) (analysis.Finding, error) {
	focus := ctx.Implicated()
	culprit, haveCulprit := ctx.Culprit()

	// Restrict the replay to the culprit request only when both fast-tier
	// analyses implicated instructions: with a single corroborating analysis
	// the full window is kept, trading time for the stronger check. A window
	// that holds the culprit alone is restricted already, with nothing to
	// drop.
	res := &Result{}
	if haveCulprit && ctx.HasImplication("membug") && ctx.HasImplication("taint") {
		var others []int
		for _, id := range sb.Proc.Log.RequestsSince(sb.Proc.Log.Cursor()) {
			if id == culprit {
				res.Restricted = true
			} else {
				others = append(others, id)
			}
		}
		if res.Restricted && len(others) > 0 {
			sb.Proc.ExciseRequests(others...)
		}
	}

	// The full-slice fallback (no analysis implicated anything) has nothing
	// to verify beyond the failure point itself, which any backward slice
	// contains by construction; recording control dependences there only
	// fans the slice out to essentially the whole execution. Prune them and
	// keep the focused data slice as the diagnostic. The memory-state step's
	// implication — the fault PC, always recorded — does not count against
	// the prune: it is the slice root, covered by any slice. An implication
	// from any real analyzer (membug, taint, or a custom registration) may
	// be reachable only through control flow, so it keeps control deps on.
	res.ControlPruned = !a.ForceControlDeps
	for _, name := range ctx.ImplicatedBy() {
		if name != "coredump" {
			res.ControlPruned = false
			break
		}
	}
	sl := New(Options{IncludeControlDeps: !res.ControlPruned})
	sb.Machine().AttachTool(sl)
	sb.Run()
	res.Recorded = sl.NodeCount()

	// A recording that stopped before the failure has an arbitrary
	// instruction as its last node; a slice rooted there says nothing about
	// the attack, whichever way its check comes out.
	switch {
	case sl.Truncated():
		res.cutBy = "node limit reached"
	case sb.Exhausted():
		res.cutBy = fmt.Sprintf("replay budget of %d instructions exhausted", sb.Budget)
	}
	if res.cutBy != "" {
		res.Truncated = true
		return res, nil
	}

	if res.Restricted && len(focus) > 0 {
		missing, nodes, instrs := sl.VerifyBackward(focus)
		res.Focused = true
		res.Missing = missing
		res.Nodes = nodes
		res.Instrs = instrs
	} else {
		slice, err := sl.BackwardSliceFromLast()
		if err != nil {
			return nil, err
		}
		res.Slice = slice
		res.Nodes = slice.Size()
		res.Instrs = len(slice.InstrSet)
		res.Missing = slice.Verify(focus...)
	}
	res.Consistent = len(res.Missing) == 0
	return res, nil
}
