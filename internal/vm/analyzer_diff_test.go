package vm_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"sweeper/internal/analysis"
	"sweeper/internal/analysis/membug"
	"sweeper/internal/analysis/slicing"
	"sweeper/internal/analysis/taint"
	"sweeper/internal/apps"
	"sweeper/internal/exploit"
	"sweeper/internal/monitor"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// TestRealAnalyzersDifferential replays each app's attack window from its
// rollback checkpoint, as the fast analysis tier does, under the real taint
// tracker (which declares the opcodes it observes, so Run skips it at the
// rest) and under the real memory-bug detector, on Machine.Run for one process
// and on the reference interpreter for its twin, in Run calls of random
// length. Every stop must match: StopInfo (violation identity included), PC,
// registers, InstrCount, Cycles and every mapped guest byte; and at the end
// so must what the analyzer concluded: findings, and for taint the
// propagators and the responsible request. The replayed requests arrive
// through recv, so the tracker has tainted input to propagate.
func TestRealAnalyzersDifferential(t *testing.T) {
	for ai, spec := range apps.All() {
		for _, tool := range []string{"taint", "membug"} {
			t.Run(spec.Name+"/"+tool, func(t *testing.T) {
				layout := monitor.RandomizedLayout(91 + int64(ai))
				var ps [2]*proc.Process
				var taints [2]*taint.Tracker
				var membugs [2]*membug.Detector
				for i := range ps {
					ps[i] = attackWindow(t, spec, layout)
					if tool == "taint" {
						taints[i] = taint.New(true)
						ps[i].Machine.AttachTool(taints[i])
					} else {
						membugs[i] = membug.New(ps[i], true)
						ps[i].Machine.AttachTool(membugs[i])
					}
				}
				fast, slow := ps[0].Machine, ps[1].Machine
				start := fast.InstrCount()
				r := rand.New(rand.NewSource(int64(ai)))
				var stop *vm.StopInfo
				for call := 0; ; call++ {
					label := fmt.Sprintf("call %d", call)
					budget := uint64(1 + r.Intn(60_000))
					fs, ss := fast.Run(budget), vm.RefRun(slow, budget)
					diffStop(t, label, fast, slow, fs, ss)
					switch {
					case (fs.Violation == nil) != (ss.Violation == nil):
						t.Errorf("%s: violation presence fast=%v slow=%v", label, fs.Violation, ss.Violation)
					case fs.Violation != nil && *fs.Violation != *ss.Violation:
						t.Errorf("%s: violation fast=%+v slow=%+v", label, *fs.Violation, *ss.Violation)
					}
					diffMappedMemory(t, label, fast, slow)
					if t.Failed() {
						return
					}
					if fs.Reason != vm.StopInstrBudget {
						stop = fs
						break
					}
				}
				if stop.Reason == vm.StopWaitInput {
					t.Fatal("the attack window replayed to the end without stopping")
				}
				if tool == "membug" {
					diffSeq(t, "findings", membugs[0].Findings(), membugs[1].Findings())
					t.Logf("%d instructions replayed, stop %v, %d findings", fast.InstrCount()-start, stop.Reason, len(membugs[0].Findings()))
					return
				}
				f, s := taints[0], taints[1]
				diffSeq(t, "findings", f.Findings(), s.Findings())
				diffSeq(t, "propagators", f.Propagators(), s.Propagators())
				fid, fok := f.ResponsibleRequest()
				sid, sok := s.ResponsibleRequest()
				if fid != sid || fok != sok {
					t.Errorf("responsible request fast=%d,%v slow=%d,%v", fid, fok, sid, sok)
				}
				if len(f.Propagators()) == 0 {
					t.Error("the tracker propagated nothing: the replay delivered no tainted input")
				}
				t.Logf("%d instructions replayed, stop %v, %d propagators, %d findings", fast.InstrCount()-start, stop.Reason, len(f.Propagators()), len(f.Findings()))
			})
		}
	}
}

// noLoopTaint, noLoopMembug and noLoopSlicer are the real analysis tools
// with vm.LoopHook hidden (a field shadows each promoted method): Run calls
// their hooks at every instruction of a byte loop, as it did before kernels
// ran under tools.
type noLoopTaint struct {
	*taint.Tracker
	LoopBound, LoopRan struct{}
}

type noLoopMembug struct {
	*membug.Detector
	LoopBound, LoopRan struct{}
}

type noLoopSlicer struct {
	*slicing.Slicer
	LoopBound, LoopRan struct{}
}

// diffSlicers compares what two slicers recorded through their exported
// searches: the node count, truncation, the backward slice from the last
// node and from each of froms (those in range), and the focused check of
// focus.
func diffSlicers(t *testing.T, label string, f, s *slicing.Slicer, focus []int, froms ...int) {
	t.Helper()
	if f.NodeCount() != s.NodeCount() || f.Truncated() != s.Truncated() {
		t.Errorf("%s: slicer recorded %d nodes (truncated=%v) fast, %d (%v) slow", label, f.NodeCount(), f.Truncated(), s.NodeCount(), s.Truncated())
		return
	}
	n := f.NodeCount()
	if n == 0 {
		return
	}
	for _, from := range append([]int{n - 1}, froms...) {
		if from < 0 || from >= n {
			continue
		}
		fs, ferr := f.BackwardSlice(from)
		ss, serr := s.BackwardSlice(from)
		if ferr != nil || serr != nil {
			t.Errorf("%s: BackwardSlice(%d): %v, %v", label, from, ferr, serr)
			return
		}
		if !slices.Equal(fs.NodeSeqs, ss.NodeSeqs) || !maps.Equal(fs.InstrSet, ss.InstrSet) {
			t.Errorf("%s: BackwardSlice(%d) has %d nodes / %d instructions fast, %d / %d slow", label, from, fs.Size(), len(fs.InstrSet), ss.Size(), len(ss.InstrSet))
		}
	}
	fm, fn, fi := f.VerifyBackward(focus)
	sm, sn, si := s.VerifyBackward(focus)
	if !slices.Equal(fm, sm) || fn != sn || fi != si {
		t.Errorf("%s: VerifyBackward(%v) = %v, %d, %d fast; %v, %d, %d slow", label, focus, fm, fn, fi, sm, sn, si)
	}
}

// implicated is what the fast tier implicates in spec's attack window at
// layout: the real memory-bug and taint analyzers each replay the window and
// implicate into one context, beside the fault's PC, which the core
// implicates from the core dump.
func implicated(t *testing.T, spec *apps.Spec, layout vm.Layout) []int {
	t.Helper()
	ctx := analysis.NewContext()
	p := attackWindow(t, spec, layout)
	if stop := p.Run(0); stop.Fault != nil {
		ctx.Implicate("coredump", stop.Fault.PC)
	}
	for _, a := range []analysis.Analyzer{membug.Analyzer{}, taint.Analyzer{}} {
		if _, err := a.Run(ctx, analysis.NewSandbox(attackWindow(t, spec, layout), 0, nil)); err != nil {
			t.Fatal(err)
		}
	}
	return ctx.Implicated()
}

// analyzerPair is one analysis tool attached to two machines: to fast as
// itself, so the hook-calling engine runs the byte loops as kernels, and to
// slow with its LoopHook hidden. done compares what the two tools concluded.
type analyzerPair struct {
	fast, slow *vm.Machine
	done       func(t *testing.T, label string)
}

// attachAnalyzer attaches tool ("taint", "membug" or "slicer") to ps[0] as
// itself and to ps[1] with LoopHook hidden. focus is the slicers' focused
// check's set.
func attachAnalyzer(t *testing.T, tool string, ps [2]*proc.Process, focus []int) analyzerPair {
	t.Helper()
	pair := analyzerPair{fast: ps[0].Machine, slow: ps[1].Machine}
	var fast, slow vm.Tool
	switch tool {
	case "taint":
		f, s := taint.New(true), taint.New(true)
		fast, slow = f, noLoopTaint{Tracker: s}
		pair.done = func(t *testing.T, label string) {
			diffSeq(t, label+" findings", f.Findings(), s.Findings())
			diffSeq(t, label+" propagators", f.Propagators(), s.Propagators())
			if f.TaintedBytes() != s.TaintedBytes() {
				t.Errorf("%s: tainted bytes fast=%d slow=%d", label, f.TaintedBytes(), s.TaintedBytes())
			}
		}
	case "membug":
		f, s := membug.New(ps[0], true), membug.New(ps[1], true)
		fast, slow = f, noLoopMembug{Detector: s}
		pair.done = func(t *testing.T, label string) {
			diffSeq(t, label+" findings", f.Findings(), s.Findings())
		}
	case "slicer":
		opts := slicing.Options{IncludeControlDeps: true}
		f, s := slicing.New(opts), slicing.New(opts)
		fast, slow = f, noLoopSlicer{Slicer: s}
		pair.done = func(t *testing.T, label string) {
			diffSlicers(t, label, f, s, focus)
			if !f.Truncated() && len(focus) > 0 {
				if missing, _, _ := f.VerifyBackward(focus); len(missing) != 0 {
					t.Errorf("%s: implicated %v not in the slice from the failure", label, missing)
				}
			}
		}
	default:
		t.Fatalf("no analyzer %q", tool)
	}
	if _, ok := slow.(vm.LoopHook); ok {
		t.Fatalf("%s: the hidden twin still implements vm.LoopHook", tool)
	}
	pair.fast.AttachTool(fast)
	pair.slow.AttachTool(slow)
	return pair
}

// run drives both machines to a stop other than the budget in Run calls of
// random length, comparing at every stop; it returns the final stop.
func (pair analyzerPair) run(t *testing.T, r *rand.Rand, label string, most int) *vm.StopInfo {
	t.Helper()
	for call := 0; ; call++ {
		l := fmt.Sprintf("%s call %d", label, call)
		budget := uint64(1 + r.Intn(most))
		fs, ss := pair.fast.Run(budget), pair.slow.Run(budget)
		diffStop(t, l, pair.fast, pair.slow, fs, ss)
		switch {
		case (fs.Violation == nil) != (ss.Violation == nil):
			t.Errorf("%s: violation presence fast=%v slow=%v", l, fs.Violation, ss.Violation)
		case fs.Violation != nil && *fs.Violation != *ss.Violation:
			t.Errorf("%s: violation fast=%+v slow=%+v", l, *fs.Violation, *ss.Violation)
		}
		diffMappedMemory(t, l, pair.fast, pair.slow)
		if fs.Reason != vm.StopInstrBudget || t.Failed() {
			pair.done(t, label)
			return fs
		}
	}
}

// TestLoopHookDifferential replays each app's attack window, at the default
// layout and at randomised ones, under each analysis tool, once as the tool
// is (the loops run as kernels) and once with its vm.LoopHook hidden (every
// hook at every instruction), on Machine.Run both, in Run calls of random
// length. Every stop must match — StopInfo, PC, registers, flags,
// InstrCount, Cycles and every mapped guest byte — and so must, at the end,
// the findings, for taint the propagators and the tainted byte count, and
// for the slicer the node count, truncation, the backward slice from the
// failure and the focused check of the app's real implicated set (which the
// slice must contain). The kernels must have run on one side and not on the
// other.
func TestLoopHookDifferential(t *testing.T) {
	layouts := 60
	if testing.Short() {
		layouts = 6
	}
	for ai, spec := range apps.All() {
		for _, tool := range []string{"taint", "membug", "slicer"} {
			t.Run(spec.Name+"/"+tool, func(t *testing.T) {
				var retired uint64
				for i := 0; i < layouts && !t.Failed(); i++ {
					layout := vm.DefaultLayout()
					if i > 0 {
						layout = monitor.RandomizedLayout(int64(1000*ai + i))
					}
					var focus []int
					if tool == "slicer" {
						focus = implicated(t, spec, layout)
					}
					pair := attachAnalyzer(t, tool, [2]*proc.Process{attackWindow(t, spec, layout), attackWindow(t, spec, layout)}, focus)
					f0, s0 := pair.fast.LoopRetired(), pair.slow.LoopRetired()
					r := rand.New(rand.NewSource(int64(i)))
					pair.run(t, r, fmt.Sprintf("layout %d", i), 80_000)
					if n := pair.slow.LoopRetired() - s0; n != 0 {
						t.Errorf("layout %d: kernels retired %d instructions with the interface hidden", i, n)
					}
					retired += pair.fast.LoopRetired() - f0
				}
				if retired == 0 {
					t.Error("no kernel ran under the tool")
				}
			})
		}
	}
}

// TestLoopKernelCoverageUnderTools pins how many of the squid exploit
// window's instructions the loop kernels retire when the window is replayed
// under each analysis tool, as the fast and deferred tiers replay it: under
// the taint tracker and under the slicer every loop runs as a kernel; under
// the memory-bug detector every loop does until the overflow stops the
// replay.
func TestLoopKernelCoverageUnderTools(t *testing.T) {
	spec := apps.Squid()
	for _, c := range []struct {
		name              string
		tool              func(p *proc.Process) vm.Tool
		instrs, byKernels uint64
	}{
		{"taint", func(*proc.Process) vm.Tool { return taint.New(true) }, 304060, 134719},
		{"membug", func(p *proc.Process) vm.Tool { return membug.New(p, true) }, 276060, 106719},
		{"slicer", func(*proc.Process) vm.Tool { return slicing.New(slicing.Options{IncludeControlDeps: true}) }, 304060, 134719},
	} {
		p := attackWindow(t, spec, vm.DefaultLayout())
		p.Machine.AttachTool(c.tool(p))
		i0, k0 := p.Machine.InstrCount(), p.Machine.LoopRetired()
		stop := p.Run(0)
		instrs, byKernels := p.Machine.InstrCount()-i0, p.Machine.LoopRetired()-k0
		t.Logf("%s: stop %v after %d instructions, %d by kernels (%.1f%%)", c.name, stop.Reason, instrs, byKernels, 100*float64(byKernels)/float64(instrs))
		if instrs != c.instrs || byKernels != c.byKernels {
			t.Errorf("%s: %d instructions, %d by kernels; want %d, %d", c.name, instrs, byKernels, c.instrs, c.byKernels)
		}
	}
}

// attackWindow returns a process of spec at layout rolled back, in replay
// mode, to its checkpoint before an exploit: it served one benign request,
// was checkpointed, then served four more and ran the exploit to its end.
func attackWindow(t *testing.T, spec *apps.Spec, layout vm.Layout) *proc.Process {
	t.Helper()
	ex, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}
	in := netproxy.New()
	in.Submit(exploit.Benign(spec.Name, 0), "client", false)
	p, err := proc.New(spec.Name, spec.Image, layout, in, spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
		t.Fatalf("benign request: %v", stop.Reason)
	}
	snap := p.Snapshot(1)
	for i := 1; i <= 4; i++ {
		in.Submit(exploit.Benign(spec.Name, i), "client", false)
	}
	in.Submit(ex, "worm", true)
	if stop := p.Run(0); stop.Reason == vm.StopWaitInput {
		t.Fatal("the exploit did not stop the guest")
	}
	p.Rollback(snap, proc.ModeReplay, false)
	return p
}
