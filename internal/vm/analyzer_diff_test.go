package vm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"sweeper/internal/analysis/membug"
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
