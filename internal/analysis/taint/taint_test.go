package taint_test

import (
	"testing"

	"sweeper/internal/analysis/taint"
	"sweeper/internal/apps"
	"sweeper/internal/exploit"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// replayWithTaint warms the app with one benign request, snapshots, crashes it
// with the exploit, then replays from the snapshot with the taint tracker.
func replayWithTaint(t *testing.T, app string) (*taint.Tracker, *vm.StopInfo, int) {
	t.Helper()
	spec, err := apps.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}
	proxy := netproxy.New()
	proxy.Submit(exploit.Benign(app, 0), "client", false)
	p, err := proc.New(spec.Name, spec.Image, vm.DefaultLayout(), proxy, spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
		t.Fatalf("warm-up failed: %v", stop.Reason)
	}
	snap := p.Snapshot(1)
	req, _ := proxy.Submit(payload, "worm", true)
	// At the default layout the apache1 hijack succeeds and exits rather than
	// faulting; either way the attack is in the log for the replay below.
	if stop := p.Run(0); stop.Reason != vm.StopFault && stop.Reason != vm.StopHalt {
		t.Fatalf("exploit outcome unexpected: %v", stop.Reason)
	}
	p.Rollback(snap, proc.ModeReplay, false)
	tr := taint.New(true)
	p.Machine.AttachTool(tr)
	stop := p.Run(0)
	p.Machine.DetachTool(tr.Name())
	return tr, stop, req.ID
}

func TestApache1TaintedReturnAddress(t *testing.T) {
	tr, stop, exploitID := replayWithTaint(t, "apache1")
	if !tr.Detected() {
		t.Fatal("taint analysis missed the hijack")
	}
	f := tr.Primary()
	if f.Kind != vm.ViolationTaintedControl {
		t.Errorf("kind = %v", f.Kind)
	}
	if f.Sym != "try_alias_list" {
		t.Errorf("sink in %q, want try_alias_list", f.Sym)
	}
	if id, ok := tr.ResponsibleRequest(); !ok || id != exploitID {
		t.Errorf("responsible request = %d, want %d", id, exploitID)
	}
	// Detection happens before the corrupted return executes, as a violation.
	if stop.Reason != vm.StopViolation {
		t.Errorf("stop = %v", stop.Reason)
	}
	if len(tr.Propagators()) == 0 {
		t.Error("no propagation instructions recorded for the taint VSEF")
	}
	if f.Summary() == "" || f.Label.String() == "" {
		t.Error("finding should render")
	}
}

func TestSquidFaultAttributedToExploitRequest(t *testing.T) {
	tr, stop, exploitID := replayWithTaint(t, "squid")
	if stop.Reason != vm.StopFault {
		t.Fatalf("squid replay should fault, got %v", stop.Reason)
	}
	if !tr.Detected() {
		t.Fatal("fault with tainted operands was not attributed")
	}
	if id, ok := tr.ResponsibleRequest(); !ok || id != exploitID {
		t.Errorf("responsible request = %d, want %d", id, exploitID)
	}
	if tr.TaintedBytes() == 0 {
		t.Error("no memory bytes tainted")
	}
}

func TestCVSAndApache2NotAttributedByTaint(t *testing.T) {
	// The double free and the NULL dereference do not consume tainted data in
	// a sensitive way, so taint alone cannot name the input (Sweeper falls
	// back to request isolation); what matters is no false attribution.
	for _, app := range []string{"cvs", "apache2"} {
		tr, _, _ := replayWithTaint(t, app)
		for _, f := range tr.Findings() {
			if f.Kind == vm.ViolationTaintedControl {
				t.Errorf("%s: unexpected tainted-control finding %v", app, f)
			}
		}
	}
}

func TestBenignTrafficNoTaintFindings(t *testing.T) {
	for _, app := range []string{"squid", "apache1", "apache2", "cvs"} {
		spec, _ := apps.ByName(app)
		proxy := netproxy.New()
		for i := 0; i < 6; i++ {
			proxy.Submit(exploit.Benign(app, i), "client", false)
		}
		p, err := proc.New(spec.Name, spec.Image, vm.DefaultLayout(), proxy, spec.Options)
		if err != nil {
			t.Fatal(err)
		}
		tr := taint.New(true)
		p.Machine.AttachTool(tr)
		stop := p.Run(0)
		if stop.Reason != vm.StopWaitInput {
			t.Errorf("%s: benign run under taint stopped with %v (%v)", app, stop.Reason, stop.Violation)
		}
		if tr.Detected() {
			t.Errorf("%s: false positives: %v", app, tr.Findings())
		}
	}
}

func TestTaintClearedByUntaintedOverwrite(t *testing.T) {
	tr := taint.New(false)
	// Drive the tracker directly through its exported surface: taint a byte
	// via OnInput, then simulate an untainted store over it via Propagate on
	// a real machine.
	spec, _ := apps.ByName("cvs")
	proxy := netproxy.New()
	p, err := proc.New(spec.Name, spec.Image, vm.DefaultLayout(), proxy, spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Machine
	addr := m.Layout().DataBase
	tr.OnInput(m, addr, []byte{0xAA, 0xBB}, 7)
	if tr.TaintedBytes() != 2 {
		t.Fatalf("tainted bytes = %d", tr.TaintedBytes())
	}
	// movi r1, 0 ; storeb [r2+0], r1  with r2 = addr: clears the taint.
	m.Regs[vm.R1] = 0
	m.Regs[vm.R2] = addr
	tr.Propagate(m, 0, &vm.Instr{Op: vm.OpMovI, Rd: vm.R1})
	tr.Propagate(m, 1, &vm.Instr{Op: vm.OpStoreB, Rd: vm.R2, Rs: vm.R1})
	if tr.TaintedBytes() != 1 {
		t.Errorf("overwrite should clear one byte of taint, have %d", tr.TaintedBytes())
	}
}

func TestRestrictedTrackerOnlyActsOnListedInstructions(t *testing.T) {
	spec, _ := apps.ByName("cvs")
	proxy := netproxy.New()
	p, _ := proc.New(spec.Name, spec.Image, vm.DefaultLayout(), proxy, spec.Options)
	m := p.Machine
	addr := m.Layout().DataBase

	tr := taint.NewRestricted("vsef", []int{5}, false)
	tr.OnInput(m, addr, []byte{1}, 1)
	m.Regs[vm.R2] = addr
	// A load at a non-listed instruction must not propagate.
	tr.BeforeInstr(m, 3, &vm.Instr{Op: vm.OpLoadB, Rd: vm.R1, Rs: vm.R2})
	// The same load at the listed instruction does.
	tr.BeforeInstr(m, 5, &vm.Instr{Op: vm.OpLoadB, Rd: vm.R1, Rs: vm.R2})
	props := tr.Propagators()
	if len(props) != 1 || props[0] != 5 {
		t.Errorf("propagators = %v, want [5]", props)
	}
}

// TestRestrictedPropagateDoesNotAllocate: a taint VSEF runs Propagate on every
// hit of its probed loads and stores (squid's strlen and strcat inner loops),
// so in steady state — the request buffer tainted by OnInput, bytes copied to
// a destination that is scrubbed and re-tainted request after request — the
// shadow state must not allocate, and scrubbing a page's last tainted byte
// must not drop the page for the next request to re-allocate.
func TestRestrictedPropagateDoesNotAllocate(t *testing.T) {
	spec, _ := apps.ByName("squid")
	p, err := proc.New(spec.Name, spec.Image, vm.DefaultLayout(), netproxy.New(), spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Machine
	src, dst := m.Layout().DataBase, m.Layout().StackBase+vm.PageSize-2 // dst straddles a page boundary
	tr := taint.NewRestricted("vsef", []int{7, 9, 700}, false)
	payload := make([]byte, 64)
	loadB := &vm.Instr{Op: vm.OpLoadB, Rd: vm.R1, Rs: vm.R2}
	storeW := &vm.Instr{Op: vm.OpStoreW, Rd: vm.R3, Rs: vm.R1}
	movI := &vm.Instr{Op: vm.OpMovI, Rd: vm.R1}
	request := func() {
		tr.OnInput(m, src, payload, 1)
		for i := uint32(0); i < 64; i += 4 {
			m.Regs[vm.R2], m.Regs[vm.R3] = src+i, dst+i
			tr.Propagate(m, 7, loadB)    // tainted load
			tr.Propagate(m, 700, storeW) // tainted store, past the first bitset word
		}
		for i := uint32(0); i < 64; i += 4 {
			m.Regs[vm.R3] = dst + i
			tr.Propagate(m, 9, movI)
			tr.Propagate(m, 700, storeW) // clean store scrubs the destination
		}
	}
	request()
	if got, want := tr.TaintedBytes(), 64; got != want {
		t.Fatalf("after one request %d bytes tainted, want the %d input bytes (destination scrubbed)", got, want)
	}
	if n := testing.AllocsPerRun(50, request); n != 0 {
		t.Errorf("steady-state request allocates %v times in the shadow state, want 0", n)
	}
	if props := tr.Propagators(); len(props) != 2 || props[0] != 7 || props[1] != 700 {
		t.Errorf("propagators = %v, want [7 700] in order", props)
	}
}
