package coredump_test

import (
	"strings"
	"testing"

	"sweeper/internal/analysis/coredump"
	"sweeper/internal/apps"
	"sweeper/internal/exploit"
	"sweeper/internal/monitor"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// crashApp runs the named app's canned exploit (after a benign request) until
// the lightweight monitor would trip and returns the faulted process.
func crashApp(t *testing.T, name string, layout vm.Layout) (*proc.Process, *vm.StopInfo) {
	t.Helper()
	spec, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}
	proxy := netproxy.New()
	proxy.Submit(exploit.Benign(name, 0), "client", false)
	proxy.Submit(payload, "worm", true)
	p, err := proc.New(spec.Name, spec.Image, layout, proxy, spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	stop := p.Run(0)
	if stop.Reason != vm.StopFault {
		t.Fatalf("%s exploit did not fault: %v", name, stop.Reason)
	}
	return p, stop
}

func TestAnalyzeSquidHeapOverflow(t *testing.T) {
	p, stop := crashApp(t, "squid", vm.DefaultLayout())
	r := coredump.Analyze(p, stop)
	if r.Class != coredump.ClassHeapOverflow {
		t.Errorf("class = %v, want heap overflow", r.Class)
	}
	if r.FaultSym != "strcat" {
		t.Errorf("fault attributed to %q", r.FaultSym)
	}
	if r.CallerSym != "ftpBuildTitleUrl" {
		t.Errorf("caller = %q, want ftpBuildTitleUrl", r.CallerSym)
	}
	if !r.IsWrite {
		t.Error("the faulting access is a write")
	}
	if !strings.Contains(r.Summary(), "strcat") {
		t.Errorf("summary %q", r.Summary())
	}
}

func TestAnalyzeApache1StackSmash(t *testing.T) {
	layout := monitor.RandomizedLayout(11)
	p, stop := crashApp(t, "apache1", layout)
	r := coredump.Analyze(p, stop)
	if r.Class != coredump.ClassStackSmash {
		t.Errorf("class = %v, want stack smashing", r.Class)
	}
	if r.FaultSym != "try_alias_list" {
		t.Errorf("fault in %q, want try_alias_list", r.FaultSym)
	}
	if r.StackConsistent {
		t.Error("the smashed stack should be reported as inconsistent")
	}
	if !strings.Contains(r.Summary(), "stack inconsistent") {
		t.Errorf("summary %q", r.Summary())
	}
}

func TestAnalyzeApache2NullDeref(t *testing.T) {
	p, stop := crashApp(t, "apache2", vm.DefaultLayout())
	r := coredump.Analyze(p, stop)
	if r.Class != coredump.ClassNullDeref || !r.NullDeref {
		t.Errorf("class = %v nullderef=%v", r.Class, r.NullDeref)
	}
	if r.FaultSym != "is_ip" {
		t.Errorf("fault in %q, want is_ip", r.FaultSym)
	}
	if !r.HeapConsistent || !r.StackConsistent {
		t.Error("a NULL dereference leaves heap and stack intact")
	}
}

func TestAnalyzeCVSDoubleFree(t *testing.T) {
	p, stop := crashApp(t, "cvs", vm.DefaultLayout())
	r := coredump.Analyze(p, stop)
	if r.Class != coredump.ClassDoubleFree {
		t.Errorf("class = %v, want double free", r.Class)
	}
	if r.FaultSym != "free" {
		t.Errorf("fault in %q, want the free wrapper", r.FaultSym)
	}
	if r.CallerSym != "dirswitch" {
		t.Errorf("caller = %q, want dirswitch", r.CallerSym)
	}
}

func TestAnalyzeBenignHaltIsUnclassified(t *testing.T) {
	spec, _ := apps.ByName("cvs")
	proxy := netproxy.New()
	p, err := proc.New(spec.Name, spec.Image, vm.DefaultLayout(), proxy, spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	stop := p.Run(5_000) // blocks waiting for input
	r := coredump.Analyze(p, stop)
	if r.Class != coredump.ClassUnknown {
		t.Errorf("class for a non-crash = %v", r.Class)
	}
	if !r.HeapConsistent || !r.StackConsistent {
		t.Error("healthy process should look consistent")
	}
}

func TestAnalyzeViolationStops(t *testing.T) {
	p, _ := crashApp(t, "cvs", vm.DefaultLayout())
	stop := &vm.StopInfo{Reason: vm.StopViolation, Violation: &vm.Violation{
		Kind: vm.ViolationDoubleFree, Tool: "test", PC: 3, Sym: "dirswitch", Detail: "x",
	}}
	r := coredump.Analyze(p, stop)
	if r.Class != coredump.ClassDoubleFree {
		t.Errorf("violation classification = %v", r.Class)
	}
	stop.Violation.Kind = vm.ViolationStackSmash
	if r := coredump.Analyze(p, stop); r.Class != coredump.ClassStackSmash {
		t.Errorf("stack violation classification = %v", r.Class)
	}
	stop.Violation.Kind = vm.ViolationNullDeref
	if r := coredump.Analyze(p, stop); r.Class != coredump.ClassNullDeref {
		t.Errorf("null violation classification = %v", r.Class)
	}
}

func TestClassString(t *testing.T) {
	for c := coredump.ClassUnknown; c <= coredump.ClassHeapCorruption; c++ {
		if c.String() == "" {
			t.Errorf("class %d has no name", c)
		}
	}
	if !strings.Contains(coredump.Class(99).String(), "?") {
		t.Error("unknown class should be marked")
	}
}
