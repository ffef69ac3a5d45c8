package membug_test

import (
	"strings"
	"testing"

	"sweeper/internal/analysis/membug"
	"sweeper/internal/apps"
	"sweeper/internal/exploit"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// replayWithDetector serves a benign request, snapshots, lets the exploit
// crash the app, then rolls back and replays with the memory-bug detector
// attached — the way Sweeper actually uses it.
func replayWithDetector(t *testing.T, app string, stopOnFirst bool) (*membug.Detector, *vm.StopInfo, *proc.Process) {
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
		t.Fatalf("benign warm-up failed: %v", stop.Reason)
	}
	snap := p.Snapshot(1)
	proxy.Submit(payload, "worm", true)
	// At the default layout the apache1 hijack succeeds and exits rather than
	// faulting; either way the attack is in the log and the replay below is
	// what the detector analyses.
	if stop := p.Run(0); stop.Reason != vm.StopFault && stop.Reason != vm.StopHalt {
		t.Fatalf("exploit outcome unexpected: %v", stop.Reason)
	}
	p.Rollback(snap, proc.ModeReplay, false)
	det := membug.New(p, stopOnFirst)
	p.Machine.AttachTool(det)
	stop := p.Run(0)
	p.Machine.DetachTool(det.Name())
	return det, stop, p
}

func TestDetectsSquidHeapOverflow(t *testing.T) {
	det, stop, _ := replayWithDetector(t, "squid", true)
	f := det.Primary()
	if f == nil {
		t.Fatal("no finding")
	}
	if f.Kind != membug.KindHeapOverflow {
		t.Errorf("kind = %v", f.Kind)
	}
	if f.Sym != "strcat" {
		t.Errorf("overflowing store attributed to %q, want strcat", f.Sym)
	}
	if stop.Reason != vm.StopViolation {
		t.Errorf("stop-on-first should raise a violation, got %v", stop.Reason)
	}
	if !strings.Contains(f.Summary(), "heap buffer overflow") {
		t.Errorf("summary %q", f.Summary())
	}
}

func TestDetectsApache1StackSmashAndVictim(t *testing.T) {
	det, stop, _ := replayWithDetector(t, "apache1", true)
	f := det.Primary()
	if f == nil {
		t.Fatal("no finding")
	}
	if f.Kind != membug.KindStackSmash {
		t.Errorf("kind = %v", f.Kind)
	}
	if f.Sym != "lmatcher" {
		t.Errorf("smashing store attributed to %q, want lmatcher", f.Sym)
	}
	if f.VictimSym != "try_alias_list" {
		t.Errorf("victim = %q, want try_alias_list", f.VictimSym)
	}
	if stop.Reason != vm.StopViolation || stop.Violation.Kind != vm.ViolationStackSmash {
		t.Errorf("stop = %v %v", stop.Reason, stop.Violation)
	}
}

func TestDetectsCVSDoubleFreeWithCaller(t *testing.T) {
	det, _, p := replayWithDetector(t, "cvs", true)
	f := det.Primary()
	if f == nil {
		t.Fatal("no finding")
	}
	if f.Kind != membug.KindDoubleFree {
		t.Errorf("kind = %v", f.Kind)
	}
	if f.CallerIdx < 0 {
		t.Fatal("double free has no call site")
	}
	if sym := p.Machine.SymbolAt(f.CallerIdx); sym != "dirswitch" {
		t.Errorf("call site in %q, want dirswitch", sym)
	}
	// The call site is the labelled second free.
	spec, _ := apps.ByName("cvs")
	if want := spec.Image.Symbols["dirswitch.second_free"]; f.CallerIdx != want {
		t.Errorf("call site @%d, want @%d", f.CallerIdx, want)
	}
}

func TestApache2HasNoMemoryBug(t *testing.T) {
	det, stop, _ := replayWithDetector(t, "apache2", true)
	if len(det.Findings()) != 0 {
		t.Errorf("NULL dereference should not be a memory bug finding: %v", det.Findings())
	}
	// The replay still reproduces the fault itself.
	if stop.Reason != vm.StopFault {
		t.Errorf("stop = %v", stop.Reason)
	}
}

func TestBenignTrafficProducesNoFindings(t *testing.T) {
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
		det := membug.New(p, true)
		p.Machine.AttachTool(det)
		stop := p.Run(0)
		if stop.Reason != vm.StopWaitInput {
			t.Errorf("%s: benign run under membug stopped with %v (%v)", app, stop.Reason, stop.Violation)
		}
		if len(det.Findings()) != 0 {
			t.Errorf("%s: false positives: %v", app, det.Findings())
		}
	}
}

func TestContinueAfterFirstFindingCollectsAll(t *testing.T) {
	det, _, _ := replayWithDetector(t, "squid", false)
	if len(det.Findings()) == 0 {
		t.Fatal("no findings with stopOnFirst disabled")
	}
	// Without stopping, the overflow keeps writing out of bounds, so several
	// findings accumulate and all blame the same store.
	for _, f := range det.Findings() {
		if f.Sym != "strcat" {
			t.Errorf("finding blames %q", f.Sym)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := membug.KindStackSmash; k <= membug.KindWildFree; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if !strings.Contains(membug.Kind(99).String(), "?") {
		t.Error("unknown kind should be marked")
	}
}

// TestLoopBoundByRanges checks the detector's bound on a run of a byte
// loop's iterations at the edges it is worked out from: a live chunk's end,
// the heap region's ends, a freed chunk and a header (where it declines), a
// tracked return slot, and the engine's own most.
func TestLoopBoundByRanges(t *testing.T) {
	spec := apps.Squid()
	p, err := proc.New(spec.Name, spec.Image, vm.DefaultLayout(), netproxy.New(), spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	live, err := p.Alloc.Malloc(40)
	if err != nil {
		t.Fatal(err)
	}
	freed, err := p.Alloc.Malloc(40)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Alloc.Free(freed); err != nil {
		t.Fatal(err)
	}
	c, ok := p.Alloc.ChunkContaining(live)
	if !ok {
		t.Fatal("no chunk holds the live allocation")
	}
	liveEnd := c.Addr + c.Size
	d := membug.New(p, true)
	slot := vm.DefaultLayout().StackTop() - 64
	d.OnCall(p.Machine, 0, 0, 0, slot)
	base, end := p.Alloc.Base(), p.Alloc.End()
	const all = uint64(1) << 40
	for _, c := range []struct {
		name       string
		l          vm.ByteLoop
		most, want uint64
	}{
		{"read in a live chunk", vm.ByteLoop{Src: live + 10}, all, uint64(liveEnd - live - 10)},
		{"read at a live chunk's last byte", vm.ByteLoop{Src: liveEnd - 1}, all, 1},
		{"read in a freed chunk", vm.ByteLoop{Src: freed + 2}, all, 0},
		{"read of a header", vm.ByteLoop{Src: live - 4}, all, 0},
		{"read below the heap", vm.ByteLoop{Src: base - 100}, all, 100},
		{"read above the heap", vm.ByteLoop{Src: end + 5}, all, 1<<32 - uint64(end+5)},
		{"read in the heap's last bytes", vm.ByteLoop{Src: end - 10}, all, 0},
		{"read below the heap, most smaller", vm.ByteLoop{Src: base - 100}, 7, 7},
		{"copy bounded by its source", vm.ByteLoop{Copy: true, Src: liveEnd - 3, Dst: base - 100}, all, 3},
		{"copy into a live chunk", vm.ByteLoop{Copy: true, Src: base - 1000, Dst: live + 1}, all, uint64(liveEnd - live - 1)},
		{"copy into a freed chunk", vm.ByteLoop{Copy: true, Src: base - 1000, Dst: freed}, all, 0},
		{"copy up to a return slot", vm.ByteLoop{Copy: true, Src: base - 100, Dst: slot - 7}, all, 7},
		{"copy at a return slot's first byte", vm.ByteLoop{Copy: true, Src: base - 100, Dst: slot}, all, 0},
		{"copy at a return slot's second byte", vm.ByteLoop{Copy: true, Src: base - 100, Dst: slot + 1}, all, 0},
		{"copy at a return slot's last byte", vm.ByteLoop{Copy: true, Src: base - 100, Dst: slot + 3}, all, 0},
		{"copy just past a return slot", vm.ByteLoop{Copy: true, Src: base - 100, Dst: slot + 4}, all, 100},
		{"scan over a return slot", vm.ByteLoop{Src: slot - 7}, all, 1<<32 - uint64(slot-7)},
	} {
		if got := d.LoopBound(p.Machine, &c.l, c.most); got != c.want {
			t.Errorf("%s: bound %d, want %d", c.name, got, c.want)
		}
	}
	if len(d.Findings()) != 0 {
		t.Errorf("bounding recorded %v", d.Findings())
	}
}
