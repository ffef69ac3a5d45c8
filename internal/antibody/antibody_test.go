package antibody_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"sweeper/internal/antibody"
	"sweeper/internal/apps"
	"sweeper/internal/exploit"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// --- signatures ---

func TestExactSignature(t *testing.T) {
	payload := []byte("Directory \n")
	sig := antibody.ExactSignature("cvs-sig", payload)
	if !sig.Match(payload) {
		t.Error("exact signature must match its own payload")
	}
	if sig.Match([]byte("Directory x\n")) || sig.Match(append(payload, 'x')) {
		t.Error("exact signature must not match different payloads")
	}
	if sig.Name() != "cvs-sig" {
		t.Error("name lost")
	}
	// The signature owns its copy of the payload.
	payload[0] = 'X'
	if !sig.Match([]byte("Directory \n")) {
		t.Error("signature payload was aliased to the caller's buffer")
	}
}

// TestSignatureWithoutExactBytesMatchesNothing: exact bytes are the only
// shape a signature has. One decoded without them — whatever other fields the
// sender put beside its name — matches no payload, the empty one included.
func TestSignatureWithoutExactBytesMatchesNothing(t *testing.T) {
	var sig antibody.Signature
	if err := json.Unmarshal([]byte(`{"name":"broad","tokens":["ZnRwOi8v"]}`), &sig); err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{nil, {}, []byte("ftp://"), []byte("GET ftp://host/ HTTP/1.0")} {
		if sig.Match(payload) {
			t.Errorf("signature without exact bytes matched %q", payload)
		}
	}
}

// --- antibody bundles ---

func TestAntibodyMarshalRoundTrip(t *testing.T) {
	a := &antibody.Antibody{
		ID:      "squid-attack1-final",
		Program: "squid",
		Stage:   antibody.StageFinal,
		VSEFs: []*antibody.VSEF{{
			Kind: antibody.VSEFHeapBounds, Program: "squid", Name: "v1",
			InstrIdx: 197, InstrSym: "strcat", CallerIdx: 66,
		}},
		Sigs:         []*antibody.Signature{antibody.ExactSignature("s", []byte("ftp://evil"))},
		ExploitInput: []byte("ftp://evil"),
		CreatedAtMs:  1234,
		Notes:        []string{"heap inconsistent"},
	}
	data, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := antibody.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != a.ID || back.Stage != a.Stage || len(back.VSEFs) != 1 || len(back.Sigs) != 1 {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.VSEFs[0].InstrIdx != 197 || back.VSEFs[0].CallerIdx != 66 {
		t.Error("VSEF fields lost")
	}
	if !bytes.Equal(back.ExploitInput, a.ExploitInput) {
		t.Error("exploit input lost")
	}
	if !back.Sigs[0].Match([]byte("ftp://evil")) {
		t.Error("signature no longer matches after the round trip")
	}
	if _, err := antibody.Unmarshal([]byte("{broken")); err == nil {
		t.Error("corrupt antibody should fail to decode")
	}
	if a.String() == "" {
		t.Error("String() empty")
	}
}

// --- VSEF application on live processes ---

func newProcess(t *testing.T, app string, payloads ...[]byte) (*proc.Process, *netproxy.Proxy, *apps.Spec) {
	t.Helper()
	spec, err := apps.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	proxy := netproxy.New()
	for _, pl := range payloads {
		proxy.Submit(pl, "client", bytes.Contains(pl, []byte("ftp://\\")))
	}
	p, err := proc.New(spec.Name, spec.Image, vm.DefaultLayout(), proxy, spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	return p, proxy, spec
}

func TestHeapBoundsVSEFStopsSquidExploit(t *testing.T) {
	p, _, spec := newProcess(t, "squid",
		[]byte("ftp://anonymous@ftp.example.org/file.gz"),
		exploit.SquidExploit(),
	)
	v := &antibody.VSEF{
		Kind:      antibody.VSEFHeapBounds,
		Program:   "squid",
		Name:      "squid-heap-vsef",
		InstrIdx:  spec.VulnIndex(),
		InstrSym:  "strcat",
		CallerIdx: -1,
	}
	applied, err := v.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	stop := p.Run(0)
	if stop.Reason != vm.StopViolation || stop.Violation.Kind != vm.ViolationBoundsCheck {
		t.Fatalf("stop = %v %v, want bounds-check violation", stop.Reason, stop.Violation)
	}
	// The benign request was served before the violation.
	if p.ServedRequests() != 1 {
		t.Errorf("served = %d", p.ServedRequests())
	}
	applied.Remove()
	if p.Machine.ProbeCount() != 0 {
		t.Error("Remove left probes installed")
	}
}

func TestReturnGuardVSEFStopsApache1HijackAtDefaultLayout(t *testing.T) {
	spec, _ := apps.ByName("apache1")
	payload, err := exploit.Apache1ExploitDefault(spec.Image)
	if err != nil {
		t.Fatal(err)
	}
	p, _, _ := newProcess(t, "apache1", exploit.Apache1Benign(0), payload)
	v := &antibody.VSEF{
		Kind:      antibody.VSEFReturnGuard,
		Program:   "apache1",
		Name:      "apache1-ret-guard",
		FuncSym:   "try_alias_list",
		CallerIdx: -1,
	}
	if _, err := v.Apply(p); err != nil {
		t.Fatal(err)
	}
	stop := p.Run(0)
	if stop.Reason != vm.StopViolation || stop.Violation.Kind != vm.ViolationReturnAddress {
		t.Fatalf("stop = %v %v", stop.Reason, stop.Violation)
	}
	// Without the guard this exact run would have been hijacked (halt); the
	// violation means the hijack never executed.
	for _, out := range p.Outputs() {
		if bytes.Contains(out.Data, []byte("OWNED")) {
			t.Fatal("backdoor ran despite the return guard")
		}
	}
}

func TestDoubleFreeVSEFStopsCVSExploit(t *testing.T) {
	spec, _ := apps.ByName("cvs")
	p, _, _ := newProcess(t, "cvs", []byte("Directory src/lib\n"), exploit.CVSExploit())
	v := &antibody.VSEF{
		Kind:      antibody.VSEFDoubleFree,
		Program:   "cvs",
		Name:      "cvs-dfree-guard",
		InstrIdx:  spec.Image.Symbols["dirswitch.second_free"],
		InstrSym:  "dirswitch",
		CallerIdx: -1,
	}
	if _, err := v.Apply(p); err != nil {
		t.Fatal(err)
	}
	stop := p.Run(0)
	if stop.Reason != vm.StopViolation || stop.Violation.Kind != vm.ViolationDoubleFree {
		t.Fatalf("stop = %v %v", stop.Reason, stop.Violation)
	}
}

func TestNullCheckVSEFStopsApache2Exploit(t *testing.T) {
	spec, _ := apps.ByName("apache2")
	p, _, _ := newProcess(t, "apache2", exploit.Apache2Benign(1), exploit.Apache2Exploit())
	v := &antibody.VSEF{
		Kind:      antibody.VSEFNullCheck,
		Program:   "apache2",
		Name:      "apache2-null-guard",
		InstrIdx:  spec.Image.Symbols["is_ip.load"],
		InstrSym:  "is_ip",
		CallerIdx: -1,
	}
	if _, err := v.Apply(p); err != nil {
		t.Fatal(err)
	}
	stop := p.Run(0)
	if stop.Reason != vm.StopViolation || stop.Violation.Kind != vm.ViolationNullDeref {
		t.Fatalf("stop = %v %v", stop.Reason, stop.Violation)
	}
}

func TestVSEFsDoNotDisturbBenignTraffic(t *testing.T) {
	spec, _ := apps.ByName("squid")
	var benign [][]byte
	for i := 0; i < 10; i++ {
		benign = append(benign, exploit.SquidBenign(i))
	}
	p, _, _ := newProcess(t, "squid", benign...)
	v := &antibody.VSEF{
		Kind: antibody.VSEFHeapBounds, Program: "squid", Name: "g",
		InstrIdx: spec.VulnIndex(), InstrSym: "strcat", CallerIdx: -1,
	}
	if _, err := v.Apply(p); err != nil {
		t.Fatal(err)
	}
	stop := p.Run(0)
	if stop.Reason != vm.StopWaitInput {
		t.Fatalf("benign traffic under the VSEF stopped with %v (%v)", stop.Reason, stop.Violation)
	}
	if p.ServedRequests() != len(benign) {
		t.Errorf("served %d of %d", p.ServedRequests(), len(benign))
	}
	if v.InstrumentedInstrs() != 1 {
		t.Errorf("heap-bounds VSEF instruments %d instructions, want 1", v.InstrumentedInstrs())
	}
}

func TestApplyUnknownVSEFKindFails(t *testing.T) {
	p, _, _ := newProcess(t, "cvs")
	v := &antibody.VSEF{Kind: antibody.VSEFKind("bogus"), Name: "x", CallerIdx: -1}
	if _, err := v.Apply(p); err == nil {
		t.Error("unknown kind should fail to apply")
	}
	rg := &antibody.VSEF{Kind: antibody.VSEFReturnGuard, Name: "y", FuncSym: "no_such_fn", CallerIdx: -1}
	if _, err := rg.Apply(p); err == nil {
		t.Error("return guard for a missing function should fail to apply")
	}
}

func TestAntibodyApplyInstallsFiltersAndProbes(t *testing.T) {
	spec, _ := apps.ByName("cvs")
	p, proxy, _ := newProcess(t, "cvs")
	a := &antibody.Antibody{
		ID: "cvs-final", Program: "cvs", Stage: antibody.StageFinal,
		VSEFs: []*antibody.VSEF{{
			Kind: antibody.VSEFDoubleFree, Program: "cvs", Name: "g",
			InstrIdx: spec.Image.Symbols["dirswitch.second_free"], CallerIdx: -1,
		}},
		Sigs: []*antibody.Signature{antibody.ExactSignature("cvs-sig", exploit.CVSExploit())},
	}
	applied, err := a.Apply(p, proxy)
	if err != nil {
		t.Fatal(err)
	}
	if p.Machine.ProbeCount() == 0 {
		t.Error("no probes installed")
	}
	if len(proxy.Filters()) != 1 {
		t.Error("no filter installed")
	}
	if _, ok := proxy.Submit(exploit.CVSExploit(), "worm", true); ok {
		t.Error("filter did not drop the exploit")
	}
	applied.Remove()
	if p.Machine.ProbeCount() != 0 || len(proxy.Filters()) != 0 {
		t.Error("Remove did not clean up")
	}
	if len(a.Filters()) != 1 {
		t.Error("Filters() accessor wrong")
	}
}

// TestRemoveFaultyTakesOutOneVSEF: a violation's tool names one VSEF of an
// installed antibody — a taint guard's by its tracker — and RemoveFaulty
// uninstalls that VSEF alone: its probes leave the machine, and with them
// the taint guard's input delivery, what the handle carries no longer lists
// it, and the antibody it was applied from is untouched. No VSEF attaches a
// tool.
func TestRemoveFaultyTakesOutOneVSEF(t *testing.T) {
	spec, _ := apps.ByName("cvs")
	p, proxy, _ := newProcess(t, "cvs")
	guard := &antibody.VSEF{Kind: antibody.VSEFDoubleFree, Program: "cvs", Name: "g",
		InstrIdx: spec.Image.Symbols["dirswitch.second_free"], CallerIdx: -1}
	taintGuard := &antibody.VSEF{Kind: antibody.VSEFTaint, Program: "cvs", Name: "tg",
		InstrIdx: 2, TaintInstrs: []int{1, 2}, CallerIdx: -1}
	a := antibody.New("cvs-final", "cvs", antibody.StageFinal, 0, []*antibody.VSEF{guard, taintGuard}, nil)
	applied, err := a.Apply(p, proxy)
	if err != nil {
		t.Fatal(err)
	}
	probes := p.Machine.ProbeCount()
	if tools := p.Machine.Tools(); len(tools) != 0 {
		t.Errorf("applying the antibody attached tools %v, want probes only", tools)
	}
	// inputCost is what one request's bytes cost the machine's clock.
	inputCost := func() uint64 {
		c := p.Machine.Cycles()
		p.Machine.NotifyInput(0x1000, []byte("input"), 1)
		return p.Machine.Cycles() - c
	}
	if got := inputCost(); got != vm.CyclesPerHook {
		t.Errorf("input delivery cost %d cycles with the taint guard installed, want %d", got, vm.CyclesPerHook)
	}
	if _, ok := applied.RemoveFaulty("someone-else"); ok {
		t.Error("RemoveFaulty removed a VSEF for a tool it does not carry")
	}
	if name, ok := applied.RemoveFaulty("tg.tracker"); !ok || name != "tg" {
		t.Fatalf("RemoveFaulty(tg.tracker) = %q, %v; want tg, true", name, ok)
	}
	if got := p.Machine.ProbeCount(); got != probes-2 {
		t.Errorf("probes = %d after removing the taint guard, want %d", got, probes-2)
	}
	if got := inputCost(); got != 0 {
		t.Errorf("input delivery cost %d cycles after removing the taint guard, want 0", got)
	}
	if got := applied.Antibody().VSEFs; len(got) != 1 || got[0] != guard {
		t.Errorf("the handle carries %v, want only %s", got, guard.Name)
	}
	if len(a.VSEFs) != 2 || a.VSEFs[0] != guard || a.VSEFs[1] != taintGuard {
		t.Errorf("the applied antibody lost a VSEF: %v", a.VSEFs)
	}
	applied.Remove()
	if p.Machine.ProbeCount() != 0 {
		t.Errorf("Remove left %d probes", p.Machine.ProbeCount())
	}
}

func TestVSEFStringAndInstrumentedInstrs(t *testing.T) {
	kinds := []*antibody.VSEF{
		{Kind: antibody.VSEFReturnGuard, FuncSym: "f", CallerIdx: -1},
		{Kind: antibody.VSEFHeapBounds, InstrIdx: 5, InstrSym: "strcat", CallerIdx: 3},
		{Kind: antibody.VSEFTaint, TaintInstrs: []int{1, 2, 3}, CallerIdx: -1},
		{Kind: antibody.VSEFStackStore, InstrIdx: 9, InstrSym: "lmatcher", CallerIdx: -1},
	}
	if kinds[0].InstrumentedInstrs() != 2 || kinds[2].InstrumentedInstrs() != 3 || kinds[1].InstrumentedInstrs() != 1 {
		t.Error("InstrumentedInstrs wrong")
	}
	for _, v := range kinds {
		if v.String() == "" {
			t.Errorf("VSEF %v has empty String()", v.Kind)
		}
	}
}
