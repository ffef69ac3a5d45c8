package vm_test

import (
	"testing"

	"sweeper/internal/asm"
	"sweeper/internal/monitor"
	"sweeper/internal/vm"
)

// spinMachine builds a machine running a tight ALU+stack loop with no
// syscalls, for hot-loop measurements.
func spinMachine(t testing.TB) *vm.Machine {
	t.Helper()
	b := asm.New("spin")
	b.Func("main")
	b.MovI(vm.R1, 0)
	b.Label("main.loop")
	b.AddI(vm.R1, 1)
	b.Push(vm.R1)
	b.Pop(vm.R2)
	b.Jmp("main.loop")
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("assembling: %v", err)
	}
	m, err := vm.NewMachine(prog, vm.DefaultLayout(), nil)
	if err != nil {
		t.Fatalf("loading: %v", err)
	}
	return m
}

// TestRunSteadyStateAllocations pins the run-loop small fix: executing
// instructions allocates nothing per step — the only allocation of a whole
// budgeted Run call is the final StopInfo.
func TestRunSteadyStateAllocations(t *testing.T) {
	m := spinMachine(t)
	m.Run(10_000) // warm up: map/clone the stack page, settle the caches
	const steps = 50_000
	allocs := testing.AllocsPerRun(10, func() {
		if stop := m.Run(steps); stop.Reason != vm.StopInstrBudget {
			t.Fatalf("unexpected stop: %v", stop.Reason)
		}
	})
	// One StopInfo per Run call; anything near the step count means a
	// per-instruction allocation crept back into the hot loop.
	if allocs > 2 {
		t.Errorf("Run(%d) allocated %.0f objects per call; the step path must not allocate", steps, allocs)
	}
}

// countingInstrTool counts BeforeInstr dispatches.
type countingInstrTool struct{ calls int }

func (c *countingInstrTool) Name() string                                     { return "test.counter" }
func (c *countingInstrTool) BeforeInstr(m *vm.Machine, idx int, in *vm.Instr) { c.calls++ }

type nopProbe struct{}

func (nopProbe) Name() string                                 { return "test.probe" }
func (nopProbe) OnProbe(m *vm.Machine, idx int, in *vm.Instr) {}

// TestDispatchFastPathFlags checks the cached dispatch flags and the two-way
// engine selection they drive: the fused engine unless an instruction or
// memory tool is attached — probes and call, syscall or fault tools leave it
// selected. An untooled machine charges no hook cycles, attaching a tool or
// probe re-enables dispatch, and detaching everything restores the fast path.
func TestDispatchFastPathFlags(t *testing.T) {
	m := spinMachine(t)
	for _, step := range []struct {
		what  string
		do    func()
		fused bool
	}{
		{"nothing attached", func() {}, true},
		{"a call tool", func() { m.AttachTool(monitor.NewShadowStack()) }, true},
		{"a probe", func() { m.AddProbe(2, nopProbe{}) }, true},
		{"a memory tool", func() { m.AttachTool(seqMemTool{"t.mem", new([]memEvent)}) }, false},
		{"an instruction tool too", func() { m.AttachTool(&countingInstrTool{}) }, false},
		{"memory tool detached", func() { m.DetachTool("t.mem") }, false},
		{"instruction tool detached", func() { m.DetachTool("test.counter") }, true},
		{"everything removed", func() { m.DetachAllTools(); m.ClearProbes() }, true},
	} {
		if step.do(); m.FusedEngine() != step.fused {
			t.Errorf("%s: FusedEngine() = %v, want %v", step.what, m.FusedEngine(), step.fused)
		}
	}
	m.Run(1000)
	base := m.Cycles()
	m.Run(1000)
	untooledCycles := m.Cycles() - base

	tool := &countingInstrTool{}
	m.AttachTool(tool)
	base = m.Cycles()
	m.Run(1000)
	tooledCycles := m.Cycles() - base
	if tool.calls != 1000 {
		t.Errorf("instr hook dispatched %d times, want 1000", tool.calls)
	}
	if want := untooledCycles + 1000*vm.CyclesPerHook; tooledCycles != want {
		t.Errorf("tooled run cost %d cycles, want %d (untooled %d + hook charge)", tooledCycles, want, untooledCycles)
	}

	m.DetachAllTools()
	tool.calls = 0
	base = m.Cycles()
	m.Run(1000)
	if got := m.Cycles() - base; got != untooledCycles {
		t.Errorf("detached run cost %d cycles, want untooled %d", got, untooledCycles)
	}
	if tool.calls != 0 {
		t.Errorf("detached tool still dispatched %d times", tool.calls)
	}

	// Probes: registration leaves the fast path, removal restores it.
	if err := m.AddProbe(m.PC, nopProbe{}); err != nil {
		t.Fatal(err)
	}
	if m.ProbeCount() != 1 {
		t.Errorf("ProbeCount = %d, want 1", m.ProbeCount())
	}
	base = m.Cycles()
	m.Run(1000)
	if got := m.Cycles() - base; got <= untooledCycles {
		t.Errorf("probed run cost %d cycles, want more than untooled %d", got, untooledCycles)
	}
	if removed := m.RemoveProbes("test.probe"); removed != 1 {
		t.Fatalf("RemoveProbes = %d, want 1", removed)
	}
	if m.ProbeCount() != 0 {
		t.Errorf("ProbeCount after removal = %d, want 0", m.ProbeCount())
	}
	base = m.Cycles()
	m.Run(1000)
	if got := m.Cycles() - base; got != untooledCycles {
		t.Errorf("post-probe run cost %d cycles, want untooled %d", got, untooledCycles)
	}
}

// BenchmarkUntooledStep measures the raw per-instruction dispatch cost of an
// untooled machine (the live-guest hot path the cached dispatch flags serve).
func BenchmarkUntooledStep(b *testing.B) {
	m := spinMachine(b)
	m.Run(10_000)
	b.ResetTimer()
	m.Run(uint64(b.N))
}

// BenchmarkUntooledALU measures block dispatch on a pure ALU loop (no memory
// traffic), isolating the interpreter's dispatch cost from the store/load
// work the spin loop's push/pop pair carries.
func BenchmarkUntooledALU(b *testing.B) {
	bd := asm.New("alu")
	bd.Func("main")
	bd.MovI(vm.R1, 0)
	bd.Label("main.loop")
	bd.AddI(vm.R1, 1)
	bd.AddI(vm.R2, 3)
	bd.AddI(vm.R3, 5)
	bd.Jmp("main.loop")
	prog, err := bd.Build()
	if err != nil {
		b.Fatalf("assembling: %v", err)
	}
	m, err := vm.NewMachine(prog, vm.DefaultLayout(), nil)
	if err != nil {
		b.Fatalf("loading: %v", err)
	}
	m.Run(10_000)
	b.ResetTimer()
	m.Run(uint64(b.N))
}

// BenchmarkTooledStep is the same loop with one no-op instrumentation tool
// attached (the hook-calling engine), for comparison with
// BenchmarkUntooledStep.
func BenchmarkTooledStep(b *testing.B) {
	m := spinMachine(b)
	m.AttachTool(&countingInstrTool{})
	m.Run(10_000)
	b.ResetTimer()
	m.Run(uint64(b.N))
}
