package vm_test

import (
	"testing"

	"sweeper/internal/asm"
	"sweeper/internal/vm"
)

// buildAndRun assembles a program, runs it to completion and returns the
// machine for inspection.
func buildAndRun(t *testing.T, build func(b *asm.Builder)) (*vm.Machine, *vm.StopInfo) {
	t.Helper()
	b := asm.New("test")
	build(b)
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("assembling: %v", err)
	}
	m, err := vm.NewMachine(prog, vm.DefaultLayout(), nil)
	if err != nil {
		t.Fatalf("loading: %v", err)
	}
	stop := m.Run(1_000_000)
	return m, stop
}

func TestArithmetic(t *testing.T) {
	m, stop := buildAndRun(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovI(vm.R1, 10)
		b.MovI(vm.R2, 3)
		b.Mov(vm.R3, vm.R1)
		b.Add(vm.R3, vm.R2) // 13
		b.Mov(vm.R4, vm.R1)
		b.Sub(vm.R4, vm.R2) // 7
		b.Mov(vm.R5, vm.R1)
		b.Mul(vm.R5, vm.R2) // 30
		b.Mov(vm.R6, vm.R1)
		b.Div(vm.R6, vm.R2) // 3
		b.Mov(vm.R7, vm.R1)
		b.Mod(vm.R7, vm.R2) // 1
		b.Halt()
	})
	if stop.Reason != vm.StopHalt {
		t.Fatalf("stop = %v", stop.Reason)
	}
	want := map[vm.Reg]uint32{vm.R3: 13, vm.R4: 7, vm.R5: 30, vm.R6: 3, vm.R7: 1}
	for r, v := range want {
		if m.Regs[r] != v {
			t.Errorf("%v = %d, want %d", r, m.Regs[r], v)
		}
	}
}

func TestImmediateALUAndShifts(t *testing.T) {
	m, stop := buildAndRun(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovI(vm.R1, 0x0F)
		b.OrI(vm.R1, 0xF0) // 0xFF
		b.MovI(vm.R2, 0xFF)
		b.AndI(vm.R2, 0x0F) // 0x0F
		b.MovI(vm.R3, 1)
		b.ShlI(vm.R3, 8) // 256
		b.MovI(vm.R4, 256)
		b.ShrI(vm.R4, 4) // 16
		b.MovI(vm.R5, 0xAA)
		b.XorI(vm.R5, 0xFF) // 0x55
		b.MovI(vm.R6, 7)
		b.AddI(vm.R6, -10) // -3 (wraps)
		b.Halt()
	})
	if stop.Reason != vm.StopHalt {
		t.Fatalf("stop = %v", stop.Reason)
	}
	if m.Regs[vm.R1] != 0xFF || m.Regs[vm.R2] != 0x0F || m.Regs[vm.R3] != 256 ||
		m.Regs[vm.R4] != 16 || m.Regs[vm.R5] != 0x55 {
		t.Errorf("regs = %v", m.Regs)
	}
	if int32(m.Regs[vm.R6]) != -3 {
		t.Errorf("R6 = %d, want -3", int32(m.Regs[vm.R6]))
	}
}

func TestConditionalBranches(t *testing.T) {
	// Compute max(17, 42) via a branch.
	m, stop := buildAndRun(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovI(vm.R1, 17)
		b.MovI(vm.R2, 42)
		b.Cmp(vm.R1, vm.R2)
		b.Jge("take_r1")
		b.Mov(vm.R0, vm.R2)
		b.Halt()
		b.Label("take_r1")
		b.Mov(vm.R0, vm.R1)
		b.Halt()
	})
	if stop.Reason != vm.StopHalt || m.Regs[vm.R0] != 42 {
		t.Errorf("max = %d (stop %v), want 42", m.Regs[vm.R0], stop.Reason)
	}
}

func TestLoopSum(t *testing.T) {
	// Sum 1..10 with a loop.
	m, _ := buildAndRun(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovI(vm.R1, 1) // i
		b.MovI(vm.R2, 0) // sum
		b.Label("loop")
		b.CmpI(vm.R1, 10)
		b.Jgt("done")
		b.Add(vm.R2, vm.R1)
		b.AddI(vm.R1, 1)
		b.Jmp("loop")
		b.Label("done")
		b.Halt()
	})
	if m.Regs[vm.R2] != 55 {
		t.Errorf("sum = %d, want 55", m.Regs[vm.R2])
	}
}

func TestCallRetAndStack(t *testing.T) {
	m, stop := buildAndRun(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovI(vm.R1, 5)
		b.Call("double")
		b.Mov(vm.R7, vm.R0)
		b.PushI(123)
		b.Pop(vm.R6)
		b.Halt()
		b.Func("double")
		b.Mov(vm.R0, vm.R1)
		b.AddI(vm.R0, 0)
		b.Add(vm.R0, vm.R1)
		b.Ret()
	})
	if stop.Reason != vm.StopHalt {
		t.Fatalf("stop = %v", stop.Reason)
	}
	if m.Regs[vm.R7] != 10 {
		t.Errorf("double(5) = %d", m.Regs[vm.R7])
	}
	if m.Regs[vm.R6] != 123 {
		t.Errorf("push/pop = %d", m.Regs[vm.R6])
	}
	if m.Regs[vm.SP] != vm.DefaultLayout().StackTop() {
		t.Errorf("stack not balanced: SP=%#x", m.Regs[vm.SP])
	}
}

func TestPrologueEpilogueLocals(t *testing.T) {
	m, _ := buildAndRun(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovI(vm.R1, 21)
		b.Call("f")
		b.Halt()
		b.Func("f")
		b.Prologue(16)
		b.StoreW(vm.BP, -4, vm.R1)
		b.LoadW(vm.R2, vm.BP, -4)
		b.Mov(vm.R0, vm.R2)
		b.Add(vm.R0, vm.R2)
		b.Epilogue()
	})
	if m.Regs[vm.R0] != 42 {
		t.Errorf("f(21) = %d, want 42", m.Regs[vm.R0])
	}
}

func TestDataSegmentAndRelocations(t *testing.T) {
	m, _ := buildAndRun(t, func(b *asm.Builder) {
		b.DataString("greeting", "hi")
		b.DataWord("answer", 42)
		b.Func("main")
		b.LoadDataAddr(vm.R1, "answer")
		b.LoadW(vm.R2, vm.R1, 0)
		b.LoadDataAddr(vm.R3, "greeting")
		b.LoadB(vm.R4, vm.R3, 0)
		b.Halt()
	})
	if m.Regs[vm.R2] != 42 {
		t.Errorf("data word = %d", m.Regs[vm.R2])
	}
	if m.Regs[vm.R4] != 'h' {
		t.Errorf("data byte = %c", m.Regs[vm.R4])
	}
}

func TestIndirectCallThroughCodeRelocation(t *testing.T) {
	m, stop := buildAndRun(t, func(b *asm.Builder) {
		b.Func("main")
		b.LoadCodeAddr(vm.R5, "target")
		b.CallReg(vm.R5)
		b.Halt()
		b.Func("target")
		b.MovI(vm.R0, 99)
		b.Ret()
	})
	if stop.Reason != vm.StopHalt || m.Regs[vm.R0] != 99 {
		t.Errorf("indirect call result = %d, stop=%v", m.Regs[vm.R0], stop.Reason)
	}
}

func TestFaultDivisionByZero(t *testing.T) {
	_, stop := buildAndRun(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovI(vm.R1, 1)
		b.MovI(vm.R2, 0)
		b.Div(vm.R1, vm.R2)
		b.Halt()
	})
	if stop.Reason != vm.StopFault || stop.Fault.Kind != vm.FaultDivZero {
		t.Errorf("stop = %v fault = %v", stop.Reason, stop.Fault)
	}
}

func TestFaultNullDereference(t *testing.T) {
	_, stop := buildAndRun(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovI(vm.R1, 0)
		b.LoadW(vm.R2, vm.R1, 0)
		b.Halt()
	})
	if stop.Reason != vm.StopFault || stop.Fault.Kind != vm.FaultPage || stop.Fault.Addr != 0 {
		t.Errorf("fault = %v", stop.Fault)
	}
	if stop.Fault.IsWrite {
		t.Error("load fault should not be marked as a write")
	}
}

func TestFaultBadIndirectJump(t *testing.T) {
	_, stop := buildAndRun(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovI(vm.R1, 0x12345678)
		b.JmpReg(vm.R1)
		b.Halt()
	})
	if stop.Reason != vm.StopFault || stop.Fault.Kind != vm.FaultBadPC {
		t.Errorf("fault = %v", stop.Fault)
	}
}

func TestFaultCorruptedReturnAddress(t *testing.T) {
	_, stop := buildAndRun(t, func(b *asm.Builder) {
		b.Func("main")
		b.Call("victim")
		b.Halt()
		b.Func("victim")
		// Overwrite our own return address with garbage and return.
		b.MovI(vm.R1, 0x41414141)
		b.StoreW(vm.SP, 0, vm.R1)
		b.Ret()
	})
	if stop.Reason != vm.StopFault || stop.Fault.Kind != vm.FaultBadPC {
		t.Fatalf("fault = %v", stop.Fault)
	}
	if stop.Fault.Sym != "victim" {
		t.Errorf("fault attributed to %q, want victim", stop.Fault.Sym)
	}
	if stop.Fault.Addr != 0x41414141 {
		t.Errorf("fault address = %#x", stop.Fault.Addr)
	}
}

func TestInstructionBudget(t *testing.T) {
	b := asm.New("spin")
	b.Func("main")
	b.Label("loop")
	b.Jmp("loop")
	prog := b.MustBuild()
	m, err := vm.NewMachine(prog, vm.DefaultLayout(), nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := m.Run(1000)
	if stop.Reason != vm.StopInstrBudget {
		t.Errorf("stop = %v, want instruction budget", stop.Reason)
	}
	if m.InstrCount() == 0 || m.Cycles() == 0 {
		t.Error("instruction/cycle counters did not advance")
	}
}

func TestSyscallWithoutHandlerFaults(t *testing.T) {
	_, stop := buildAndRun(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovI(vm.R0, 1)
		b.Syscall()
		b.Halt()
	})
	if stop.Reason != vm.StopFault || stop.Fault.Kind != vm.FaultBadSyscall {
		t.Errorf("fault = %v", stop.Fault)
	}
}

// recordingTool counts hook invocations and optionally raises a violation.
type recordingTool struct {
	name       string
	instrs     int
	reads      int
	writes     int
	calls      int
	rets       int
	raiseAtPC  int
	raisedKind vm.ViolationKind
}

func (r *recordingTool) Name() string { return r.name }
func (r *recordingTool) BeforeInstr(m *vm.Machine, idx int, in *vm.Instr) {
	r.instrs++
	if r.raiseAtPC >= 0 && idx == r.raiseAtPC {
		m.RaiseViolation(&vm.Violation{Kind: r.raisedKind, Tool: r.name, Detail: "test"})
	}
}
func (r *recordingTool) OnMemRead(m *vm.Machine, idx int, addr uint32, size int, val uint32) {
	r.reads++
}
func (r *recordingTool) OnMemWrite(m *vm.Machine, idx int, addr uint32, size int, val uint32) {
	r.writes++
}
func (r *recordingTool) OnCall(m *vm.Machine, idx, target int, retAddr, retSlot uint32) { r.calls++ }
func (r *recordingTool) OnRet(m *vm.Machine, idx int, retAddr, retSlot uint32)          { r.rets++ }

func TestToolHooksDispatch(t *testing.T) {
	b := asm.New("hooks")
	b.Func("main")
	b.Call("f")
	b.Halt()
	b.Func("f")
	b.PushI(1)
	b.Pop(vm.R1)
	b.Ret()
	prog := b.MustBuild()
	m, err := vm.NewMachine(prog, vm.DefaultLayout(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tool := &recordingTool{name: "rec", raiseAtPC: -1}
	m.AttachTool(tool)
	baseCycles := m.Cycles()
	stop := m.Run(0)
	if stop.Reason != vm.StopHalt {
		t.Fatalf("stop = %v", stop.Reason)
	}
	if tool.instrs == 0 || tool.calls != 1 || tool.rets != 1 || tool.writes == 0 || tool.reads == 0 {
		t.Errorf("hook counts: %+v", tool)
	}
	if m.Cycles()-baseCycles < uint64(tool.instrs)*vm.CyclesPerHook {
		t.Error("hook dispatch should be charged to the virtual clock")
	}
	if got := m.Tools(); len(got) != 1 || got[0] != "rec" {
		t.Errorf("Tools() = %v", got)
	}
	if !m.DetachTool("rec") || m.DetachTool("rec") {
		t.Error("DetachTool bookkeeping wrong")
	}
}

func TestViolationPreventsInstruction(t *testing.T) {
	b := asm.New("viol")
	b.Func("main")
	b.MovI(vm.R1, 1)
	storeIdx := b.StoreW(vm.R1, 0, vm.R1) // would fault (address 1 unmapped) if executed
	b.Halt()
	prog := b.MustBuild()
	m, err := vm.NewMachine(prog, vm.DefaultLayout(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tool := &recordingTool{name: "guard", raiseAtPC: storeIdx, raisedKind: vm.ViolationBoundsCheck}
	m.AttachTool(tool)
	stop := m.Run(0)
	if stop.Reason != vm.StopViolation {
		t.Fatalf("stop = %v (fault=%v), want violation", stop.Reason, stop.Fault)
	}
	if stop.Violation.Kind != vm.ViolationBoundsCheck || stop.Violation.Tool != "guard" {
		t.Errorf("violation = %v", stop.Violation)
	}
}

type countingProbe struct {
	name  string
	fired int
}

func (p *countingProbe) Name() string                                 { return p.name }
func (p *countingProbe) OnProbe(m *vm.Machine, idx int, in *vm.Instr) { p.fired++ }

func TestProbesFireOnlyAtTheirInstruction(t *testing.T) {
	b := asm.New("probe")
	b.Func("main")
	b.MovI(vm.R1, 0)
	b.Label("loop")
	target := b.AddI(vm.R1, 1)
	b.CmpI(vm.R1, 5)
	b.Jlt("loop")
	b.Halt()
	prog := b.MustBuild()
	m, err := vm.NewMachine(prog, vm.DefaultLayout(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := &countingProbe{name: "p"}
	if err := m.AddProbe(target, p); err != nil {
		t.Fatal(err)
	}
	if err := m.AddProbe(len(prog.Code)+5, p); err == nil {
		t.Error("out-of-range probe should be rejected")
	}
	if m.ProbeCount() != 1 {
		t.Errorf("ProbeCount = %d", m.ProbeCount())
	}
	m.Run(0)
	if p.fired != 5 {
		t.Errorf("probe fired %d times, want 5", p.fired)
	}
	if n := m.RemoveProbes("p"); n != 1 {
		t.Errorf("RemoveProbes = %d", n)
	}
}

func TestRegSnapshotRoundTrip(t *testing.T) {
	b := asm.New("snap")
	b.Func("main")
	b.MovI(vm.R1, 77)
	b.Halt()
	prog := b.MustBuild()
	m, _ := vm.NewMachine(prog, vm.DefaultLayout(), nil)
	m.Run(0)
	s := m.SaveRegs()
	m.Regs[vm.R1] = 0
	m.RestoreRegs(s)
	if m.Regs[vm.R1] != 77 {
		t.Errorf("restored R1 = %d", m.Regs[vm.R1])
	}
	if m.Halted() {
		t.Error("RestoreRegs should clear the halted state")
	}
}

func TestAddrIndexConversion(t *testing.T) {
	b := asm.New("addr")
	b.Func("main")
	b.Nop()
	b.Nop()
	b.Halt()
	prog := b.MustBuild()
	layout := vm.DefaultLayout()
	m, _ := vm.NewMachine(prog, layout, nil)
	for idx := 0; idx < len(prog.Code); idx++ {
		addr := m.AddrOfIndex(idx)
		back, ok := m.IndexOfAddr(addr)
		if !ok || back != idx {
			t.Errorf("round trip failed for %d", idx)
		}
	}
	if _, ok := m.IndexOfAddr(layout.CodeBase - 4); ok {
		t.Error("address below code base should not convert")
	}
	if _, ok := m.IndexOfAddr(layout.CodeBase + 2); ok {
		t.Error("misaligned address should not convert")
	}
	if _, ok := m.IndexOfAddr(layout.CodeBase + uint32(len(prog.Code))*vm.InstrSize); ok {
		t.Error("address past code end should not convert")
	}
}

func TestEffectiveAddr(t *testing.T) {
	b := asm.New("ea")
	b.Func("main")
	load := b.LoadW(vm.R1, vm.R2, 8)
	store := b.StoreB(vm.R3, -4, vm.R4)
	push := b.PushI(1)
	b.Halt()
	prog := b.MustBuild()
	m, _ := vm.NewMachine(prog, vm.DefaultLayout(), nil)
	m.Regs[vm.R2] = 0x1000
	m.Regs[vm.R3] = 0x2000

	if addr, size, isWrite, ok := m.EffectiveAddr(&prog.Code[load]); !ok || addr != 0x1008 || size != 4 || isWrite {
		t.Errorf("load EA = %#x size=%d write=%v ok=%v", addr, size, isWrite, ok)
	}
	if addr, size, isWrite, ok := m.EffectiveAddr(&prog.Code[store]); !ok || addr != 0x1FFC || size != 1 || !isWrite {
		t.Errorf("store EA = %#x size=%d write=%v ok=%v", addr, size, isWrite, ok)
	}
	if addr, _, isWrite, ok := m.EffectiveAddr(&prog.Code[push]); !ok || addr != m.Regs[vm.SP]-4 || !isWrite {
		t.Errorf("push EA = %#x write=%v ok=%v", addr, isWrite, ok)
	}
	if _, _, _, ok := m.EffectiveAddr(&vm.Instr{Op: vm.OpNop}); ok {
		t.Error("nop has no effective address")
	}
}

func TestLayoutValidation(t *testing.T) {
	good := vm.DefaultLayout()
	if err := good.Validate(); err != nil {
		t.Errorf("default layout invalid: %v", err)
	}
	bad := good
	bad.CodeBase = 0
	if err := bad.Validate(); err == nil {
		t.Error("NULL code base should be rejected")
	}
	bad = good
	bad.HeapBase = 0x1001
	if err := bad.Validate(); err == nil {
		t.Error("unaligned heap base should be rejected")
	}
	bad = good
	bad.StackSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero stack size should be rejected")
	}
	// Overlap: a segment's first byte on another region's last page is
	// rejected, the first byte past the region is accepted.
	heapLast := good.HeapBase + good.HeapSize - vm.PageSize
	for name, mutate := range map[string]func(l *vm.Layout){
		"data at heap start":   func(l *vm.Layout) { l.DataBase = good.HeapBase },
		"data on heap's end":   func(l *vm.Layout) { l.DataBase = heapLast },
		"code on heap's end":   func(l *vm.Layout) { l.CodeBase = heapLast },
		"stack on heap's end":  func(l *vm.Layout) { l.StackBase = heapLast },
		"heap reaching data":   func(l *vm.Layout) { l.HeapBase = good.DataBase + vm.PageSize - good.HeapSize },
		"stack reaching heap":  func(l *vm.Layout) { l.StackBase = good.HeapBase + vm.PageSize - good.StackSize },
		"data wrapping to top": func(l *vm.Layout) { l.DataBase = 0xfffff000; l.StackBase = 0xffff0000 },
	} {
		bad = good
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: overlapping layout accepted: %+v", name, bad)
		}
	}
	ok := good
	ok.DataBase = good.HeapBase + good.HeapSize
	if err := ok.Validate(); err != nil {
		t.Errorf("data segment directly above the heap rejected: %v", err)
	}
	ok = good
	ok.DataBase = good.CodeBase + vm.SegmentSpan
	if err := ok.Validate(); err != nil {
		t.Errorf("data segment one span above the code rejected: %v", err)
	}
	bad = ok
	bad.DataBase -= vm.PageSize
	if err := bad.Validate(); err == nil {
		t.Error("data segment inside the code span accepted")
	}
	// The seed-1058 layout that made every benign squid request a false
	// alarm: data inside the heap region.
	bad = vm.Layout{CodeBase: 0x08a00000, DataBase: 0x08cdd000, HeapBase: 0x08c0e000, HeapSize: 1 << 20, StackBase: 0xbf000000, StackSize: 1 << 16}
	if err := bad.Validate(); err == nil {
		t.Error("data segment inside the heap region accepted")
	}
}

func TestNewMachineRejectsProgramBeyondSegmentSpan(t *testing.T) {
	big := &vm.Program{Name: "big", Code: []vm.Instr{{Op: vm.OpHalt}}, Data: make([]byte, vm.SegmentSpan+1)}
	if _, err := vm.NewMachine(big, vm.DefaultLayout(), nil); err == nil {
		t.Error("a data segment larger than SegmentSpan should be rejected")
	}
}

func TestNewMachineRejectsEmptyProgram(t *testing.T) {
	if _, err := vm.NewMachine(&vm.Program{Name: "empty"}, vm.DefaultLayout(), nil); err == nil {
		t.Error("empty program should be rejected")
	}
}
