package vm

import (
	"fmt"
)

// StopReason says why Machine.Run returned.
type StopReason uint8

// Stop reasons.
const (
	StopNone        StopReason = iota
	StopHalt                   // the guest executed halt or the exit syscall
	StopWaitInput              // the guest asked for input and none is queued
	StopFault                  // a hardware fault (segfault, bad PC, ...)
	StopViolation              // an attached tool raised a violation
	StopInstrBudget            // the per-Run instruction budget was exhausted
)

var stopNames = [...]string{"none", "halt", "wait-input", "fault", "violation", "instr-budget"}

// String returns a human readable name for the stop reason.
func (r StopReason) String() string {
	if int(r) < len(stopNames) {
		return stopNames[r]
	}
	return fmt.Sprintf("stop?%d", uint8(r))
}

// StopInfo describes how and why execution stopped.
type StopInfo struct {
	Reason    StopReason
	Fault     *Fault
	Violation *Violation
}

// SyscallResult is returned by a SyscallHandler.
type SyscallResult uint8

// Syscall results. SysWaitInput leaves the PC on the syscall instruction so
// that resuming the machine retries it once input is available.
const (
	SysOK SyscallResult = iota
	SysWaitInput
	SysHalt
)

// SyscallHandler services guest syscalls. Arguments are in R1..R3 and the
// syscall number in R0; results are written back into R0. A returned fault
// stops the machine as if the syscall instruction itself had faulted.
type SyscallHandler interface {
	Syscall(m *Machine, num uint32) (SyscallResult, *Fault)
}

// Probe is a targeted, per-instruction-address instrumentation callback: it
// fires only when its instruction executes, so it imposes no cost on the rest
// of the execution. VSEFs are implemented as probes, which is what makes them
// "lightweight" in the paper's sense.
// As with InstrHook, in points into the shared loaded code image: valid only
// during the call, read-only.
type Probe interface {
	Name() string
	OnProbe(m *Machine, idx int, in *Instr)
}

// Approximate virtual cycle costs. The virtual clock lets experiments measure
// guest-perceived overhead (Figure 4, Figure 5, VSEF overhead) independently
// of host speed.
const (
	// CyclesPerMicrosecond calibrates the virtual clock. The guest is slow
	// (1 MHz) by design: it keeps a serving request in the millisecond range
	// so that checkpoint intervals of 20-200 ms, analysis windows and
	// recovery times land in the same regime as the paper's measurements.
	CyclesPerMicrosecond = 1

	cyclesALU     = 1
	cyclesMem     = 3
	cyclesMulDiv  = 5
	cyclesBranch  = 2
	cyclesSyscall = 80
	// CyclesPerHook is charged for every full-instrumentation hook dispatch,
	// modelling the 10x-1000x slowdowns of heavyweight dynamic analysis.
	CyclesPerHook = 12
	// CyclesPerProbe is charged when a targeted probe (VSEF) fires: a VSEF
	// check is only "a handful of extra instructions".
	CyclesPerProbe = 2
)

// opCycles is the static virtual-cycle cost of each opcode, zero for halt and
// for illegal opcodes. Hook and probe dispatches are charged on top.
var opCycles = [256]uint8{
	OpNop: cyclesALU, OpMovI: cyclesALU, OpMov: cyclesALU, OpLea: cyclesALU,
	OpLoadB: cyclesMem, OpLoadW: cyclesMem, OpStoreB: cyclesMem, OpStoreW: cyclesMem,
	OpAdd: cyclesALU, OpSub: cyclesALU, OpMul: cyclesMulDiv, OpDiv: cyclesMulDiv, OpMod: cyclesMulDiv,
	OpAnd: cyclesALU, OpOr: cyclesALU, OpXor: cyclesALU, OpShl: cyclesALU, OpShr: cyclesALU,
	OpAddI: cyclesALU, OpSubI: cyclesALU, OpMulI: cyclesMulDiv, OpDivI: cyclesMulDiv, OpModI: cyclesMulDiv,
	OpAndI: cyclesALU, OpOrI: cyclesALU, OpXorI: cyclesALU, OpShlI: cyclesALU, OpShrI: cyclesALU,
	OpCmp: cyclesALU, OpCmpI: cyclesALU,
	OpJmp: cyclesBranch, OpJz: cyclesBranch, OpJnz: cyclesBranch, OpJlt: cyclesBranch,
	OpJle: cyclesBranch, OpJgt: cyclesBranch, OpJge: cyclesBranch, OpJmpReg: cyclesBranch,
	OpCall: cyclesBranch + cyclesMem, OpCallReg: cyclesBranch + cyclesMem, OpRet: cyclesBranch + cyclesMem,
	OpPush: cyclesMem, OpPushI: cyclesMem, OpPop: cyclesMem,
	OpSyscall: cyclesSyscall,
}

// Machine is a loaded guest program plus CPU and memory state.
type Machine struct {
	Mem   *Memory
	Regs  [NumRegs]uint32
	PC    int
	Flags int

	prog   *Program
	code   []Instr // relocated code, shared read-only via prog's relocImage
	layout Layout

	tools  toolSet
	probes [][]Probe

	// Cached dispatch flags, recomputed whenever tools or probes change, so
	// an untooled live guest pays no hook iteration on the per-instruction
	// and per-memory-access hot paths.
	instrDispatch bool // an InstrHook is attached or any probe is registered
	memDispatch   bool // a MemHook is attached
	callDispatch  bool // a CallHook is attached
	probeCount    int

	// Engine state (see blocks.go and blocks_tooled.go). probeGap clamps
	// fused runs short of probed indexes and is rebuilt lazily
	// (probeGapDirty) so that installing a fleet-wide antibody's probes costs
	// O(probes), not O(code) per machine. fastDispatch caches Run's engine
	// choice: no instr or mem tool is attached, so the fused loop runs;
	// otherwise the hook-calling engine does.
	desc          []uint64 // block descriptors, shared via relocImage
	uops          []uint64 // packed fused micro-ops, likewise
	uopsPlain     []uint64 // packed unfused micro-ops, likewise, for runHooked
	probeGap      []int32
	fastDispatch  bool
	probeGapDirty bool

	sys SyscallHandler

	cycles     uint64
	instrCount uint64

	stopped          bool
	pendingViolation *Violation

	// probesFiredAt is runFused's note to its next pass: the index whose
	// probes the pass before delivered (-1: none).
	probesFiredAt int
}

// NewMachine loads prog at the given layout and returns a machine ready to
// run. The syscall handler may be nil for pure-computation programs.
func NewMachine(prog *Program, layout Layout, sys SyscallHandler) (*Machine, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	if len(prog.Code) == 0 {
		return nil, fmt.Errorf("vm: program %q has no code", prog.Name)
	}
	if len(prog.Code)*InstrSize > SegmentSpan || len(prog.Data) > SegmentSpan {
		return nil, fmt.Errorf("vm: program %q exceeds the %d-byte segment span layouts reserve", prog.Name, SegmentSpan)
	}
	m := &Machine{
		Mem:    NewMemory(),
		prog:   prog,
		layout: layout,
		sys:    sys,
	}
	// Attach the program's shared relocated image for this layout: code and
	// packed micro-ops are immutable and content-addressed by (code base,
	// data base), so clones and pooled shells load in O(1) instead of
	// re-relocating. Per-machine instrumentation lives in the probe overlay.
	img, err := prog.relocImage(layout)
	if err != nil {
		return nil, err
	}
	m.code = img.code
	m.probes = make([][]Probe, len(m.code))
	m.desc = img.desc
	m.uops = img.uops
	m.uopsPlain = img.plain
	m.refreshDispatch()

	// Map segments by restoring the program's shared base image: data and
	// stack pages are content-interned in the process-wide BaseStore, so
	// every same-program machine starts on the same immutable backing pages
	// and copies-on-write privately on first touch. The heap region is
	// mapped lazily by the allocator.
	m.Mem.Restore(defaultBaseStore.BaseImage(prog, layout))

	m.PC = prog.Entry
	m.Regs[SP] = layout.StackTop()
	m.Regs[BP] = layout.StackTop()
	return m, nil
}

// Program returns the loaded program image.
func (m *Machine) Program() *Program { return m.prog }

// Layout returns the address-space layout in effect for this machine.
func (m *Machine) Layout() Layout { return m.layout }

// Code returns the relocated instruction stream.
func (m *Machine) Code() []Instr { return m.code }

// InstrAt returns the instruction at index idx, or a Nop if out of range.
func (m *Machine) InstrAt(idx int) Instr {
	if idx < 0 || idx >= len(m.code) {
		return Instr{Op: OpNop}
	}
	return m.code[idx]
}

// AddrOfIndex converts an instruction index to its loaded code address.
//
// Contract with IndexOfAddr: for every idx in [0, len(code)] — the one-past-
// the-end index included, since it is the return address a call at the last
// instruction pushes — AddrOfIndex returns CodeBase + idx*InstrSize, and
// IndexOfAddr inverts it for idx in [0, len(code)) while rejecting the
// one-past-the-end address (it is not executable). Out-of-range indexes are
// clamped to the segment bounds rather than fabricating addresses: a negative
// index would otherwise wrap through uint32 into an address far outside the
// code segment (the old FaultBadPC garbage-address bug), and indexes past the
// end would alias unrelated memory. Block-boundary math relies on this.
func (m *Machine) AddrOfIndex(idx int) uint32 {
	if idx < 0 {
		idx = 0
	} else if idx > len(m.code) {
		idx = len(m.code)
	}
	return m.layout.CodeBase + uint32(idx)*InstrSize
}

// badPCFault raises the fault for a PC outside the code segment. The fault
// address is the clamped segment bound (AddrOfIndex), and the raw index goes
// in the detail, so a wild jump to index -1 reports CodeBase rather than a
// wrapped garbage address.
func (m *Machine) badPCFault() *StopInfo {
	return m.fault(FaultBadPC, m.AddrOfIndex(m.PC), false,
		fmt.Sprintf("program counter %d outside code segment [0,%d)", m.PC, len(m.code)))
}

// IndexOfAddr converts a code address back into an instruction index. It is
// the inverse of AddrOfIndex for in-range indexes; see AddrOfIndex for the
// round-trip contract.
func (m *Machine) IndexOfAddr(addr uint32) (int, bool) {
	if addr < m.layout.CodeBase {
		return 0, false
	}
	off := addr - m.layout.CodeBase
	if off%InstrSize != 0 {
		return 0, false
	}
	idx := int(off / InstrSize)
	if idx >= len(m.code) {
		return 0, false
	}
	return idx, true
}

// SymbolAt returns the function symbol containing instruction idx.
func (m *Machine) SymbolAt(idx int) string {
	if idx >= 0 && idx < len(m.code) && m.code[idx].Sym != "" {
		return m.code[idx].Sym
	}
	return fmt.Sprintf("@%d", idx)
}

// Cycles returns the virtual cycle count consumed so far.
func (m *Machine) Cycles() uint64 { return m.cycles }

// AddCycles charges extra virtual cycles (used by the syscall handler and the
// checkpoint manager to account for their own work).
func (m *Machine) AddCycles(n uint64) { m.cycles += n }

// NowMillis returns the virtual time in milliseconds.
func (m *Machine) NowMillis() uint64 { return m.cycles / (CyclesPerMicrosecond * 1000) }

// InstrCount returns the number of retired instructions.
func (m *Machine) InstrCount() uint64 { return m.instrCount }

// refreshDispatch recomputes the cached hot-path dispatch flags. Everything
// that changes instrumentation (AttachTool, DetachTool, AddProbe,
// RemoveProbes, ClearProbes) funnels through here, which is what keeps the
// fused loop honest: attaching an instr or mem tool drops fastDispatch, moving
// Run to the hook-calling engine — never to silent hook skipping. Probe
// changes mark the probe-gap table dirty; the fused loop rebuilds it on next
// entry (see rebuildProbeGap).
func (m *Machine) refreshDispatch() {
	m.instrDispatch = len(m.tools.instr) > 0 || m.probeCount > 0
	m.memDispatch = len(m.tools.mem) > 0
	m.callDispatch = len(m.tools.call) > 0
	m.fastDispatch = len(m.tools.instr) == 0 && len(m.tools.mem) == 0
}

// AttachTool attaches an instrumentation tool; it takes effect from the next
// executed instruction.
func (m *Machine) AttachTool(t Tool) {
	m.tools.attach(t)
	m.refreshDispatch()
}

// DetachTool removes the named tool. It reports whether the tool was attached.
func (m *Machine) DetachTool(name string) bool {
	ok := m.tools.detach(name)
	m.refreshDispatch()
	return ok
}

// DetachAllTools removes every attached tool.
func (m *Machine) DetachAllTools() {
	m.tools.detachAll()
	m.refreshDispatch()
}

// FindTool returns the attached tool with the given name, or nil.
func (m *Machine) FindTool(name string) Tool { return m.tools.find(name) }

// Tools returns the names of all attached tools.
func (m *Machine) Tools() []string {
	names := make([]string, 0, len(m.tools.all))
	for _, t := range m.tools.all {
		names = append(names, t.Name())
	}
	return names
}

// AddProbe registers a targeted probe on instruction idx.
func (m *Machine) AddProbe(idx int, p Probe) error {
	if idx < 0 || idx >= len(m.code) {
		return fmt.Errorf("vm: probe index %d out of range", idx)
	}
	m.probes[idx] = append(m.probes[idx], p)
	m.probeCount++
	m.probeGapDirty = true
	m.refreshDispatch()
	return nil
}

// RemoveProbes removes every probe registered under the given name and
// returns how many were removed.
func (m *Machine) RemoveProbes(name string) int {
	removed := 0
	for i, list := range m.probes {
		if len(list) == 0 {
			continue
		}
		kept := list[:0]
		for _, p := range list {
			if p.Name() == name {
				removed++
			} else {
				kept = append(kept, p)
			}
		}
		m.probes[i] = kept
	}
	m.probeCount -= removed
	m.probeGapDirty = true
	m.refreshDispatch()
	return removed
}

// RemoveProbe removes one registration of p on instruction idx: what one
// AddProbe(idx, p) added, and nothing another owner registered there under
// the same name. It reports whether p was registered on idx.
func (m *Machine) RemoveProbe(idx int, p Probe) bool {
	if idx < 0 || idx >= len(m.probes) {
		return false
	}
	list := m.probes[idx]
	for i, q := range list {
		if q == p {
			m.probes[idx] = append(list[:i], list[i+1:]...)
			m.probeCount--
			m.probeGapDirty = true
			m.refreshDispatch()
			return true
		}
	}
	return false
}

// ClearProbes removes every registered probe regardless of owner. The clone
// pool uses it when resetting a shell for reuse.
func (m *Machine) ClearProbes() {
	for i := range m.probes {
		m.probes[i] = nil
	}
	m.probeCount = 0
	m.probeGapDirty = true
	m.refreshDispatch()
}

// ProbeCount returns the total number of registered probes.
func (m *Machine) ProbeCount() int { return m.probeCount }

// NotifyRollback tells every attached tool and probe implementing
// RollbackHook that the process has been rolled back to a checkpoint, so
// execution-shadowing state must be dropped. A probe registered on several
// instructions is notified once per registration; resets are idempotent.
func (m *Machine) NotifyRollback() {
	for _, t := range m.tools.all {
		if h, ok := t.(RollbackHook); ok {
			h.OnRollback(m)
		}
	}
	for _, list := range m.probes {
		for _, p := range list {
			if h, ok := p.(RollbackHook); ok {
				h.OnRollback(m)
			}
		}
	}
}

// RaiseViolation is called by tools, probes and monitors to stop execution.
// When raised from a BeforeInstr hook or probe, the instruction is not
// executed, so the violation also prevents the attack's effect.
func (m *Machine) RaiseViolation(v *Violation) {
	if v.PCAddr == 0 {
		v.PC = m.PC
		v.PCAddr = m.AddrOfIndex(m.PC)
		v.Sym = m.SymbolAt(m.PC)
	}
	if m.pendingViolation == nil {
		m.pendingViolation = v
	}
}

// NotifyInput reports that untrusted input bytes were written to guest memory
// (called by the syscall handler implementing recv).
func (m *Machine) NotifyInput(addr uint32, data []byte, requestID int) {
	for _, h := range m.tools.input {
		m.cycles += CyclesPerHook
		h.OnInput(m, addr, data, requestID)
	}
}

// NotifyMalloc reports a heap allocation to attached tools.
func (m *Machine) NotifyMalloc(addr uint32, size uint32) {
	for _, h := range m.tools.alloc {
		m.cycles += CyclesPerHook
		h.OnMalloc(m, m.PC, addr, size)
	}
}

// NotifyFree reports a heap free to attached tools.
func (m *Machine) NotifyFree(addr uint32) {
	for _, h := range m.tools.alloc {
		m.cycles += CyclesPerHook
		h.OnFree(m, m.PC, addr)
	}
}

func (m *Machine) fault(kind FaultKind, addr uint32, isWrite bool, detail string) *StopInfo {
	f := &Fault{
		Kind:    kind,
		Addr:    addr,
		PC:      m.PC,
		PCAddr:  m.AddrOfIndex(m.PC),
		Sym:     m.SymbolAt(m.PC),
		IsWrite: isWrite,
		Detail:  detail,
	}
	for _, h := range m.tools.fault {
		h.OnFault(m, f)
	}
	m.stopped = true
	return &StopInfo{Reason: StopFault, Fault: f}
}

func (m *Machine) violationStop() *StopInfo {
	v := m.pendingViolation
	m.pendingViolation = nil
	m.stopped = true
	return &StopInfo{Reason: StopViolation, Violation: v}
}

func (m *Machine) dispatchMemRead(idx int, addr uint32, size int, val uint32) {
	for _, h := range m.tools.mem {
		m.cycles += CyclesPerHook
		h.OnMemRead(m, idx, addr, size, val)
	}
}

func (m *Machine) dispatchMemWrite(idx int, addr uint32, size int, val uint32) {
	for _, h := range m.tools.mem {
		m.cycles += CyclesPerHook
		h.OnMemWrite(m, idx, addr, size, val)
	}
}

// Step executes a single instruction: the hook-calling engine (runHooked, see
// blocks_tooled.go) with a limit of one. It returns nil if execution may
// continue, or a StopInfo describing why it must stop.
func (m *Machine) Step() *StopInfo {
	if stop := m.stopAtEntry(); stop != nil {
		return stop
	}
	stop, _ := m.runHooked(1)
	return stop
}

// stopAtEntry reports the stop a machine that cannot execute is already in: it
// has halted or faulted, or a violation was raised while it was not running.
func (m *Machine) stopAtEntry() *StopInfo {
	if m.stopped {
		return &StopInfo{Reason: StopHalt}
	}
	if m.pendingViolation != nil {
		return m.violationStop()
	}
	return nil
}

// Run executes instructions until the machine stops or the budget (number of
// instructions; 0 means unlimited) is exhausted. Nothing is allocated on the
// hot path: a StopInfo is built only when execution actually stops.
//
// There are two engines, selected by what is attached. With no instr or mem
// tool the fused basic-block engine runs (runFused, see blocks.go), and the
// instructions it cannot express — syscalls, halts, illegal opcodes, call/ret
// under call hooks, the first half of a fused pair that a probe or the budget
// splits — go one at a time through the hook-calling engine (runHooked, see
// blocks_tooled.go), which otherwise runs the whole slice. The choice is made
// again after every hook-calling entry, since a syscall handler may attach
// tools. Both engines retire the same instructions with the same accounting,
// so StopInstrBudget fires at exactly the same instruction either way.
func (m *Machine) Run(budget uint64) *StopInfo {
	if stop := m.stopAtEntry(); stop != nil {
		return stop
	}
	remaining := ^uint64(0) // unlimited
	if budget > 0 {
		remaining = budget
	}
	for remaining > 0 {
		limit := remaining
		if m.fastDispatch {
			stop, executed := m.runFused(remaining)
			if stop != nil {
				return stop
			}
			if remaining -= executed; remaining == 0 {
				break
			}
			limit = 1
		}
		stop, executed := m.runHooked(limit)
		if stop != nil {
			return stop
		}
		remaining -= executed
	}
	return &StopInfo{Reason: StopInstrBudget}
}

// Halted reports whether the machine has permanently stopped.
func (m *Machine) Halted() bool { return m.stopped }

// ClearStop clears a previous fault/halt condition so that execution can be
// resumed after state has been externally repaired (used by rollback).
func (m *Machine) ClearStop() { m.stopped = false; m.pendingViolation = nil }

// RegSnapshot captures registers, PC, flags and clock for checkpointing.
type RegSnapshot struct {
	Regs       [NumRegs]uint32
	PC         int
	Flags      int
	Cycles     uint64
	InstrCount uint64
}

// SaveRegs captures the CPU register state.
func (m *Machine) SaveRegs() RegSnapshot {
	return RegSnapshot{Regs: m.Regs, PC: m.PC, Flags: m.Flags, Cycles: m.cycles, InstrCount: m.instrCount}
}

// RestoreRegs restores a previously captured CPU register state.
func (m *Machine) RestoreRegs(s RegSnapshot) {
	m.Regs = s.Regs
	m.PC = s.PC
	m.Flags = s.Flags
	m.cycles = s.Cycles
	m.instrCount = s.InstrCount
	m.stopped = false
	m.pendingViolation = nil
}

// EffectiveAddr computes the data address accessed by a load/store/push/pop
// instruction given the current register state, for analysis tools that need
// it before execution.
func (m *Machine) EffectiveAddr(in *Instr) (addr uint32, size int, isWrite bool, ok bool) {
	switch in.Op {
	case OpLoadB:
		return m.Regs[in.Rs] + uint32(in.Imm), 1, false, true
	case OpLoadW:
		return m.Regs[in.Rs] + uint32(in.Imm), 4, false, true
	case OpStoreB:
		return m.Regs[in.Rd] + uint32(in.Imm), 1, true, true
	case OpStoreW:
		return m.Regs[in.Rd] + uint32(in.Imm), 4, true, true
	case OpPush, OpPushI, OpCall, OpCallReg:
		return m.Regs[SP] - 4, 4, true, true
	case OpPop, OpRet:
		return m.Regs[SP], 4, false, true
	}
	return 0, 0, false, false
}

func cmp32(a, b int32) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
