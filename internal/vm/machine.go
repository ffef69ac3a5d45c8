package vm

import (
	"fmt"
	"slices"
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
//
// The contract: a probe observes. It fires before its instruction counts or
// costs anything, after the instruction hooks, and reads the committed
// registers, flags, PC, clock and guest memory; its one allowed effect on the
// machine is RaiseViolation. It never writes guest state (registers, flags,
// PC, memory, clock) and never adds or removes probes or tools. Its own state
// (a side stack, shadow taint) is its business. That is what lets the fused
// loop deliver probes in the middle of a block and carry on without
// reloading anything.
//
// A probe may also implement LoopHook, and so keep the kernel of a byte loop
// it is on (loops.go's header): a promise that OnProbe, at any of the
// probe's indexes in the loop during the iterations LoopBound allowed, would
// have raised nothing and changed nothing of the probe's own state that
// LoopRan does not change alike.
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

// Effects is what an opcode reads and writes besides the PC, the one account
// of the ISA's data flow that the loader, the analysis tools and the opcode
// predicates read. A register is a fixed one or an operand field (Instr.Reg).
// An opcode past the ISA has none. A syscall's registers are the handler's
// convention; what it writes to memory reaches tools through InputHook.
type Effects struct {
	Reads       []Reg // in the order the slicer records its dependences
	Writes      []Reg
	ReadsFlags  bool
	WritesFlags bool
	Branch      bool // may change control flow
	Mem         MemAccess
}

// MemAccess is an opcode's one data memory access: Size bytes (0: none) at
// register Base plus the instruction's Imm or, off SP, plus SPOff.
type MemAccess struct {
	Size  int
	Write bool
	Base  Reg
	SPOff int32
}

// Disp returns the displacement of in's access from its base register.
func (a *MemAccess) Disp(in *Instr) int32 {
	if a.Base == SP {
		return a.SPOff
	}
	return in.Imm
}

// Effects returns the opcode's entry in the effects table.
func (o Op) Effects() *Effects { return &opEffects[o] }

var opEffects = func() (t [256]Effects) {
	rd, rs, rdrs, sp := []Reg{OperandRd}, []Reg{OperandRs}, []Reg{OperandRd, OperandRs}, []Reg{SP}
	push, pop := MemAccess{Size: 4, Write: true, Base: SP, SPOff: -4}, MemAccess{Size: 4, Base: SP}
	t[OpMovI] = Effects{Writes: rd}
	t[OpMov] = Effects{Reads: rs, Writes: rd}
	t[OpLea] = t[OpMov]
	t[OpLoadB] = Effects{Reads: rs, Writes: rd, Mem: MemAccess{Size: 1, Base: OperandRs}}
	t[OpLoadW] = Effects{Reads: rs, Writes: rd, Mem: MemAccess{Size: 4, Base: OperandRs}}
	t[OpStoreB] = Effects{Reads: rdrs, Mem: MemAccess{Size: 1, Write: true, Base: OperandRd}}
	t[OpStoreW] = Effects{Reads: rdrs, Mem: MemAccess{Size: 4, Write: true, Base: OperandRd}}
	for op := OpAdd; op <= OpShr; op++ {
		t[op] = Effects{Reads: rdrs, Writes: rd}
		t[op-OpAdd+OpAddI] = Effects{Reads: rd, Writes: rd}
	}
	t[OpCmp] = Effects{Reads: rdrs, WritesFlags: true}
	t[OpCmpI] = Effects{Reads: rd, WritesFlags: true}
	t[OpJmp] = Effects{Branch: true}
	for op := OpJz; op <= OpJge; op++ {
		t[op] = Effects{ReadsFlags: true, Branch: true}
	}
	t[OpJmpReg] = Effects{Reads: rd, Branch: true}
	t[OpCall] = Effects{Reads: sp, Writes: sp, Branch: true, Mem: push}
	t[OpCallReg] = Effects{Reads: []Reg{OperandRd, SP}, Writes: sp, Branch: true, Mem: push}
	t[OpRet] = Effects{Reads: sp, Writes: sp, Branch: true, Mem: pop}
	t[OpPush] = Effects{Reads: []Reg{OperandRd, SP}, Writes: sp, Mem: push}
	t[OpPushI] = Effects{Reads: sp, Writes: sp, Mem: push}
	t[OpPop] = Effects{Reads: sp, Writes: []Reg{OperandRd, SP}, Mem: pop}
	t[OpSyscall] = Effects{Reads: []Reg{R0, R1, R2, R3}, Writes: []Reg{R0}}
	return t
}()

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
	// listeners are the distinct probes implementing InputHook or
	// RollbackHook, which the notifications walk instead of probes.
	listeners []listener

	// Cached dispatch state, recomputed whenever tools change, so
	// an untooled live guest pays no hook iteration on the per-instruction
	// and per-memory-access hot paths. before is what runHooked calls before
	// an instruction whose opcode is in beforeOps, after charging beforeCyc
	// (see refreshDispatch).
	before       InstrHook
	beforeOps    OpSet
	beforeCyc    uint64
	memDispatch  bool // a MemHook is attached
	callDispatch bool // a CallHook is attached
	probeCount   int

	// Engine state (see blocks.go and blocks_tooled.go). desc is the
	// relocated image's block descriptor table and imageUops its micro-ops,
	// both shared via relocImage; uops is what both engines run: the image's
	// micro-ops, or the machine's overlay of them when a probe is registered
	// or a loop kernel is off. The overlay and watches, what watches each of
	// the image's loops (loops.go), are rebuilt lazily (overlayDirty) so that
	// installing a fleet-wide antibody's probes costs O(probes), not O(code),
	// per mutation; loopArg is the ByteLoop handed to LoopHooks. fastDispatch
	// caches Run's engine choice: no instr or mem tool is attached, so the
	// fused loop runs; otherwise the hook-calling engine does.
	desc                     []uint64
	uops, imageUops, overlay []uint64
	loops                    []byteLoop
	watches                  []loopWatch
	loopArg                  ByteLoop
	fastDispatch             bool
	overlayDirty             bool

	sys SyscallHandler

	cycles, instrCount, probeFires uint64
	// loopRetired counts the instructions loop kernels retired, for the
	// tests that pin their coverage.
	loopRetired uint64

	stopped          bool
	pendingViolation *Violation
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
	m.uops, m.imageUops = img.uops, img.uops
	m.loops = img.loops
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

// ProbeFires returns the number of probe deliveries: one per probe each time
// its instruction is about to execute, whichever engine executes it. Unlike
// the clock and InstrCount, RestoreRegs does not roll it back.
func (m *Machine) ProbeFires() uint64 { return m.probeFires }

// refreshDispatch recomputes the cached hot-path dispatch flags. Every tool
// change (AttachTool, DetachTool, DetachAllTools) funnels through here, which
// is what keeps the fused loop honest: attaching an instr or mem tool drops
// fastDispatch, moving Run to the hook-calling engine — never to silent hook
// skipping (a hook is skipped only at the opcodes it declares it does not
// observe). Tool and probe changes mark the overlay dirty; the next entry
// rebuilds it (rebuildOverlay), and with it whether and under what each loop
// kernel runs (loops.go's header).
//
// What runs before an instruction is nothing, the one instruction hook
// itself, called only at the opcodes it observes, or an adapter that fans out
// to every hook (instrFanout), called before every instruction.
func (m *Machine) refreshDispatch() {
	switch len(m.tools.instr) {
	case 0:
		m.before, m.beforeOps, m.beforeCyc = nil, 0, 0
	case 1:
		m.before, m.beforeOps, m.beforeCyc = m.tools.instr[0], m.tools.ops[0], CyclesPerHook
	default:
		m.before, m.beforeOps, m.beforeCyc = instrFanout{}, allOps, 0
	}
	m.memDispatch = len(m.tools.mem) > 0
	m.callDispatch = len(m.tools.call) > 0
	m.fastDispatch = len(m.tools.instr) == 0 && len(m.tools.mem) == 0
	m.overlayDirty = true
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
	clear(m.watches) // nor may the loop watches keep the tools reachable
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
	m.overlayDirty = true
	m.listen(p, 1)
	return nil
}

// listener is a registered probe that takes input or rollback notifications
// and how many registrations it has.
type listener struct {
	p Probe
	n int
}

// listen adds d to p's registrations in m.listeners, entering p at its first
// and dropping it at its last, if p implements InputHook or RollbackHook.
func (m *Machine) listen(p Probe, d int) {
	_, in := p.(InputHook)
	if _, rb := p.(RollbackHook); !in && !rb {
		return
	}
	i := slices.IndexFunc(m.listeners, func(l listener) bool { return l.p == p })
	switch {
	case i < 0:
		m.listeners = append(m.listeners, listener{p: p, n: d})
	case m.listeners[i].n+d == 0:
		m.listeners = slices.Delete(m.listeners, i, i+1)
	default:
		m.listeners[i].n += d
	}
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
			m.overlayDirty = true
			m.listen(p, -1)
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
	clear(m.watches)
	m.listeners = nil
	m.probeCount = 0
	m.overlayDirty = true
}

// ProbeCount returns the total number of registered probes.
func (m *Machine) ProbeCount() int { return m.probeCount }

// NotifyRollback tells every attached tool and registered probe implementing
// RollbackHook that the process has been rolled back to a checkpoint, so
// execution-shadowing state must be dropped. A probe registered on several
// instructions is told once. A machine with no tools and no probes does no
// work.
func (m *Machine) NotifyRollback() {
	for _, t := range m.tools.all {
		if h, ok := t.(RollbackHook); ok {
			h.OnRollback(m)
		}
	}
	for _, l := range m.listeners {
		if h, ok := l.p.(RollbackHook); ok {
			h.OnRollback(m)
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
// (called by the syscall handler implementing recv) to every attached tool and
// registered probe implementing InputHook, a probe once however many
// instructions it is on. Each delivery costs CyclesPerHook.
func (m *Machine) NotifyInput(addr uint32, data []byte, requestID int) {
	for _, h := range m.tools.input {
		m.cycles += CyclesPerHook
		h.OnInput(m, addr, data, requestID)
	}
	for _, l := range m.listeners {
		if h, ok := l.p.(InputHook); ok {
			m.cycles += CyclesPerHook
			h.OnInput(m, addr, data, requestID)
		}
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
// under call hooks, the first half of a fused pair that the budget splits —
// go one at a time through the hook-calling engine (runHooked, see
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
			retired := m.instrCount
			if stop := m.runFused(remaining); stop != nil {
				return stop
			}
			if remaining -= m.instrCount - retired; remaining == 0 {
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
// resumed after state has been externally repaired. Rollback does not need
// it: RestoreRegs clears the stop itself.
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

// EffectiveAddr computes the data address an instruction accesses (its
// opcode's Effects.Mem) from the current register state, for analysis tools
// that need it before execution. Without an access, ok is false and size 0.
func (m *Machine) EffectiveAddr(in *Instr) (addr uint32, size int, isWrite bool, ok bool) {
	a := &opEffects[in.Op].Mem
	return m.Regs[in.Reg(a.Base)] + uint32(a.Disp(in)), a.Size, a.Write, a.Size != 0
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
