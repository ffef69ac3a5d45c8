package vm

// Tool is an instrumentation tool that can be attached to a running Machine.
// A tool implements any subset of the optional hook interfaces below; the
// machine only dispatches the hooks a tool actually implements. This mirrors
// PIN-style dynamic binary instrumentation: tools are attached and detached
// at runtime, including in the middle of an execution being replayed.
type Tool interface {
	// Name identifies the tool in violations and reports.
	Name() string
}

// InstrHook receives a callback before every executed instruction. in points
// into the machine's loaded code image (shared across every machine at the
// same layout): it is valid only for the duration of the call and must be
// treated as read-only. Passing a pointer keeps the per-instruction dispatch
// in the block engines from copying the three-word Instr on every call.
type InstrHook interface {
	BeforeInstr(m *Machine, idx int, in *Instr)
}

// OpSet is a set of opcodes: bit op is set when Op op is in it. Every opcode
// is below 64.
type OpSet uint64

// allOps is the set of an instruction hook that declares none: every opcode,
// illegal ones included (runHooked looks an opcode of 63 or more up at bit
// 63).
const allOps = ^OpSet(0)

// Opcodes fit an OpSet, with bit 63 left for the illegal ones.
const _ = 63 - numOps

// OpObserver is implemented by an instruction hook that observes only some
// opcodes. The hook-calling engine then calls its BeforeInstr only before
// instructions whose opcode is in ObservedOps, and never at an illegal
// opcode. The machine reads the set whenever its tools change; it must not
// change while the hook is attached.
//
// A declaring hook must do nothing at the opcodes it leaves out: skipping it
// there is meant to change nothing but host time. CyclesPerHook is charged
// for it before every instruction, called or not, so Cycles, InstrCount,
// stops and guest memory are those of a machine that calls it everywhere.
// A hook without the interface is called before every instruction.
type OpObserver interface {
	ObservedOps() OpSet
}

// Has reports whether op is in s.
func (s OpSet) Has(op Op) bool { return s>>op&1 != 0 }

// calls reports whether a hook observing s is called before op: op's bit, or
// bit 63 for the opcodes that have none.
func (s OpSet) calls(op Op) bool { return s>>min(op, 63)&1 != 0 }

// observedOps is the set of opcodes before which h is called.
func observedOps(h InstrHook) OpSet {
	if o, ok := h.(OpObserver); ok {
		return o.ObservedOps() & (1<<numOps - 1)
	}
	return allOps
}

// ByteLoop is a run of a recognised byte loop's continuing iterations (see
// loops.go) as an engine hands it to a LoopHook. An iteration retires the N
// instructions from the loadb at index Load (the loop's head) through the
// jmp back to it. Iteration i, from 0, reads the byte at Src+i with the loadb
// into register X; in a copy it then writes that byte to Dst+i with the
// storeb at Load+1. No other instruction of an iteration touches memory or
// calls anything a tool hooks: compares, a conditional jump not taken,
// immediate adds to the pointers and the jump back to the head. It is the
// machine's: valid only for the call, and read-only.
type ByteLoop struct {
	Copy     bool
	Load, N  int
	X        Reg
	Src, Dst uint32
}

// LoopHook is implemented by a tool or a probe that can account for a run of
// a byte loop's iterations in one call: the taint tracker, the memory-bug
// detector and the slicer, and the heap-bounds and taint-guard probes. A
// loop's kernel runs only when everything that watches the loop implements
// it (loops.go's header); otherwise the loop runs one instruction at a time,
// with every hook.
//
// Before the run, LoopBound reports how many of the next most iterations of
// l the tool or probe would record nothing in that LoopRan cannot apply: no
// finding, no violation. 0 declines, and the engine executes the next
// iteration one instruction at a time, with its hooks. A bound is worked out
// from ranges, never byte by byte: most may be the whole of an unlimited
// budget. After the run, LoopRan applies the effects of the k iterations
// that ran (k is at most every bound). The machine is then already past
// them: the registers, flags, memory, clock (with every hook or probe charge
// those iterations would have cost), InstrCount and ProbeFires are those of
// the per-instruction path, and PC is the head again. A tool or probe is
// called once per run, however many of the loop's indexes it is on.
type LoopHook interface {
	LoopBound(m *Machine, l *ByteLoop, most uint64) uint64
	LoopRan(m *Machine, l *ByteLoop, k uint64)
}

// MemHook receives callbacks for every data memory access (loads, stores,
// pushes and pops). idx is the index of the instruction performing the access.
type MemHook interface {
	OnMemRead(m *Machine, idx int, addr uint32, size int, val uint32)
	OnMemWrite(m *Machine, idx int, addr uint32, size int, val uint32)
}

// CallHook receives callbacks at calls and returns. retSlot is the stack
// address holding the return address; retAddr is the return address value.
type CallHook interface {
	OnCall(m *Machine, idx int, targetIdx int, retAddr uint32, retSlot uint32)
	OnRet(m *Machine, idx int, retAddr uint32, retSlot uint32)
}

// AllocHook receives callbacks from the heap allocator syscalls.
type AllocHook interface {
	OnMalloc(m *Machine, idx int, addr uint32, size uint32)
	OnFree(m *Machine, idx int, addr uint32)
}

// InputHook receives a callback whenever untrusted input bytes are copied
// into guest memory (the recv syscall). Taint analysis uses it to introduce
// taint labels: as an attached tool, or as a taint guard's probe, which is
// called once per input however many instructions it is registered on.
type InputHook interface {
	OnInput(m *Machine, addr uint32, data []byte, requestID int)
}

// RollbackHook is implemented by tools and probes whose internal state
// shadows the guest's execution (saved return addresses, shadow stacks,
// taint labels). The machine invokes it, once per tool and per distinct
// probe, when the process is rolled back to a checkpoint: shadow state
// accumulated by the abandoned execution describes memory that no longer
// exists, and letting it leak into the re-execution produces false
// violations (e.g. an adopted taint VSEF still considering bytes of the
// excised attack request tainted during recovery replay).
type RollbackHook interface {
	OnRollback(m *Machine)
}

// FaultHook receives a callback when the machine raises a hardware fault.
type FaultHook interface {
	OnFault(m *Machine, f *Fault)
}

// toolSet caches tools by the hook interfaces they implement so the hot
// interpreter loop does not perform interface type assertions per instruction.
type toolSet struct {
	all   []Tool
	instr []InstrHook
	ops   []OpSet // ops[i]: the opcodes instr[i] observes
	mem   []MemHook
	call  []CallHook
	alloc []AllocHook
	input []InputHook
	fault []FaultHook
	// loop holds, per instruction or memory tool, its LoopHook: nil for a
	// tool without one.
	loop []LoopHook
}

func (ts *toolSet) rebuild() {
	ts.instr = ts.instr[:0]
	ts.ops = ts.ops[:0]
	ts.mem = ts.mem[:0]
	ts.call = ts.call[:0]
	ts.alloc = ts.alloc[:0]
	ts.input = ts.input[:0]
	ts.fault = ts.fault[:0]
	ts.loop = ts.loop[:0]
	for _, t := range ts.all {
		_, instr := t.(InstrHook)
		_, mem := t.(MemHook)
		if h, _ := t.(LoopHook); instr || mem {
			ts.loop = append(ts.loop, h)
		}
		if h, ok := t.(InstrHook); ok {
			ts.instr = append(ts.instr, h)
			ts.ops = append(ts.ops, observedOps(h))
		}
		if h, ok := t.(MemHook); ok {
			ts.mem = append(ts.mem, h)
		}
		if h, ok := t.(CallHook); ok {
			ts.call = append(ts.call, h)
		}
		if h, ok := t.(AllocHook); ok {
			ts.alloc = append(ts.alloc, h)
		}
		if h, ok := t.(InputHook); ok {
			ts.input = append(ts.input, h)
		}
		if h, ok := t.(FaultHook); ok {
			ts.fault = append(ts.fault, h)
		}
	}
}

func (ts *toolSet) attach(t Tool) {
	ts.all = append(ts.all, t)
	ts.rebuild()
}

func (ts *toolSet) detach(name string) bool {
	for i, t := range ts.all {
		if t.Name() == name {
			ts.all = append(ts.all[:i], ts.all[i+1:]...)
			ts.rebuild()
			return true
		}
	}
	return false
}

func (ts *toolSet) detachAll() {
	// Not rebuild: the emptied hook lists would keep the detached tools
	// reachable from their arrays.
	*ts = toolSet{}
}

func (ts *toolSet) find(name string) Tool {
	for _, t := range ts.all {
		if t.Name() == name {
			return t
		}
	}
	return nil
}
