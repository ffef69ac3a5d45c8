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
// taint labels.
type InputHook interface {
	OnInput(m *Machine, addr uint32, data []byte, requestID int)
}

// SyscallHook receives a callback before every syscall.
type SyscallHook interface {
	BeforeSyscall(m *Machine, idx int, num uint32)
}

// RollbackHook is implemented by tools and probes whose internal state
// shadows the guest's execution (saved return addresses, shadow stacks,
// taint labels). The machine invokes it when the process is rolled back to a
// checkpoint: shadow state accumulated by the abandoned execution describes
// memory that no longer exists, and letting it leak into the re-execution
// produces false violations (e.g. an adopted taint VSEF still considering
// bytes of the excised attack request tainted during recovery replay).
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
	all     []Tool
	instr   []InstrHook
	mem     []MemHook
	call    []CallHook
	alloc   []AllocHook
	input   []InputHook
	syscall []SyscallHook
	fault   []FaultHook
}

func (ts *toolSet) rebuild() {
	ts.instr = ts.instr[:0]
	ts.mem = ts.mem[:0]
	ts.call = ts.call[:0]
	ts.alloc = ts.alloc[:0]
	ts.input = ts.input[:0]
	ts.syscall = ts.syscall[:0]
	ts.fault = ts.fault[:0]
	for _, t := range ts.all {
		if h, ok := t.(InstrHook); ok {
			ts.instr = append(ts.instr, h)
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
		if h, ok := t.(SyscallHook); ok {
			ts.syscall = append(ts.syscall, h)
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
