package vm

import "fmt"

// RefRun is the reference interpreter the engines are fuzzed against: Run's
// contract executed the obvious way, one decoded Instr at a time, straight
// from isa.go — no micro-ops, no blocks, no batching, no TLB fast paths. It
// drives the same Machine state (registers, memory, clock, tools, probes,
// syscall handler) so a test runs one machine under Run and its twin under
// RefRun and compares everything either can observe.
func RefRun(m *Machine, budget uint64) *StopInfo {
	for n := uint64(0); budget == 0 || n < budget; n++ {
		if stop := refStep(m); stop != nil {
			return stop
		}
	}
	return &StopInfo{Reason: StopInstrBudget}
}

// refCost is the virtual-cycle cost of an opcode by class.
func refCost(op Op) uint64 {
	switch {
	case op == OpMul || op == OpDiv || op == OpMod || op == OpMulI || op == OpDivI || op == OpModI:
		return cyclesMulDiv
	case op <= OpLea || op >= OpAdd && op <= OpCmpI:
		return cyclesALU
	case op.IsLoad() || op.IsStore() || op == OpPush || op == OpPushI || op == OpPop:
		return cyclesMem
	case op == OpCall || op == OpCallReg || op == OpRet:
		return cyclesBranch + cyclesMem
	case op.IsBranch():
		return cyclesBranch
	case op == OpSyscall:
		return cyclesSyscall
	}
	return 0 // halt, illegal
}

// refALU computes a two-operand arithmetic/logic op given in register form; a
// non-empty detail is a divide fault.
func refALU(op Op, a, b uint32) (res uint32, detail string) {
	switch op {
	case OpAdd:
		return a + b, ""
	case OpSub:
		return a - b, ""
	case OpMul:
		return a * b, ""
	case OpDiv:
		if b == 0 {
			return 0, "division by zero"
		}
		return a / b, ""
	case OpMod:
		if b == 0 {
			return 0, "modulo by zero"
		}
		return a % b, ""
	case OpAnd:
		return a & b, ""
	case OpOr:
		return a | b, ""
	case OpXor:
		return a ^ b, ""
	case OpShl:
		return a << (b & 31), ""
	case OpShr:
		return a >> (b & 31), ""
	}
	panic("refALU: not an ALU op")
}

// refRead and refWrite access guest memory; refSawRead and refSawWrite deliver
// a completed access to every memory hook. Violations are the caller's to
// check: call and ret deliver their call hooks first.
func refRead(m *Machine, addr uint32, size int) (uint32, bool) {
	if size == 1 {
		b, ok := m.Mem.ReadU8(addr)
		return uint32(b), ok
	}
	return m.Mem.ReadWord(addr)
}

func refWrite(m *Machine, addr uint32, size int, val uint32) bool {
	if size == 1 {
		return m.Mem.WriteU8(addr, byte(val))
	}
	return m.Mem.WriteWord(addr, val)
}

func refSawRead(m *Machine, idx int, addr uint32, size int, val uint32) {
	for _, h := range m.tools.mem {
		m.cycles += CyclesPerHook
		h.OnMemRead(m, idx, addr, size, val)
	}
}

func refSawWrite(m *Machine, idx int, addr uint32, size int, val uint32) {
	for _, h := range m.tools.mem {
		m.cycles += CyclesPerHook
		h.OnMemWrite(m, idx, addr, size, val)
	}
}

func refStep(m *Machine) *StopInfo {
	if m.stopped {
		return &StopInfo{Reason: StopHalt}
	}
	if m.pendingViolation != nil {
		return m.violationStop()
	}
	if m.PC < 0 || m.PC >= len(m.code) {
		return m.badPCFault()
	}
	idx := m.PC
	in := m.code[idx]

	// Before the instruction counts or costs anything: instruction hooks, then
	// this index's probes. A violation from either leaves it unexecuted.
	for _, h := range m.tools.instr {
		m.cycles += CyclesPerHook
		h.BeforeInstr(m, idx, &m.code[idx])
	}
	for _, p := range m.probes[idx] {
		m.cycles += CyclesPerProbe
		p.OnProbe(m, idx, &m.code[idx])
	}
	if m.pendingViolation != nil {
		return m.violationStop()
	}
	m.instrCount++
	m.cycles += refCost(in.Op)

	next := idx + 1
	imm := uint32(in.Imm)
	size := 4
	if in.Op == OpLoadB || in.Op == OpStoreB {
		size = 1
	}
	switch op := in.Op; {
	case op == OpNop:
	case op == OpMovI:
		m.Regs[in.Rd] = imm
	case op == OpMov:
		m.Regs[in.Rd] = m.Regs[in.Rs]
	case op == OpLea:
		m.Regs[in.Rd] = m.Regs[in.Rs] + imm

	case op.IsLoad():
		addr := m.Regs[in.Rs] + imm
		val, ok := refRead(m, addr, size)
		if !ok {
			return m.fault(FaultPage, addr, false, "read from unmapped memory")
		}
		if refSawRead(m, idx, addr, size, val); m.pendingViolation != nil {
			return m.violationStop()
		}
		m.Regs[in.Rd] = val
	case op.IsStore():
		addr := m.Regs[in.Rd] + imm
		if !refWrite(m, addr, size, m.Regs[in.Rs]) {
			return m.fault(FaultPage, addr, true, "write to unmapped memory")
		}
		refSawWrite(m, idx, addr, size, m.Regs[in.Rs])

	case op >= OpAdd && op <= OpShr:
		res, detail := refALU(op, m.Regs[in.Rd], m.Regs[in.Rs])
		if detail != "" {
			return m.fault(FaultDivZero, 0, false, detail)
		}
		m.Regs[in.Rd] = res
	case op >= OpAddI && op <= OpShrI:
		res, detail := refALU(op-OpAddI+OpAdd, m.Regs[in.Rd], imm)
		if detail != "" {
			return m.fault(FaultDivZero, 0, false, detail+" immediate")
		}
		m.Regs[in.Rd] = res

	case op == OpCmp:
		m.Flags = cmp32(int32(m.Regs[in.Rd]), int32(m.Regs[in.Rs]))
	case op == OpCmpI:
		m.Flags = cmp32(int32(m.Regs[in.Rd]), in.Imm)

	case op == OpJmp,
		op == OpJz && m.Flags == 0, op == OpJnz && m.Flags != 0,
		op == OpJlt && m.Flags < 0, op == OpJle && m.Flags <= 0,
		op == OpJgt && m.Flags > 0, op == OpJge && m.Flags >= 0:
		next = int(in.Imm)
	case op.IsCondBranch(): // not taken
	case op == OpJmpReg:
		target, ok := m.IndexOfAddr(m.Regs[in.Rd])
		if !ok {
			return m.fault(FaultBadPC, m.Regs[in.Rd], false, "indirect jump outside code segment")
		}
		next = target

	case op == OpCall || op == OpCallReg:
		target := int(in.Imm)
		if op == OpCallReg {
			var ok bool
			if target, ok = m.IndexOfAddr(m.Regs[in.Rd]); !ok {
				return m.fault(FaultBadPC, m.Regs[in.Rd], false, "indirect call outside code segment")
			}
		}
		retAddr, slot := m.AddrOfIndex(idx+1), m.Regs[SP]-4
		if !refWrite(m, slot, 4, retAddr) {
			return m.fault(FaultPage, slot, true, "stack push failed during call")
		}
		m.Regs[SP] = slot
		refSawWrite(m, idx, slot, 4, retAddr)
		for _, h := range m.tools.call {
			m.cycles += CyclesPerHook
			h.OnCall(m, idx, target, retAddr, slot)
		}
		next = target
	case op == OpRet:
		slot := m.Regs[SP]
		retAddr, ok := refRead(m, slot, 4)
		if !ok {
			return m.fault(FaultPage, slot, false, "stack read failed during return")
		}
		refSawRead(m, idx, slot, 4, retAddr)
		for _, h := range m.tools.call {
			m.cycles += CyclesPerHook
			h.OnRet(m, idx, retAddr, slot)
		}
		if m.pendingViolation != nil {
			return m.violationStop() // SP still on the return slot
		}
		m.Regs[SP] = slot + 4
		if next, ok = m.IndexOfAddr(retAddr); !ok {
			return m.fault(FaultBadPC, retAddr, false, "return to address outside code segment")
		}

	case op == OpPush || op == OpPushI:
		val := imm
		if op == OpPush {
			val = m.Regs[in.Rd]
		}
		slot := m.Regs[SP] - 4
		if !refWrite(m, slot, 4, val) {
			return m.fault(FaultPage, slot, true, "stack push to unmapped memory")
		}
		m.Regs[SP] = slot
		refSawWrite(m, idx, slot, 4, val)
	case op == OpPop:
		slot := m.Regs[SP]
		val, ok := refRead(m, slot, 4)
		if !ok {
			return m.fault(FaultPage, slot, false, "stack pop from unmapped memory")
		}
		if refSawRead(m, idx, slot, 4, val); m.pendingViolation != nil {
			return m.violationStop() // neither Rd nor SP updated
		}
		m.Regs[in.Rd] = val
		m.Regs[SP] = slot + 4

	case op == OpSyscall:
		num := m.Regs[R0]
		for _, h := range m.tools.syscall {
			m.cycles += CyclesPerHook
			h.BeforeSyscall(m, idx, num)
		}
		if m.pendingViolation != nil {
			return m.violationStop()
		}
		if m.sys == nil {
			return m.fault(FaultBadSyscall, num, false, "no syscall handler installed")
		}
		res, f := m.sys.Syscall(m, num)
		if f != nil {
			// The handler's fault is the syscall instruction's.
			f.PC, f.PCAddr, f.Sym = idx, m.AddrOfIndex(idx), m.SymbolAt(idx)
			for _, h := range m.tools.fault {
				h.OnFault(m, f)
			}
			m.stopped = true
			return &StopInfo{Reason: StopFault, Fault: f}
		}
		if m.pendingViolation != nil {
			return m.violationStop()
		}
		if res == SysWaitInput {
			return &StopInfo{Reason: StopWaitInput} // PC stays: resuming retries
		}
		if res == SysHalt {
			m.stopped = true
			return &StopInfo{Reason: StopHalt}
		}
	case op == OpHalt:
		m.stopped = true
		return &StopInfo{Reason: StopHalt}
	default:
		return m.fault(FaultBadPC, m.AddrOfIndex(idx), false, fmt.Sprintf("illegal opcode %d", op))
	}

	// Every remaining hook dispatch (stores, pushes, calls) stops here, after
	// the instruction's effects and before the PC moves.
	if m.pendingViolation != nil {
		return m.violationStop()
	}
	m.PC = next
	return nil
}

// FusedEngine reports which of the two engines Run selects for the machine as
// instrumented now: the fused block loop (true) or the hook-calling engine.
func (m *Machine) FusedEngine() bool { return m.fastDispatch }
