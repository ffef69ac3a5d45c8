package vm

import (
	"encoding/binary"
	"fmt"
)

// tlbTryReadWord is ReadWord's TLB-hit path, kept under the inlining budget
// by reporting a miss (hit=false) instead of falling back itself; the caller
// pays the full ReadWord call only on the miss. Reading the TLB fresh at
// every access (rather than mirroring it in locals like runFused) keeps it
// valid no matter what an interleaved hook did to guest memory.
func tlbTryReadWord(mem *Memory, addr uint32) (val uint32, hit bool) {
	// PN match implies rtlb non-nil: an empty entry carries tlbMissPN.
	if addr>>PageShift == mem.rtlbPN && addr&(PageSize-1) <= PageSize-4 {
		return binary.LittleEndian.Uint32(mem.rtlb.data[addr&(PageSize-1):]), true
	}
	return 0, false
}

// tlbTryWriteWord is WriteWord's TLB-hit path narrowed to the steady-state
// case that dominates dispatch-loop traffic: the target word already lies
// inside the page's single dirty run (stack slots are rewritten constantly),
// so no run bookkeeping is needed at all. Everything else — TLB miss,
// page-spanning write, run extension, fragmented runs — reports false and is
// handled by the caller's full WriteWord fallback, which pays the markRun
// cost exactly as it did before this fast path existed.
func tlbTryWriteWord(mem *Memory, addr uint32, val uint32) bool {
	// PN match implies wtlb non-nil: an empty entry carries tlbMissPN.
	o := addr & (PageSize - 1)
	if addr>>PageShift != mem.wtlbPN || o > PageSize-4 {
		return false
	}
	p := mem.wtlb
	r := &p.runs[0]
	lo := uint16(o)
	if p.nruns != 1 || lo < r.lo || lo+4 > r.hi {
		return false
	}
	binary.LittleEndian.PutUint32(p.data[o:], val)
	return true
}

// The hook-calling engine.
//
// runFused (blocks.go) serves guests with no instruction or memory tool
// attached. runHooked is the other engine, and the complete one: it executes
// every opcode — syscalls, halts and illegal opcodes included — one
// architectural instruction at a time, and dispatches instr/mem/call/syscall
// hooks and probes inline. Run uses it for a whole slice when an instr or mem
// tool is attached, and for the single instruction at a time the fused loop
// cannot express; Step is this engine with a limit of one.
//
// It runs the PLAIN (unfused) micro-op encoding: hooks must observe every
// architectural instruction, and a fused pair would hide its second half
// from BeforeInstr and collapse the push/pop memory traffic mem hooks watch.
//
// Nothing is batched or mirrored in locals. Registers, flags, memory, PC, the
// virtual clock and the retired-instruction count are operated on in place, so
// every hook and probe sees them committed — BeforeInstr and probes before the
// instruction counts or is charged, mem/call/syscall hooks after — and may
// change any of them.
//
// An entry ends when a syscall retires: the handler runs the request boundary
// (checkpoint, antibody install) and may change tools and probes, and with
// them which engine Run must select and what this one calls before each
// instruction. That callee is the one thing hoisted (see below), so a tool or
// probe that a hook, rather than a syscall handler, attaches or removes takes
// effect from the next entry.
func (m *Machine) runHooked(limit uint64) (stop *StopInfo, executed uint64) {
	uops, code := m.uopsPlain, m.code
	// Length equality the prove pass uses to elide bounds checks: plain uops
	// mirror code one-to-one.
	if len(code) != len(uops) {
		panic("vm: micro-ops do not mirror the code array")
	}
	// What runs before each instruction is chosen once per entry: nothing, the
	// one instruction hook itself, or an adapter that fans out to every hook
	// and probe. One call site with its callee in a local is what keeps a
	// replay under a single tracker cheap: with the hook list walked in this
	// loop instead, the taint and slicing analyses ran 12-20% slower.
	var before InstrHook
	var beforeCyc uint64
	if m.instrDispatch {
		before = instrFanout{}
		if len(m.tools.instr) == 1 && m.probeCount == 0 {
			before, beforeCyc = m.tools.instr[0], CyclesPerHook
		}
	}
	for executed < limit {
		pc := m.PC
		if uint(pc) >= uint(len(uops)) {
			return m.badPCFault(), executed
		}
		u := uops[pc]
		op := Op(u & uopOpMask)
		if before != nil {
			m.cycles += beforeCyc
			before.BeforeInstr(m, pc, &code[pc])
			if m.pendingViolation != nil {
				// Raised before execution: the instruction neither runs nor
				// counts.
				return m.violationStop(), executed
			}
		}
		executed++
		m.instrCount++
		m.cycles += uint64(opCycles[op])
		nextPC := pc + 1

		switch op {
		case OpNop:

		case OpMovI:
			m.Regs[uint8(u>>uopRdShift)] = uint32(u >> 32)
		case OpMov:
			m.Regs[uint8(u>>uopRdShift)] = m.Regs[uint8(u>>uopRsShift)]
		case OpLea:
			m.Regs[uint8(u>>uopRdShift)] = m.Regs[uint8(u>>uopRsShift)] + uint32(u>>32)

		case OpLoadB, OpLoadW:
			addr := m.Regs[uint8(u>>uopRsShift)] + uint32(u>>32)
			size := 4
			var val uint32
			if op == OpLoadW {
				v, hit := tlbTryReadWord(m.Mem, addr)
				if !hit {
					var ok bool
					if v, ok = m.Mem.ReadWord(addr); !ok {
						return m.fault(FaultPage, addr, false, "read from unmapped memory"), executed
					}
				}
				val = v
			} else {
				b, ok := m.Mem.ReadU8(addr)
				if !ok {
					return m.fault(FaultPage, addr, false, "read from unmapped memory"), executed
				}
				val, size = uint32(b), 1
			}
			if m.memDispatch {
				m.dispatchMemRead(pc, addr, size, val)
				if m.pendingViolation != nil {
					// The destination register is not written.
					return m.violationStop(), executed
				}
			}
			m.Regs[uint8(u>>uopRdShift)] = val

		case OpStoreB, OpStoreW:
			addr := m.Regs[uint8(u>>uopRdShift)] + uint32(u>>32)
			val := m.Regs[uint8(u>>uopRsShift)]
			size := 4
			if op == OpStoreW {
				if !tlbTryWriteWord(m.Mem, addr, val) && !m.Mem.WriteWord(addr, val) {
					return m.fault(FaultPage, addr, true, "write to unmapped memory"), executed
				}
			} else {
				if !m.Mem.WriteU8(addr, byte(val)) {
					return m.fault(FaultPage, addr, true, "write to unmapped memory"), executed
				}
				size = 1
			}
			if m.memDispatch {
				m.dispatchMemWrite(pc, addr, size, val)
				if m.pendingViolation != nil {
					return m.violationStop(), executed
				}
			}

		case OpAdd:
			m.Regs[uint8(u>>uopRdShift)] += m.Regs[uint8(u>>uopRsShift)]
		case OpSub:
			m.Regs[uint8(u>>uopRdShift)] -= m.Regs[uint8(u>>uopRsShift)]
		case OpMul:
			m.Regs[uint8(u>>uopRdShift)] *= m.Regs[uint8(u>>uopRsShift)]
		case OpDiv:
			if m.Regs[uint8(u>>uopRsShift)] == 0 {
				return m.fault(FaultDivZero, 0, false, "division by zero"), executed
			}
			m.Regs[uint8(u>>uopRdShift)] /= m.Regs[uint8(u>>uopRsShift)]
		case OpMod:
			if m.Regs[uint8(u>>uopRsShift)] == 0 {
				return m.fault(FaultDivZero, 0, false, "modulo by zero"), executed
			}
			m.Regs[uint8(u>>uopRdShift)] %= m.Regs[uint8(u>>uopRsShift)]
		case OpAnd:
			m.Regs[uint8(u>>uopRdShift)] &= m.Regs[uint8(u>>uopRsShift)]
		case OpOr:
			m.Regs[uint8(u>>uopRdShift)] |= m.Regs[uint8(u>>uopRsShift)]
		case OpXor:
			m.Regs[uint8(u>>uopRdShift)] ^= m.Regs[uint8(u>>uopRsShift)]
		case OpShl:
			m.Regs[uint8(u>>uopRdShift)] <<= m.Regs[uint8(u>>uopRsShift)] & 31
		case OpShr:
			m.Regs[uint8(u>>uopRdShift)] >>= m.Regs[uint8(u>>uopRsShift)] & 31

		case OpAddI:
			m.Regs[uint8(u>>uopRdShift)] += uint32(u >> 32)
		case OpSubI:
			m.Regs[uint8(u>>uopRdShift)] -= uint32(u >> 32)
		case OpMulI:
			m.Regs[uint8(u>>uopRdShift)] *= uint32(u >> 32)
		case OpDivI:
			if uint32(u>>32) == 0 {
				return m.fault(FaultDivZero, 0, false, "division by zero immediate"), executed
			}
			m.Regs[uint8(u>>uopRdShift)] /= uint32(u >> 32)
		case OpModI:
			if uint32(u>>32) == 0 {
				return m.fault(FaultDivZero, 0, false, "modulo by zero immediate"), executed
			}
			m.Regs[uint8(u>>uopRdShift)] %= uint32(u >> 32)
		case OpAndI:
			m.Regs[uint8(u>>uopRdShift)] &= uint32(u >> 32)
		case OpOrI:
			m.Regs[uint8(u>>uopRdShift)] |= uint32(u >> 32)
		case OpXorI:
			m.Regs[uint8(u>>uopRdShift)] ^= uint32(u >> 32)
		case OpShlI:
			m.Regs[uint8(u>>uopRdShift)] <<= uint32(u>>32) & 31
		case OpShrI:
			m.Regs[uint8(u>>uopRdShift)] >>= uint32(u>>32) & 31

		case OpCmp:
			m.Flags = cmp32(int32(m.Regs[uint8(u>>uopRdShift)]), int32(m.Regs[uint8(u>>uopRsShift)]))
		case OpCmpI:
			m.Flags = cmp32(int32(m.Regs[uint8(u>>uopRdShift)]), int32(uint32(u>>32)))

		case OpJmp:
			nextPC = int(int32(uint32(u >> 32)))
		case OpJz:
			if m.Flags == 0 {
				nextPC = int(int32(uint32(u >> 32)))
			}
		case OpJnz:
			if m.Flags != 0 {
				nextPC = int(int32(uint32(u >> 32)))
			}
		case OpJlt:
			if m.Flags < 0 {
				nextPC = int(int32(uint32(u >> 32)))
			}
		case OpJle:
			if m.Flags <= 0 {
				nextPC = int(int32(uint32(u >> 32)))
			}
		case OpJgt:
			if m.Flags > 0 {
				nextPC = int(int32(uint32(u >> 32)))
			}
		case OpJge:
			if m.Flags >= 0 {
				nextPC = int(int32(uint32(u >> 32)))
			}

		case OpJmpReg:
			target := m.Regs[uint8(u>>uopRdShift)]
			tIdx, ok := m.IndexOfAddr(target)
			if !ok {
				return m.fault(FaultBadPC, target, false, "indirect jump outside code segment"), executed
			}
			nextPC = tIdx

		case OpCall, OpCallReg:
			targetIdx := int(int32(uint32(u >> 32)))
			if op == OpCallReg {
				target := m.Regs[uint8(u>>uopRdShift)]
				tIdx, ok := m.IndexOfAddr(target)
				if !ok {
					return m.fault(FaultBadPC, target, false, "indirect call outside code segment"), executed
				}
				targetIdx = tIdx
			}
			retAddr := m.AddrOfIndex(pc + 1)
			sp := m.Regs[SP] - 4
			if !tlbTryWriteWord(m.Mem, sp, retAddr) && !m.Mem.WriteWord(sp, retAddr) {
				return m.fault(FaultPage, sp, true, "stack push failed during call"), executed
			}
			m.Regs[SP] = sp
			if m.memDispatch || m.callDispatch {
				m.dispatchMemWrite(pc, sp, 4, retAddr)
				for _, h := range m.tools.call {
					m.cycles += CyclesPerHook
					h.OnCall(m, pc, targetIdx, retAddr, sp)
				}
				if m.pendingViolation != nil {
					return m.violationStop(), executed
				}
			}
			nextPC = targetIdx

		case OpRet:
			retSlot := m.Regs[SP]
			retAddr, hit := tlbTryReadWord(m.Mem, retSlot)
			if !hit {
				var ok bool
				if retAddr, ok = m.Mem.ReadWord(retSlot); !ok {
					return m.fault(FaultPage, retSlot, false, "stack read failed during return"), executed
				}
			}
			if m.memDispatch || m.callDispatch {
				m.dispatchMemRead(pc, retSlot, 4, retAddr)
				for _, h := range m.tools.call {
					m.cycles += CyclesPerHook
					h.OnRet(m, pc, retAddr, retSlot)
				}
				if m.pendingViolation != nil {
					// SP is not yet bumped past the return slot.
					return m.violationStop(), executed
				}
			}
			m.Regs[SP] = retSlot + 4
			tIdx, ok := m.IndexOfAddr(retAddr)
			if !ok {
				// A hijacked return address that does not land in mapped code:
				// exactly what address-space randomisation turns attacks into.
				return m.fault(FaultBadPC, retAddr, false, "return to address outside code segment"), executed
			}
			nextPC = tIdx

		case OpPush, OpPushI:
			val := m.Regs[uint8(u>>uopRdShift)]
			if op == OpPushI {
				val = uint32(u >> 32)
			}
			sp := m.Regs[SP] - 4
			if !tlbTryWriteWord(m.Mem, sp, val) && !m.Mem.WriteWord(sp, val) {
				return m.fault(FaultPage, sp, true, "stack push to unmapped memory"), executed
			}
			m.Regs[SP] = sp
			if m.memDispatch {
				m.dispatchMemWrite(pc, sp, 4, val)
				if m.pendingViolation != nil {
					return m.violationStop(), executed
				}
			}

		case OpPop:
			slot := m.Regs[SP]
			val, hit := tlbTryReadWord(m.Mem, slot)
			if !hit {
				var ok bool
				if val, ok = m.Mem.ReadWord(slot); !ok {
					return m.fault(FaultPage, slot, false, "stack pop from unmapped memory"), executed
				}
			}
			if m.memDispatch {
				m.dispatchMemRead(pc, slot, 4, val)
				if m.pendingViolation != nil {
					// Rd and SP are not yet updated.
					return m.violationStop(), executed
				}
			}
			m.Regs[uint8(u>>uopRdShift)] = val
			m.Regs[SP] = slot + 4

		case OpSyscall:
			num := m.Regs[R0]
			for _, h := range m.tools.syscall {
				m.cycles += CyclesPerHook
				h.BeforeSyscall(m, pc, num)
			}
			if m.pendingViolation != nil {
				return m.violationStop(), executed
			}
			if m.sys == nil {
				return m.fault(FaultBadSyscall, num, false, "no syscall handler installed"), executed
			}
			res, f := m.sys.Syscall(m, num)
			if f != nil {
				f.PC = pc
				f.PCAddr = m.AddrOfIndex(pc)
				f.Sym = m.SymbolAt(pc)
				for _, h := range m.tools.fault {
					h.OnFault(m, f)
				}
				m.stopped = true
				return &StopInfo{Reason: StopFault, Fault: f}, executed
			}
			if m.pendingViolation != nil {
				return m.violationStop(), executed
			}
			switch res {
			case SysWaitInput:
				// Leave PC on the syscall so that resuming retries it.
				return &StopInfo{Reason: StopWaitInput}, executed
			case SysHalt:
				m.stopped = true
				return &StopInfo{Reason: StopHalt}, executed
			}
			m.PC = nextPC
			return nil, executed

		case OpHalt:
			m.stopped = true
			return &StopInfo{Reason: StopHalt}, executed

		default:
			return m.fault(FaultBadPC, m.AddrOfIndex(pc), false, fmt.Sprintf("illegal opcode %d", op)), executed
		}
		// No trailing pendingViolation check: every path that can raise one
		// (the hook dispatches above) already returned.
		m.PC = nextPC
	}
	return nil, executed
}

// instrFanout is the InstrHook runHooked calls when there is more than one
// thing to call before an instruction: every instruction hook, then the
// instruction's probes, each charged as it is called.
type instrFanout struct{}

func (instrFanout) BeforeInstr(m *Machine, idx int, in *Instr) {
	for _, h := range m.tools.instr {
		m.cycles += CyclesPerHook
		h.BeforeInstr(m, idx, in)
	}
	m.fireProbes(idx)
}
