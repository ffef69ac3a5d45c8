package vm

import "encoding/binary"

// Decoded basic-block dispatch.
//
// Executing one instruction at a time pays a fixed per-instruction tax —
// dispatch-flag checks, budget bookkeeping, and two read-modify-write clock
// updates — that dominates the cost of executing the small ops making up most
// guest code. The block dispatcher removes that tax for untooled guests:
// Program.Code is scanned once into straight-line runs terminated by branches,
// calls, returns, syscalls and halts, and Machine.Run executes a whole run in
// a fused loop that charges virtual cycles and the retired-instruction count
// once per run from precomputed prefix sums. The scan also re-encodes each
// instruction into a packed 8-byte micro-op, so the fused loop fetches one
// machine word per instruction instead of a 24-byte Instr with its symbol
// pointer.
//
// Blocks are a pure function of the opcode stream plus relocated immediates.
// Relocation patches only Instr.Imm, never Op, so the runLen/cyc structure of
// one blockInfo — built lazily and cached on the Program — is shared by every
// Machine loaded from the same image; the packed micro-ops bake in the
// relocated immediates and are therefore per-Machine (built once at load).
// There is no invalidation: code is immutable once loaded.
//
// Attached instr/mem tools disable the fused loop wholesale (fastDispatch).
// Registered probes do not: a block body is clamped to end just before the
// next probed index (probeGap), and the loop delivers that index's probes
// itself before executing it as the first instruction of the next body. What
// the loop cannot express goes, one instruction at a time, through the
// hook-calling engine (runHooked, blocks_tooled.go): syscalls, halts, illegal
// opcodes, call/ret under call hooks, and the first half of a fused pair that
// a probe or the budget splits. Faults and budget exhaustion inside a run
// flush partial accounting so that every observable quantity — Cycles(),
// InstrCount(), PC, StopInfo, probe firing order — is bit-identical to that
// engine's, and to the tests' reference interpreter's, at every stop point.

// blockInfo is the per-Program decoded block map.
//
// runLen[i] is the number of consecutive fusible instructions starting at i
// (zero if code[i] itself is a terminator or otherwise non-fusible): the
// straight-line body the fused loop may execute before it must look at
// code[i+runLen[i]] as a terminator.
//
// cyc holds prefix sums of the static cycle cost of fusible instructions:
// cyc[i+1]-cyc[i] is the cost of instruction i (zero for non-fusible ones),
// so the cost of a body [base, end) is cyc[end]-cyc[base] — one subtraction
// per block instead of one clock update per instruction.
type blockInfo struct {
	runLen []int32
	cyc    []uint64
}

// Packed micro-op layout: op in bits 0-7, Rd in 8-15, Rs in 16-23, the
// (relocated) immediate in bits 32-63.
const (
	uopOpMask  = 0xff
	uopRdShift = 8
	uopRsShift = 16
)

func packUop(in Instr) uint64 {
	return uint64(in.Op) |
		uint64(in.Rd)<<uopRdShift |
		uint64(in.Rs)<<uopRsShift |
		uint64(uint32(in.Imm))<<32
}

// Macro-op fusion: the dispatch cost of the fused body loop is one indirect
// jump per micro-op, so frequently adjacent instruction pairs are re-encoded
// as a single synthetic micro-op executing both halves under one dispatch.
// The pattern table below is the set of highest-static-frequency fusible
// pairs across the four app images plus the push/pop stack-move idiom (whose
// fusion also forwards the pushed value, eliminating the stack re-read).
//
// A fused micro-op replaces only the opcode byte of the FIRST slot; its own
// operand fields and the entire second slot keep their original encoding, and
// the executor reads the second half's operands from uops[pc+1]. That keeps
// every instruction index a valid entry point: a jump landing on the second
// half executes the untouched original micro-op, and a budget or probe clamp
// that splits a pair (end == pc+1) makes the executor retire only the first
// half. Synthetic opcodes live only in Machine.uops — Program.Code, the
// hook-calling engine and the block map never see them.
// The synthetic opcodes sit directly after the real ones so the dispatch
// switch still compiles to one compact jump table. Where the first half
// leaves operand fields unused, fusion bakes the second half's destination
// register into them (push/pop and addi/push use the free Rs byte, mov/pop
// the unused immediate), so executing the pair never re-reads uops[pc+1].
const (
	fusePushPop    Op = numOps + iota // push rA ; pop rB   (rB in Rs byte; value forwarded)
	fuseAddIPush                      // addi ; push rB     (rB in Rs byte)
	fuseMovPop                        // mov ; pop rB       (rB in imm bits 32-39)
	fuseAddIAddI                      // addi ; addi        (second half from uops[pc+1])
	fuseLoadBCmpI                     // loadb ; cmpi       (second half from uops[pc+1])
	fuseStoreBAddI                    // storeb ; addi      (second half from uops[pc+1])
)

// fusePair returns the synthetic opcode and selection weight for an adjacent
// opcode pair, or weight 0 if the pair is not in the fusion table. push+pop
// weighs more because fusing it also removes a guest memory read.
func fusePair(a, b Op) (Op, int32) {
	switch {
	case a == OpPush && b == OpPop:
		return fusePushPop, 3
	case a == OpAddI && b == OpAddI:
		return fuseAddIAddI, 2
	case a == OpLoadB && b == OpCmpI:
		return fuseLoadBCmpI, 2
	case a == OpMov && b == OpPop:
		return fuseMovPop, 2
	case a == OpStoreB && b == OpAddI:
		return fuseStoreBAddI, 2
	case a == OpAddI && b == OpPush:
		return fuseAddIPush, 2
	}
	return 0, 0
}

// packUops encodes relocated code into packed micro-ops, plain and with
// macro-op fusion applied (the same slice when nothing fuses). Candidate pairs
// must lie inside one straight-line run (runLen[i] >= 2 guarantees i and i+1
// are both fusible body ops); among overlapping candidates, a maximum-weight
// matching is picked by the classic linear DP over each run, so e.g.
// addi;push;pop fuses as addi + [push;pop] (weight 3) rather than
// [addi;push] + pop (weight 2).
func packUops(code []Instr, runLen []int32) (uops, plain []uint64) {
	n := len(code)
	plain = make([]uint64, n)
	for i, in := range code {
		plain[i] = packUop(in)
	}
	pairOp := make([]Op, n)
	weight := make([]int32, n)
	any := false
	for i := 0; i+1 < n; i++ {
		if runLen[i] < 2 {
			continue
		}
		if f, w := fusePair(code[i].Op, code[i+1].Op); w > 0 {
			pairOp[i], weight[i] = f, w
			any = true
		}
	}
	if !any {
		return plain, plain
	}
	uops = append([]uint64(nil), plain...)
	// best[i] = max total weight over the suffix starting at i; take[i]
	// records whether fusing (i, i+1) is part of that optimum.
	best := make([]int32, n+2)
	take := make([]bool, n)
	for i := n - 1; i >= 0; i-- {
		best[i] = best[i+1]
		if weight[i] > 0 && weight[i]+best[i+2] > best[i] {
			best[i] = weight[i] + best[i+2]
			take[i] = true
		}
	}
	for i := 0; i < n; {
		if !take[i] {
			i++
			continue
		}
		u := uops[i]&^uint64(uopOpMask) | uint64(pairOp[i])
		switch pairOp[i] {
		case fusePushPop, fuseAddIPush:
			u = u&^(uint64(0xff)<<uopRsShift) | uint64(code[i+1].Rd)<<uopRsShift
		case fuseMovPop:
			u = u&(1<<32-1) | uint64(code[i+1].Rd)<<32
		}
		uops[i] = u
		i += 2
	}
	return uops, plain
}

// invalidPN is the page-number sentinel for an empty local TLB mirror. Guest
// addresses are 32-bit, so no real page number reaches it.
const invalidPN = ^uint32(0)

// fusedCost returns the static virtual-cycle cost of op if the fused body
// loop can execute it, and ok=false for terminators and non-fusible ops
// (control flow, syscall, halt, illegal opcodes).
func fusedCost(op Op) (uint64, bool) {
	switch op {
	case OpNop, OpMovI, OpMov, OpLea,
		OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpAddI, OpSubI, OpMulI, OpDivI, OpModI, OpAndI, OpOrI, OpXorI, OpShlI, OpShrI,
		OpCmp, OpCmpI,
		OpLoadB, OpLoadW, OpStoreB, OpStoreW, OpPush, OpPushI, OpPop:
		return uint64(opCycles[op]), true
	}
	return 0, false
}

// buildBlocks decodes the opcode stream into a blockInfo. Every instruction
// index is a legal block entry (indirect jumps can land anywhere), so runLen
// is computed for all of them: a single right-to-left pass, since a run
// starting at i is one instruction longer than the run starting at i+1.
func buildBlocks(code []Instr) *blockInfo {
	n := len(code)
	bi := &blockInfo{
		runLen: make([]int32, n),
		cyc:    make([]uint64, n+1),
	}
	for i := n - 1; i >= 0; i-- {
		if _, ok := fusedCost(code[i].Op); ok {
			run := int32(1)
			if i+1 < n {
				run += bi.runLen[i+1]
			}
			bi.runLen[i] = run
		}
	}
	for i := 0; i < n; i++ {
		cost, _ := fusedCost(code[i].Op)
		bi.cyc[i+1] = bi.cyc[i] + cost
	}
	return bi
}

// blockMap returns the program's decoded block map, building it on first
// use. Safe for concurrent callers: a lost CompareAndSwap race just rebuilds
// an identical map and discards it.
func (p *Program) blockMap() *blockInfo {
	if b := p.blocks.Load(); b != nil {
		return b
	}
	p.blocks.CompareAndSwap(nil, buildBlocks(p.Code))
	return p.blocks.Load()
}

// rebuildProbeGap recomputes probeGap: probeGap[i] is the number of
// consecutive probe-free instructions starting at i, zero at a probed index
// and at the one-past-the-end sentinel. The fused loop clamps a block body to
// it, so registering a VSEF probe keeps block dispatch for every unprobed
// stretch — probes stay "lightweight" even on the fast path.
func (m *Machine) rebuildProbeGap() {
	n := len(m.code)
	if m.probeGap == nil {
		m.probeGap = make([]int32, n+1)
	}
	for i := n - 1; i >= 0; i-- {
		if len(m.probes[i]) > 0 {
			m.probeGap[i] = 0
		} else {
			m.probeGap[i] = m.probeGap[i+1] + 1
		}
	}
}

// fireProbes delivers instruction idx's probes in registration order, each
// charged CyclesPerProbe, and reports whether one raised a violation.
func (m *Machine) fireProbes(idx int) bool {
	for _, p := range m.probes[idx] {
		m.cycles += CyclesPerProbe
		p.OnProbe(m, idx, &m.code[idx])
	}
	return m.pendingViolation != nil
}

// commitFused flushes a fused run's batched accounting back to the machine:
// pc becomes the architectural PC, and the retired-instruction and cycle
// deltas accumulated since runFused was entered are charged.
func (m *Machine) commitFused(pc int, done, cyc uint64) {
	m.PC = pc
	m.instrCount += done
	m.cycles += cyc
}

// tlbLocals loads the memory's one-entry TLBs into register-resident local
// mirrors for the fused loop: an empty entry becomes the invalidPN sentinel,
// so a hit test is a single page-number comparison with no nil check.
func tlbLocals(mem *Memory) (rp *page, rpn uint32, wp *page, wpn uint32) {
	rp, wp = mem.rtlb, mem.wtlb
	rpn, wpn = invalidPN, invalidPN
	if rp != nil {
		rpn = mem.rtlbPN
	}
	if wp != nil {
		wpn = mem.wtlbPN
	}
	return
}

// runFused is the engine Machine.Run selects when no instr or mem tool is
// attached. It executes decoded basic blocks, delivering probes at probed
// indexes, until it retires limit instructions, the guest stops, or it reaches
// an instruction only runHooked can execute (syscall, halt, illegal opcode,
// call/ret with call hooks attached, a split fused pair); in the last case it
// returns a nil stop and Run gives runHooked that one instruction, probes
// included. executed reports how many instructions were retired, for Run's
// budget bookkeeping.
//
// The loop mirrors runHooked's observable semantics exactly (where its
// comments say Step, read: runHooked with a limit of one): the same cycle
// constants, the same fault kinds/addresses/details, instruction counting
// that includes the faulting instruction, and the PC left on the faulting
// instruction for fault attribution. Registers, flags and the TLB mirrors
// live in locals; every exit path flushes them before touching m.
func (m *Machine) runFused(limit uint64) (stop *StopInfo, executed uint64) {
	// done and cyc batch the call's accounting across passes. A pass ends
	// where it delivers probes and names the index in m.probesFiredAt for the
	// next (a field, not a local, to stay out of the block loop's registers).
	var done, cyc uint64
	m.probesFiredAt = -1
pass:
	var (
		uops  = m.uops
		mem   = m.Mem
		pc    = m.PC
		regs  = m.Regs
		flags = m.Flags
	)
	runLen, cycp := m.blocks.runLen, m.blocks.cyc
	// Length equalities the prove pass uses to elide bounds checks in the
	// block loop: runLen and uops mirror code, cyc has one extra slot.
	if len(runLen) != len(uops) || len(cycp) != len(uops)+1 {
		return nil, 0 // unreachable: both are sized from the code array
	}
	// Probes and tools can only change between passes (hooks and syscalls run
	// under Step, probes between passes), so the probe state is loop-invariant
	// here. The gap table is rebuilt lazily: probe mutations just mark it dirty,
	// so installing or removing a whole antibody's probe set costs one
	// O(code) rebuild on next entry instead of one per mutation.
	var probeGap []int32
	if m.probeCount > 0 {
		if m.probeGapDirty {
			m.rebuildProbeGap()
			m.probeGapDirty = false
		}
		probeGap = m.probeGap
	}
	rp, rpn, wp, wpn := tlbLocals(mem)

	for {
		if pc < 0 || pc >= len(uops) {
			m.Regs, m.Flags = regs, flags
			m.commitFused(pc, done, cyc)
			return m.badPCFault(), done
		}
		body := int(runLen[pc])
		fuseTerm := true
		if probeGap != nil {
			g := int(probeGap[pc])
			if g == 0 {
				// pc is probed: its body is clamped at the next probed index.
				g = 1 + int(probeGap[pc+1])
				if pc != m.probesFiredAt {
					// Deliver pc's probes, but only if the loop then executes
					// pc: Step fires probes itself, so what is left to it (no
					// budget, a fused pair's first half split off by the next
					// probe or the budget, a terminator only Step can run) is
					// left whole. Probes see committed state as under Step; the
					// commit is then taken back so batching resumes, and a new
					// pass reloads what a probe may touch: registers, TLBs, probes.
					t, rem := Op(uops[pc]&uopOpMask), limit-done
					m.Regs, m.Flags = regs, flags
					m.commitFused(pc, done, cyc)
					if rem == 0 || t >= numOps && (g == 1 || rem == 1) ||
						body == 0 && (t > OpRet || t >= OpCall && m.callDispatch) {
						return nil, done
					}
					if m.fireProbes(pc) {
						return m.violationStop(), done
					}
					m.instrCount -= done
					m.cycles -= cyc
					m.PC, m.probesFiredAt = pc, pc // as under Step, a probe cannot move the PC
					goto pass
				}
				m.probesFiredAt = -1
			}
			if g <= body {
				body = g
				fuseTerm = false
			}
		}
		if rem := limit - done; rem <= uint64(body) {
			body = int(rem)
			fuseTerm = false
		}
		// A probe or budget clamp may land between the halves of a fused
		// pair. Rather than split the pair in the body loop, shorten the body
		// by one and let Run's Step fallback execute the pair's first half
		// from the original (unfused) code — the fused cases below can then
		// assume every pair they dispatch is whole. Observables are
		// unchanged: the stop still lands on exactly the same instruction. A
		// single decrement suffices, because the instruction before a pair's
		// first half is never itself a pair's first half.
		if !fuseTerm && body > 0 && Op(uops[pc+body-1]&uopOpMask) >= numOps {
			body--
		}
		base := pc
		end := pc + body
		if end > len(uops) {
			end = len(uops) // unreachable (runLen never runs past the end); helps prove
		}
		// Tight self-loop: an unclamped block whose terminator jumps back to
		// its own base (spin waits, copy loops, counting loops) iterates via
		// the backward goto below without re-running this prologue. fuseTerm
		// guarantees the block from base+1 on — terminator included — is
		// probe-free and that at least one full iteration fits the budget; a
		// probed base must come back through the prologue every iteration.
		selfLoop := false
		var stride, blockCyc, loopMax uint64
		if fuseTerm && end < len(uops) {
			if tu := uops[end]; Op(tu&uopOpMask) == OpJmp && int(int32(uint32(tu>>32))) == base &&
				(probeGap == nil || probeGap[base] != 0) {
				selfLoop = true
				stride = uint64(body) + 1
				blockCyc = cycp[end] - cycp[base] + cyclesBranch
				// Iterate again while done <= loopMax, i.e. while a whole
				// further iteration still fits the budget. fuseTerm implies
				// limit-done >= stride, so the subtraction cannot wrap.
				loopMax = limit - stride
			}
		}

	iterate:
		for pc < end {
			u := uops[pc]
			op := Op(u & uopOpMask)
			// Dispatch specialization: an indirect jump through the switch
			// table is expensive on virtualized hosts (IBRS-era indirect
			// branch costs), so the hottest micro-ops resolve through
			// predictable direct compares first — the single most frequent
			// ALU op across the app images, then (one range test) every
			// synthetic fused pair, which is hot by construction since
			// fusion targets the most frequent pairs. Everything else takes
			// the jump table below.
			if op == OpAddI {
				regs[uint8(u>>uopRdShift)] += uint32(u >> 32)
				pc++
				continue
			}
			if op >= numOps {
				switch op {
				// Fused pairs. Each executes its first half exactly like the plain
				// case above, then — only if the pair is not split by a budget or
				// probe clamp (pc+1 < end) — the second half, whose operands come
				// from the untouched uops[pc+1]; the extra pc++ here plus the
				// shared one below advances past both halves. Second-half faults
				// report index pc+1 and charge both instructions, exactly as two
				// plain dispatches would.
				case fusePushPop:
					val := regs[uint8(u>>uopRdShift)]
					sp := regs[SP] - 4
					if sp>>PageShift == wpn && sp&(PageSize-1) <= PageSize-4 {
						off := sp & (PageSize - 1)
						wp.markRun(uint16(off), uint16(off)+4)
						binary.LittleEndian.PutUint32(wp.data[off:], val)
					} else if mem.WriteWord(sp, val) {
						rp, rpn, wp, wpn = tlbLocals(mem)
					} else {
						m.Regs, m.Flags = regs, flags
						done += uint64(pc-base) + 1
						m.commitFused(pc, done, cyc+cycp[pc+1]-cycp[base])
						return m.fault(FaultPage, sp, true, "stack push to unmapped memory"), done
					}
					// The pop re-reads the slot the push just wrote: forward
					// the value and restore SP (write-then-read of a mapped page
					// cannot fault). Assigning SP last matches Step's store
					// order when the pop target is SP itself.
					regs[uint8(u>>uopRsShift)] = val
					regs[SP] = sp + 4
					pc++

				case fuseAddIAddI:
					regs[uint8(u>>uopRdShift)] += uint32(u >> 32)
					u2 := uops[pc+1]
					regs[uint8(u2>>uopRdShift)] += uint32(u2 >> 32)
					pc++

				case fuseLoadBCmpI:
					addr := regs[uint8(u>>uopRsShift)] + uint32(u>>32)
					if addr>>PageShift == rpn {
						regs[uint8(u>>uopRdShift)] = uint32(rp.data[addr&(PageSize-1)])
					} else if b, ok := mem.ReadU8(addr); ok {
						regs[uint8(u>>uopRdShift)] = uint32(b)
						rp, rpn, wp, wpn = tlbLocals(mem)
					} else {
						m.Regs, m.Flags = regs, flags
						done += uint64(pc-base) + 1
						m.commitFused(pc, done, cyc+cycp[pc+1]-cycp[base])
						return m.fault(FaultPage, addr, false, "read from unmapped memory"), done
					}
					u2 := uops[pc+1]
					flags = cmp32(int32(regs[uint8(u2>>uopRdShift)]), int32(uint32(u2>>32)))
					pc++

				case fuseMovPop:
					regs[uint8(u>>uopRdShift)] = regs[uint8(u>>uopRsShift)]
					{
						slot := regs[SP]
						if slot>>PageShift == rpn && slot&(PageSize-1) <= PageSize-4 {
							regs[uint8(u>>32)] = binary.LittleEndian.Uint32(rp.data[slot&(PageSize-1):])
						} else if v, ok := mem.ReadWord(slot); ok {
							regs[uint8(u>>32)] = v
							rp, rpn, wp, wpn = tlbLocals(mem)
						} else {
							m.Regs, m.Flags = regs, flags
							done += uint64(pc-base) + 2
							m.commitFused(pc+1, done, cyc+cycp[pc+2]-cycp[base])
							return m.fault(FaultPage, slot, false, "stack pop from unmapped memory"), done
						}
						regs[SP] = slot + 4
						pc++
					}

				case fuseStoreBAddI:
					addr := regs[uint8(u>>uopRdShift)] + uint32(u>>32)
					val := regs[uint8(u>>uopRsShift)]
					if addr>>PageShift == wpn {
						off := addr & (PageSize - 1)
						wp.markRun(uint16(off), uint16(off)+1)
						wp.data[off] = byte(val)
					} else if mem.WriteU8(addr, byte(val)) {
						rp, rpn, wp, wpn = tlbLocals(mem)
					} else {
						m.Regs, m.Flags = regs, flags
						done += uint64(pc-base) + 1
						m.commitFused(pc, done, cyc+cycp[pc+1]-cycp[base])
						return m.fault(FaultPage, addr, true, "write to unmapped memory"), done
					}
					u2 := uops[pc+1]
					regs[uint8(u2>>uopRdShift)] += uint32(u2 >> 32)
					pc++

				case fuseAddIPush:
					regs[uint8(u>>uopRdShift)] += uint32(u >> 32)
					{
						val := regs[uint8(u>>uopRsShift)]
						sp := regs[SP] - 4
						if sp>>PageShift == wpn && sp&(PageSize-1) <= PageSize-4 {
							off := sp & (PageSize - 1)
							wp.markRun(uint16(off), uint16(off)+4)
							binary.LittleEndian.PutUint32(wp.data[off:], val)
						} else if mem.WriteWord(sp, val) {
							rp, rpn, wp, wpn = tlbLocals(mem)
						} else {
							m.Regs, m.Flags = regs, flags
							done += uint64(pc-base) + 2
							m.commitFused(pc+1, done, cyc+cycp[pc+2]-cycp[base])
							return m.fault(FaultPage, sp, true, "stack push to unmapped memory"), done
						}
						regs[SP] = sp
						pc++
					}
				}
				pc++
				continue
			}
			switch op {
			case OpNop:
			case OpMovI:
				regs[uint8(u>>uopRdShift)] = uint32(u >> 32)
			case OpMov:
				regs[uint8(u>>uopRdShift)] = regs[uint8(u>>uopRsShift)]
			case OpLea:
				regs[uint8(u>>uopRdShift)] = regs[uint8(u>>uopRsShift)] + uint32(u>>32)

			case OpLoadB:
				addr := regs[uint8(u>>uopRsShift)] + uint32(u>>32)
				if addr>>PageShift == rpn {
					regs[uint8(u>>uopRdShift)] = uint32(rp.data[addr&(PageSize-1)])
				} else if b, ok := mem.ReadU8(addr); ok {
					regs[uint8(u>>uopRdShift)] = uint32(b)
					rp, rpn, wp, wpn = tlbLocals(mem)
				} else {
					m.Regs, m.Flags = regs, flags
					done += uint64(pc-base) + 1
					m.commitFused(pc, done, cyc+cycp[pc+1]-cycp[base])
					return m.fault(FaultPage, addr, false, "read from unmapped memory"), done
				}
			case OpLoadW:
				addr := regs[uint8(u>>uopRsShift)] + uint32(u>>32)
				if addr>>PageShift == rpn && addr&(PageSize-1) <= PageSize-4 {
					regs[uint8(u>>uopRdShift)] = binary.LittleEndian.Uint32(rp.data[addr&(PageSize-1):])
				} else if v, ok := mem.ReadWord(addr); ok {
					regs[uint8(u>>uopRdShift)] = v
					rp, rpn, wp, wpn = tlbLocals(mem)
				} else {
					m.Regs, m.Flags = regs, flags
					done += uint64(pc-base) + 1
					m.commitFused(pc, done, cyc+cycp[pc+1]-cycp[base])
					return m.fault(FaultPage, addr, false, "read from unmapped memory"), done
				}

			case OpStoreB:
				addr := regs[uint8(u>>uopRdShift)] + uint32(u>>32)
				val := regs[uint8(u>>uopRsShift)]
				if addr>>PageShift == wpn {
					off := addr & (PageSize - 1)
					wp.markRun(uint16(off), uint16(off)+1)
					wp.data[off] = byte(val)
				} else if mem.WriteU8(addr, byte(val)) {
					rp, rpn, wp, wpn = tlbLocals(mem)
				} else {
					m.Regs, m.Flags = regs, flags
					done += uint64(pc-base) + 1
					m.commitFused(pc, done, cyc+cycp[pc+1]-cycp[base])
					return m.fault(FaultPage, addr, true, "write to unmapped memory"), done
				}
			case OpStoreW:
				addr := regs[uint8(u>>uopRdShift)] + uint32(u>>32)
				val := regs[uint8(u>>uopRsShift)]
				if addr>>PageShift == wpn && addr&(PageSize-1) <= PageSize-4 {
					off := addr & (PageSize - 1)
					wp.markRun(uint16(off), uint16(off)+4)
					binary.LittleEndian.PutUint32(wp.data[off:], val)
				} else if mem.WriteWord(addr, val) {
					rp, rpn, wp, wpn = tlbLocals(mem)
				} else {
					m.Regs, m.Flags = regs, flags
					done += uint64(pc-base) + 1
					m.commitFused(pc, done, cyc+cycp[pc+1]-cycp[base])
					return m.fault(FaultPage, addr, true, "write to unmapped memory"), done
				}

			case OpAdd:
				regs[uint8(u>>uopRdShift)] += regs[uint8(u>>uopRsShift)]
			case OpSub:
				regs[uint8(u>>uopRdShift)] -= regs[uint8(u>>uopRsShift)]
			case OpMul:
				regs[uint8(u>>uopRdShift)] *= regs[uint8(u>>uopRsShift)]
			case OpDiv, OpMod:
				d := regs[uint8(u>>uopRsShift)]
				if d == 0 {
					detail := "division by zero"
					if Op(u&uopOpMask) == OpMod {
						detail = "modulo by zero"
					}
					m.Regs, m.Flags = regs, flags
					done += uint64(pc-base) + 1
					m.commitFused(pc, done, cyc+cycp[pc+1]-cycp[base])
					return m.fault(FaultDivZero, 0, false, detail), done
				}
				if Op(u&uopOpMask) == OpDiv {
					regs[uint8(u>>uopRdShift)] /= d
				} else {
					regs[uint8(u>>uopRdShift)] %= d
				}
			case OpAnd:
				regs[uint8(u>>uopRdShift)] &= regs[uint8(u>>uopRsShift)]
			case OpOr:
				regs[uint8(u>>uopRdShift)] |= regs[uint8(u>>uopRsShift)]
			case OpXor:
				regs[uint8(u>>uopRdShift)] ^= regs[uint8(u>>uopRsShift)]
			case OpShl:
				regs[uint8(u>>uopRdShift)] <<= regs[uint8(u>>uopRsShift)] & 31
			case OpShr:
				regs[uint8(u>>uopRdShift)] >>= regs[uint8(u>>uopRsShift)] & 31

			case OpAddI:
				regs[uint8(u>>uopRdShift)] += uint32(u >> 32)
			case OpSubI:
				regs[uint8(u>>uopRdShift)] -= uint32(u >> 32)
			case OpMulI:
				regs[uint8(u>>uopRdShift)] *= uint32(u >> 32)
			case OpDivI, OpModI:
				if uint32(u>>32) == 0 {
					detail := "division by zero immediate"
					if Op(u&uopOpMask) == OpModI {
						detail = "modulo by zero immediate"
					}
					m.Regs, m.Flags = regs, flags
					done += uint64(pc-base) + 1
					m.commitFused(pc, done, cyc+cycp[pc+1]-cycp[base])
					return m.fault(FaultDivZero, 0, false, detail), done
				}
				if Op(u&uopOpMask) == OpDivI {
					regs[uint8(u>>uopRdShift)] /= uint32(u >> 32)
				} else {
					regs[uint8(u>>uopRdShift)] %= uint32(u >> 32)
				}
			case OpAndI:
				regs[uint8(u>>uopRdShift)] &= uint32(u >> 32)
			case OpOrI:
				regs[uint8(u>>uopRdShift)] |= uint32(u >> 32)
			case OpXorI:
				regs[uint8(u>>uopRdShift)] ^= uint32(u >> 32)
			case OpShlI:
				regs[uint8(u>>uopRdShift)] <<= uint32(u>>32) & 31
			case OpShrI:
				regs[uint8(u>>uopRdShift)] >>= uint32(u>>32) & 31

			case OpCmp:
				flags = cmp32(int32(regs[uint8(u>>uopRdShift)]), int32(regs[uint8(u>>uopRsShift)]))
			case OpCmpI:
				flags = cmp32(int32(regs[uint8(u>>uopRdShift)]), int32(uint32(u>>32)))

			case OpPush:
				val := regs[uint8(u>>uopRdShift)]
				sp := regs[SP] - 4
				if sp>>PageShift == wpn && sp&(PageSize-1) <= PageSize-4 {
					off := sp & (PageSize - 1)
					wp.markRun(uint16(off), uint16(off)+4)
					binary.LittleEndian.PutUint32(wp.data[off:], val)
				} else if mem.WriteWord(sp, val) {
					rp, rpn, wp, wpn = tlbLocals(mem)
				} else {
					m.Regs, m.Flags = regs, flags
					done += uint64(pc-base) + 1
					m.commitFused(pc, done, cyc+cycp[pc+1]-cycp[base])
					return m.fault(FaultPage, sp, true, "stack push to unmapped memory"), done
				}
				regs[SP] = sp

			case OpPushI:
				val := uint32(u >> 32)
				sp := regs[SP] - 4
				if sp>>PageShift == wpn && sp&(PageSize-1) <= PageSize-4 {
					off := sp & (PageSize - 1)
					wp.markRun(uint16(off), uint16(off)+4)
					binary.LittleEndian.PutUint32(wp.data[off:], val)
				} else if mem.WriteWord(sp, val) {
					rp, rpn, wp, wpn = tlbLocals(mem)
				} else {
					m.Regs, m.Flags = regs, flags
					done += uint64(pc-base) + 1
					m.commitFused(pc, done, cyc+cycp[pc+1]-cycp[base])
					return m.fault(FaultPage, sp, true, "stack push to unmapped memory"), done
				}
				regs[SP] = sp

			case OpPop:
				slot := regs[SP]
				if slot>>PageShift == rpn && slot&(PageSize-1) <= PageSize-4 {
					regs[uint8(u>>uopRdShift)] = binary.LittleEndian.Uint32(rp.data[slot&(PageSize-1):])
				} else if v, ok := mem.ReadWord(slot); ok {
					regs[uint8(u>>uopRdShift)] = v
					rp, rpn, wp, wpn = tlbLocals(mem)
				} else {
					m.Regs, m.Flags = regs, flags
					done += uint64(pc-base) + 1
					m.commitFused(pc, done, cyc+cycp[pc+1]-cycp[base])
					return m.fault(FaultPage, slot, false, "stack pop from unmapped memory"), done
				}
				regs[SP] = slot + 4

			}
			pc++
		}
		if selfLoop {
			// The jmp terminator is folded into the per-iteration accounting.
			done += stride
			cyc += blockCyc
			pc = base
			if done <= loopMax {
				goto iterate
			}
			continue // remaining budget < one iteration: let the prologue clamp
		}
		done += uint64(end - base)
		cyc += cycp[end] - cycp[base]

		if !fuseTerm {
			if probeGap != nil && done < limit && probeGap[pc] == 0 {
				continue // a probed index with budget left: deliver it above
			}
			// Budget boundary or a split pair: hand the next instruction (if
			// any) back to the slow path.
			m.Regs, m.Flags = regs, flags
			m.commitFused(pc, done, cyc)
			return nil, done
		}

		if pc >= len(uops) {
			// The run reached the end of the code array (the image ends on a
			// fusible instruction); the bounds check at the top of the loop
			// raises the same bad-PC fault Step would.
			continue
		}

		// Terminator.
		u := uops[pc]
		switch Op(u & uopOpMask) {
		case OpJmp:
			cyc += cyclesBranch
			done++
			pc = int(int32(uint32(u >> 32)))
		case OpJz, OpJnz, OpJlt, OpJle, OpJgt, OpJge:
			cyc += cyclesBranch
			done++
			taken := false
			switch Op(u & uopOpMask) {
			case OpJz:
				taken = flags == 0
			case OpJnz:
				taken = flags != 0
			case OpJlt:
				taken = flags < 0
			case OpJle:
				taken = flags <= 0
			case OpJgt:
				taken = flags > 0
			case OpJge:
				taken = flags >= 0
			}
			if taken {
				pc = int(int32(uint32(u >> 32)))
			} else {
				pc++
			}

		case OpJmpReg:
			cyc += cyclesBranch
			done++
			target := regs[uint8(u>>uopRdShift)]
			tIdx, ok := m.IndexOfAddr(target)
			if !ok {
				m.Regs, m.Flags = regs, flags
				m.commitFused(pc, done, cyc)
				return m.fault(FaultBadPC, target, false, "indirect jump outside code segment"), done
			}
			pc = tIdx

		case OpCall, OpCallReg:
			if m.callDispatch || m.memDispatch {
				// Call hooks (shadow stacks) and memory tools observe the
				// return-address push; Step dispatches them.
				m.Regs, m.Flags = regs, flags
				m.commitFused(pc, done, cyc)
				return nil, done
			}
			cyc += cyclesBranch + cyclesMem
			done++
			targetIdx := int(int32(uint32(u >> 32)))
			if Op(u&uopOpMask) == OpCallReg {
				target := regs[uint8(u>>uopRdShift)]
				tIdx, ok := m.IndexOfAddr(target)
				if !ok {
					m.Regs, m.Flags = regs, flags
					m.commitFused(pc, done, cyc)
					return m.fault(FaultBadPC, target, false, "indirect call outside code segment"), done
				}
				targetIdx = tIdx
			}
			retAddr := m.AddrOfIndex(pc + 1)
			sp := regs[SP] - 4
			if sp>>PageShift == wpn && sp&(PageSize-1) <= PageSize-4 {
				off := sp & (PageSize - 1)
				wp.markRun(uint16(off), uint16(off)+4)
				binary.LittleEndian.PutUint32(wp.data[off:], retAddr)
			} else if mem.WriteWord(sp, retAddr) {
				rp, rpn, wp, wpn = tlbLocals(mem)
			} else {
				m.Regs, m.Flags = regs, flags
				m.commitFused(pc, done, cyc)
				return m.fault(FaultPage, sp, true, "stack push failed during call"), done
			}
			regs[SP] = sp
			pc = targetIdx

		case OpRet:
			if m.callDispatch || m.memDispatch {
				m.Regs, m.Flags = regs, flags
				m.commitFused(pc, done, cyc)
				return nil, done
			}
			cyc += cyclesBranch + cyclesMem
			done++
			retSlot := regs[SP]
			var retAddr uint32
			if retSlot>>PageShift == rpn && retSlot&(PageSize-1) <= PageSize-4 {
				retAddr = binary.LittleEndian.Uint32(rp.data[retSlot&(PageSize-1):])
			} else if v, ok := mem.ReadWord(retSlot); ok {
				retAddr = v
				rp, rpn, wp, wpn = tlbLocals(mem)
			} else {
				m.Regs, m.Flags = regs, flags
				m.commitFused(pc, done, cyc)
				return m.fault(FaultPage, retSlot, false, "stack read failed during return"), done
			}
			regs[SP] = retSlot + 4
			tIdx, ok := m.IndexOfAddr(retAddr)
			if !ok {
				m.Regs, m.Flags = regs, flags
				m.commitFused(pc, done, cyc)
				return m.fault(FaultBadPC, retAddr, false, "return to address outside code segment"), done
			}
			pc = tIdx

		default:
			// Syscall, halt, illegal opcode: only Step knows how.
			m.Regs, m.Flags = regs, flags
			m.commitFused(pc, done, cyc)
			return nil, done
		}
	}
}
