package vm

import (
	"encoding/binary"
	"slices"
)

// Decoded basic-block dispatch.
//
// Executing one instruction at a time pays a fixed per-instruction tax —
// dispatch-flag checks, budget bookkeeping, and two read-modify-write clock
// updates — that dominates the cost of executing the small ops making up most
// guest code. The block dispatcher removes that tax for untooled guests: the
// relocated code is scanned once into straight-line runs terminated by
// branches, calls, returns, syscalls and halts, and Machine.Run executes a
// whole run in a fused loop that charges virtual cycles and the
// retired-instruction count once per run from a precomputed block descriptor.
// The scan also re-encodes each instruction into a packed 8-byte micro-op, so
// the fused loop fetches one machine word per instruction instead of a
// 24-byte Instr with its symbol pointer, and fuses the three adjacent pairs
// the guests run most into one micro-op each (see fusePair). Every block is
// left through its terminator: a jmp back to the block's own start resolves
// like any other branch.
//
// Descriptors and micro-ops are a pure function of the relocated code, built
// once per relocated image (Program.relocImage) and shared by every Machine
// loaded at the same code and data bases: clones and pooled shells included.
// There is no invalidation: code is immutable once loaded.
//
// Attached instr/mem tools disable the fused loop wholesale (fastDispatch), so
// it never serves a mem hook.
// Registered probes do not, and they cut no block short: a machine with
// probes runs an overlay of the micro-ops (rebuildOverlay) in which every
// probed index carries the synthetic opProbe. The loop enters and chains
// blocks exactly as on an unprobed machine; reaching opProbe, in a body or
// as a terminator, it commits its batched state, fires that index's probes in
// place and executes the original micro-op. A probe only observes (see
// Probe), so the pass then simply continues (fireInPlace). What the loop
// cannot express goes, one instruction at a time, through the hook-calling
// engine (runHooked, blocks_tooled.go), which runs the same micro-ops:
// syscalls, halts, illegal opcodes, call/ret under call hooks, and the first
// half of a fused pair that the budget splits. Faults and budget exhaustion
// inside a run flush partial accounting so that every observable quantity —
// Cycles(), InstrCount(), ProbeFires(), PC, StopInfo, probe firing order — is
// bit-identical to that engine's, and to the tests' reference interpreter's,
// at every stop point.
//
// Loop heads carry the synthetic opLoop; when and under what a head's kernel
// runs, and what it charges: loops.go's header.

// Block descriptors. desc[i] describes the block a jump to index i enters
// (every index is a legal entry, since indirect jumps can land anywhere):
//
//   - bits 0-31: the body length, the number of consecutive fusible
//     instructions starting at i (zero if code[i] itself is a terminator or
//     otherwise non-fusible) — the straight-line run the fused loop may
//     execute before it must look at code[i+len] as a terminator;
//   - bits 33-63: the body's static virtual-cycle cost.
//
// A run's suffixes share its end, so the cost of any stretch [a, b) of one
// body is the cost field of desc[a] less that of desc[b]; the table carries a
// zero entry at len(code) so that b may be the end of the code. The clamped
// path and the fault exits charge partial bodies that way. Code is at most
// SegmentSpan/InstrSize = 65 536 instructions, so neither field can overflow.
const (
	// descClamped (bit 32) marks a descriptor runFused made for a body the
	// budget cut short: its terminator is not to be executed. The table
	// never carries it.
	descClamped  = 1 << 32
	descCycShift = 33
)

// Packed micro-op layout: op in bits 0-7, Rd in 8-15, Rs in 16-23, the
// (relocated) immediate in bits 32-63. Bits 24-31 are free: an opProbe or
// opLoop micro-op keeps there the opcode of the micro-op it stands for, whose
// other fields it carries unchanged (opLoop's immediate aside, see loopUop).
// Every illegal opcode packs as opIllegal, so that none reads as a synthetic
// one.
const (
	uopOpMask    = 0xff
	uopRdShift   = 8
	uopRsShift   = 16
	uopOrigShift = 24
	opIllegal    = Op(uopOpMask)
)

func packUop(in Instr) uint64 {
	op := in.Op
	if op >= numOps {
		op = opIllegal
	}
	return uint64(op) |
		uint64(in.Rd)<<uopRdShift |
		uint64(in.Rs)<<uopRsShift |
		uint64(uint32(in.Imm))<<32
}

// Macro-op fusion: the dispatch cost of the fused body loop is one indirect
// jump per micro-op, so the adjacent instruction pairs the guests run most are
// re-encoded as a single synthetic micro-op executing both halves under one
// dispatch. The table holds three pairs, each real work in the app images'
// hot loops (rfc1738_escape_part's loadb;cmpi and addi;addi among them);
// TestGuestPairCensus fails if a guest stops running one of them.
//
// A fused micro-op replaces only the opcode byte of the FIRST slot; its own
// operand fields and the entire second slot keep their original encoding, and
// the executor reads the second half's operands from uops[pc+1]. That keeps
// every instruction index a valid entry point: a jump landing on the second
// half executes the untouched original micro-op, and a budget clamp that
// would split a pair ends the body before it. The hook-calling engine runs
// every marked micro-op — a fused pair, opProbe, opLoop, opIllegal — as the
// instruction Program.Code names at its index, on the micro-op's own
// operands: a pair's first half alone.
// The synthetic opcodes sit directly after the real ones so the dispatch
// switch still compiles to one compact jump table.
const (
	fuseAddIAddI   Op = numOps + iota // addi ; addi
	fuseLoadBCmpI                     // loadb ; cmpi
	fuseStoreBAddI                    // storeb ; addi
	// opProbe marks a probed index in a probe overlay (rebuildOverlay):
	// fire its probes, then execute the micro-op it stands for (see
	// uopOrigShift), which may be the first half of a fused pair.
	opProbe
	// opLoop marks the head of a recognised byte loop (loops.go): run its
	// kernel, then the micro-op it stands for.
	opLoop
)

// probedUop is u marked as probed; unprobedUop inverts it.
func probedUop(u uint64) uint64 {
	return u&^uopOpMask | (u&uopOpMask)<<uopOrigShift | uint64(opProbe)
}

func unprobedUop(u uint64) uint64 {
	return u&^(uopOpMask|uopOpMask<<uopOrigShift) | u>>uopOrigShift&uopOpMask
}

// fusePair returns the synthetic opcode for an adjacent opcode pair, and
// whether the pair is in the fusion table.
func fusePair(a, b Op) (Op, bool) {
	switch {
	case a == OpAddI && b == OpAddI:
		return fuseAddIAddI, true
	case a == OpLoadB && b == OpCmpI:
		return fuseLoadBCmpI, true
	case a == OpStoreB && b == OpAddI:
		return fuseStoreBAddI, true
	}
	return 0, false
}

// packUops encodes relocated code into packed micro-ops with macro-op fusion
// applied. A pair must lie inside one straight-line run (a body length of at
// least 2 in desc[i] guarantees i and i+1 are both fusible body ops). Every
// pair weighs the same, so one right-to-left scan picks a largest set of
// non-overlapping pairs: (i, i+1) fuses unless i+1 already starts a pair.
// addi;addi;addi thus fuses its last two.
func packUops(code []Instr, desc []uint64) []uint64 {
	uops := make([]uint64, len(code))
	for i, in := range code {
		uops[i] = packUop(in)
	}
	for i := len(code) - 2; i >= 0; i-- {
		if f, ok := fusePair(code[i].Op, code[i+1].Op); ok && uint32(desc[i]) >= 2 && Op(uops[i+1]&uopOpMask) < numOps {
			uops[i] = uops[i]&^uopOpMask | uint64(f)
		}
	}
	return uops
}

// invalidPN is the page-number sentinel for an empty local TLB mirror. Guest
// addresses are 32-bit, so no real page number reaches it.
const invalidPN = ^uint32(0)

// fusible reports whether the fused body loop can execute op: an opcode of
// the ISA that neither branches (Effects), traps nor halts.
func fusible(op Op) bool {
	return op < numOps && !opEffects[op].Branch && op != OpSyscall && op != OpHalt
}

// buildBlocks decodes relocated code into its block descriptors: a single
// right-to-left pass, since the body starting at i is instruction i followed
// by the body starting at i+1.
func buildBlocks(code []Instr) []uint64 {
	n := len(code)
	desc := make([]uint64, n+1)
	for i := n - 1; i >= 0; i-- {
		if op := code[i].Op; fusible(op) {
			next := desc[i+1]
			desc[i] = (uint64(uint32(next)) + 1) | (next>>descCycShift+uint64(opCycles[op]))<<descCycShift
		}
	}
	return desc
}

// rebuildOverlay points m.uops at the micro-ops both engines are to run
// under the current tools and probes, and records what watches each loop's
// kernel (watch). They are the image's own unless a probe is registered or a
// kernel is off; then they are the overlay, the image's copied into the
// machine's buffer with three changes. A loop whose kernel is off gets its
// head's own micro-op back. A pair whose second half is probed runs as its
// two halves, since that half's probes fire between them (a pair whose first
// half is probed stays fused: its probes fire before the pair, as before the
// first half). And every probed index carries opProbe, save a head that
// keeps opLoop, whose probes fire when the head runs after its kernel. The
// descriptors are the image's: a probe cuts no block. The buffer is reused,
// so installing or removing a whole antibody's probes costs one O(code)
// copy on the next entry.
func (m *Machine) rebuildOverlay() {
	m.overlayDirty = false
	m.watches = slices.Grow(m.watches[:0], len(m.loops))[:len(m.loops)]
	overlay := m.probeCount > 0
	for id := range m.loops {
		m.watch(id)
		overlay = overlay || !m.watches[id].armed
	}
	m.uops = m.imageUops
	if !overlay {
		return
	}
	n := len(m.code)
	if len(m.overlay) != n {
		m.overlay = make([]uint64, n)
	}
	u := m.overlay
	copy(u, m.imageUops)
	for id, w := range m.watches {
		if h := m.loops[id].head; !w.armed {
			u[h] = unloopUop(u[h])
		}
	}
	for i := 1; i < n; i++ {
		if op := m.code[i-1].Op; len(m.probes[i]) > 0 && op < numOps {
			s := 0 // the byte u[i-1] keeps the opcode it runs in
			if Op(u[i-1]&uopOpMask) == opLoop {
				s = uopOrigShift
			}
			u[i-1] = u[i-1]&^(uopOpMask<<s) | uint64(op)<<s
		}
	}
	for i, list := range m.probes {
		if len(list) > 0 && Op(u[i]&uopOpMask) != opLoop {
			u[i] = probedUop(u[i])
		}
	}
	m.uops = u
}

// fireProbes delivers instruction idx's probes in registration order, each
// charged CyclesPerProbe and counted in ProbeFires, and reports whether one
// raised a violation.
func (m *Machine) fireProbes(idx int) bool {
	in := &m.code[idx]
	for _, p := range m.probes[idx] {
		m.cycles += CyclesPerProbe
		m.probeFires++
		p.OnProbe(m, idx, in)
	}
	return m.pendingViolation != nil
}

// fireInPlace is runFused's one probe delivery: it commits the loop's
// registers, flags and batched accounting up to the probed instruction at, so
// that the probes read exactly what they read under Step, and fires them. A
// probe only observes, so nothing needs reloading afterwards: unless one
// raised a violation (the stop then stands on the committed state), the
// batched counts are taken back and the loop carries on with its own. The
// loop could instead restart its batch at the probe, but its counters would
// then change inside the body loop, and that costs every dispatch of every
// machine a spill. Out of line, like fusedFault, to keep its set-up out of
// the dispatch loop.
//
//go:noinline
func (m *Machine) fireInPlace(regs *[NumRegs]uint32, flags, at int, done, cyc uint64) bool {
	m.Regs, m.Flags = *regs, flags
	m.commitFused(at, done, cyc)
	if m.fireProbes(at) {
		return true
	}
	m.instrCount -= done
	m.cycles -= cyc
	return false
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
// indexes and running loop kernels at loop heads, until it retires limit
// instructions, the guest stops, or it reaches an instruction only runHooked
// can execute (syscall, halt, illegal opcode, call/ret with call hooks
// attached, a split fused pair) or a loop head whose kernel has just run or
// whose probes are Run's to fire; then it returns a nil stop and Run gives
// runHooked that one instruction, probes included. What it retired is what
// InstrCount() grew by, for Run's budget bookkeeping.
//
// The loop mirrors runHooked's observable semantics exactly (where its
// comments say Step, read: runHooked with a limit of one): the same cycle
// constants, the same fault kinds/addresses/details, instruction counting
// that includes the faulting instruction, and the PC left on the faulting
// instruction for fault attribution. Registers, flags and the TLB mirrors
// live in locals; every exit path flushes them before touching m.
func (m *Machine) runFused(limit uint64) *StopInfo {
	// done and cyc batch the call's accounting; every exit commits them.
	var done, cyc uint64
	// Probes change only between entries (hooks and syscalls run under Step,
	// and a probe never adds or removes one), so the overlay is loop-invariant
	// here. It is rebuilt lazily: tool and probe changes just mark it dirty.
	if m.overlayDirty {
		m.rebuildOverlay()
	}
	var (
		uops  = m.uops
		desc  = m.desc
		mem   = m.Mem
		pc    = m.PC
		regs  = m.Regs
		flags = m.Flags
	)
	rp, rpn, wp, wpn := tlbLocals(mem)

	for {
		if uint(pc) >= uint(len(uops)) {
			m.Regs, m.Flags = regs, flags
			m.commitFused(pc, done, cyc)
			return m.badPCFault()
		}
		// d is the block's descriptor, the only block state the body loop
		// carries. A block whose body and terminator fit the budget runs on it
		// as built (and is usually entered straight from the branch that
		// reached it, below); otherwise the budget clamp makes one for the
		// stretch the loop may execute.
		d := desc[pc]
		if rem := limit - done; rem <= uint64(uint32(d)) {
			// The clamp may land between the halves of a fused pair. Rather
			// than split the pair in the body loop, shorten the body by one
			// and let Run's Step fallback execute the pair's first half
			// alone — the fused cases below can then assume every pair
			// they dispatch is whole. Observables are unchanged: the stop
			// still lands on exactly the same instruction. A single decrement suffices, because the
			// instruction before a pair's first half is never itself a pair's
			// first half. (A probed index there is left to Step as well, which
			// fires its probes.)
			body := int(rem)
			if body > 0 && Op(uops[pc+body-1]&uopOpMask) >= numOps {
				body--
			}
			d = uint64(body) | descClamped | (d>>descCycShift-desc[pc+body]>>descCycShift)<<descCycShift
		}
		base, end := pc, pc+int(uint32(d))

	iterate:
		for pc < end {
			u := uops[pc]
			op := Op(u & uopOpMask)
			// Dispatch specialization: an indirect jump through the switch
			// table is expensive on virtualized hosts (IBRS-era indirect
			// branch costs), so the hottest micro-ops resolve through
			// predictable direct compares first — the single most frequent
			// ALU op across the app images; cmpi, the whole body of the
			// compare-and-branch blocks character loops chain (a sixth of
			// all dispatches on long squid requests); then (one range test)
			// every synthetic fused pair, which is hot by construction since
			// fusion targets the most frequent pairs. Everything else takes
			// the jump table below.
			if op == OpAddI {
				regs[uint8(u>>uopRdShift)] += uint32(u >> 32)
				pc++
				continue
			}
			if op == OpCmpI {
				flags = cmp32(int32(regs[uint8(u>>uopRdShift)]), int32(uint32(u>>32)))
				pc++
				continue
			}
			if op >= opProbe {
				// (The two synthetic opcodes after the fused pairs: one
				// compare for every other micro-op.)
				if op == opLoop {
					// A loop head: if its kernel ran iterations, or the
					// head is probed, runLoop has committed everything up
					// to the head, and Run steps the head (firing its
					// probes) and enters again after it. Otherwise the
					// head's own micro-op runs here, as below.
					if m.runLoop(&regs, flags, base, pc, done, cyc, limit) {
						return nil
					}
					u = unloopUop(u)
				} else {
					// pc's probes fire in place, before it counts or costs
					// anything, as under Step; then its own micro-op runs: a
					// fused pair just below, anything else in the switch
					// after.
					if m.fireInPlace(&regs, flags, pc, done+uint64(pc-base), cyc+desc[base]>>descCycShift-desc[pc]>>descCycShift) {
						return m.violationStop()
					}
					u = unprobedUop(u)
				}
				op = Op(u & uopOpMask)
			}
			if op >= numOps {
				switch op {
				// Fused pairs. Each executes its first half exactly like its
				// own case below, then the second half, whose operands come
				// from the untouched uops[pc+1]; the extra pc++ here plus the
				// shared one below advances past both halves. Second-half
				// faults report index pc+1 and charge both instructions,
				// exactly as two single dispatches would.
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
						return m.fusedFault(&regs, flags, base, pc, done, cyc, FaultPage, addr, false, "read from unmapped memory")
					}
					u2 := uops[pc+1]
					flags = cmp32(int32(regs[uint8(u2>>uopRdShift)]), int32(uint32(u2>>32)))
					pc++

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
						return m.fusedFault(&regs, flags, base, pc, done, cyc, FaultPage, addr, true, "write to unmapped memory")
					}
					u2 := uops[pc+1]
					regs[uint8(u2>>uopRdShift)] += uint32(u2 >> 32)
					pc++
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
					return m.fusedFault(&regs, flags, base, pc, done, cyc, FaultPage, addr, false, "read from unmapped memory")
				}
			case OpLoadW:
				addr := regs[uint8(u>>uopRsShift)] + uint32(u>>32)
				if addr>>PageShift == rpn && addr&(PageSize-1) <= PageSize-4 {
					regs[uint8(u>>uopRdShift)] = binary.LittleEndian.Uint32(rp.data[addr&(PageSize-1):])
				} else if v, ok := mem.ReadWord(addr); ok {
					regs[uint8(u>>uopRdShift)] = v
					rp, rpn, wp, wpn = tlbLocals(mem)
				} else {
					return m.fusedFault(&regs, flags, base, pc, done, cyc, FaultPage, addr, false, "read from unmapped memory")
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
					return m.fusedFault(&regs, flags, base, pc, done, cyc, FaultPage, addr, true, "write to unmapped memory")
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
					return m.fusedFault(&regs, flags, base, pc, done, cyc, FaultPage, addr, true, "write to unmapped memory")
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
					return m.fusedFault(&regs, flags, base, pc, done, cyc, FaultDivZero, 0, false, detail)
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
					return m.fusedFault(&regs, flags, base, pc, done, cyc, FaultDivZero, 0, false, detail)
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
					return m.fusedFault(&regs, flags, base, pc, done, cyc, FaultPage, sp, true, "stack push to unmapped memory")
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
					return m.fusedFault(&regs, flags, base, pc, done, cyc, FaultPage, sp, true, "stack push to unmapped memory")
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
					return m.fusedFault(&regs, flags, base, pc, done, cyc, FaultPage, slot, false, "stack pop from unmapped memory")
				}
				regs[SP] = slot + 4

			}
			pc++
		}
		done += uint64(end - base)
		cyc += d >> descCycShift
		if d&descClamped != 0 {
			// Budget boundary or a split pair: hand the next instruction (if
			// any) back to the slow path.
			m.Regs, m.Flags = regs, flags
			m.commitFused(pc, done, cyc)
			return nil
		}

		if pc >= len(uops) {
			// The run reached the end of the code array (the image ends on a
			// fusible instruction); the bounds check at the top of the loop
			// raises the same bad-PC fault Step would.
			continue
		}

		// Terminator. Jumps and conditional branches, the way out of nearly
		// every block, resolve ahead of the switch without an indirect jump:
		// one range compare, then the taken bit for the sign of flags (read as
		// RefRun reads it, any int included). The next block, when within
		// budget, is entered right here on its descriptor alone.
		u := uops[pc]
		op := Op(u & uopOpMask)
	terminator:
		if op-OpJmp <= OpJge-OpJmp {
			cyc += cyclesBranch
			done++
			class := uint(1) // flags == 0
			if flags < 0 {
				class = 0
			}
			if flags > 0 {
				class = 2
			}
			if branchTaken>>((3*uint(op-OpJmp)+class)&31)&1 != 0 {
				pc = int(int32(uint32(u >> 32)))
			} else {
				pc++
			}
			if uint(pc) < uint(len(uops)) {
				if d = desc[pc]; limit-done > uint64(uint32(d)) {
					base, end = pc, pc+int(uint32(d))
					goto iterate
				}
			}
			continue
		}
		switch op {
		case OpJmpReg:
			cyc += cyclesBranch
			done++
			target := regs[uint8(u>>uopRdShift)]
			tIdx, ok := m.IndexOfAddr(target)
			if !ok {
				return m.fusedFault(&regs, flags, pc+1, pc, done, cyc, FaultBadPC, target, false, "indirect jump outside code segment")
			}
			pc = tIdx

		case OpCall, OpCallReg:
			if m.callDispatch {
				// Call hooks (shadow stacks) observe the return-address push;
				// Step dispatches them.
				m.Regs, m.Flags = regs, flags
				m.commitFused(pc, done, cyc)
				return nil
			}
			cyc += cyclesBranch + cyclesMem
			done++
			targetIdx := int(int32(uint32(u >> 32)))
			if op == OpCallReg {
				target := regs[uint8(u>>uopRdShift)]
				tIdx, ok := m.IndexOfAddr(target)
				if !ok {
					return m.fusedFault(&regs, flags, pc+1, pc, done, cyc, FaultBadPC, target, false, "indirect call outside code segment")
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
				return m.fusedFault(&regs, flags, pc+1, pc, done, cyc, FaultPage, sp, true, "stack push failed during call")
			}
			regs[SP] = sp
			pc = targetIdx

		case OpRet:
			if m.callDispatch {
				m.Regs, m.Flags = regs, flags
				m.commitFused(pc, done, cyc)
				return nil
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
				return m.fusedFault(&regs, flags, pc+1, pc, done, cyc, FaultPage, retSlot, false, "stack read failed during return")
			}
			regs[SP] = retSlot + 4
			tIdx, ok := m.IndexOfAddr(retAddr)
			if !ok {
				return m.fusedFault(&regs, flags, pc+1, pc, done, cyc, FaultBadPC, retAddr, false, "return to address outside code segment")
			}
			pc = tIdx

		default:
			if op == opProbe {
				// A probed terminator: its probes fire here unless Step is to
				// execute it, and fire them itself. The budget holds it: an
				// unclamped body leaves room for its terminator.
				u = unprobedUop(u)
				op = Op(u & uopOpMask)
				if op <= OpRet && (op < OpCall || !m.callDispatch) {
					if m.fireInPlace(&regs, flags, pc, done, cyc) {
						return m.violationStop()
					}
					goto terminator
				}
			}
			// Syscall, halt, illegal opcode: only Step knows how.
			m.Regs, m.Flags = regs, flags
			m.commitFused(pc, done, cyc)
			return nil
		}
	}
}

// branchTaken holds, three bits per opcode from OpJmp to OpJge, whether the
// branch is taken when flags is negative (low bit), zero, or positive.
const branchTaken = 0b111 | 0b010<<3 | 0b101<<6 | 0b001<<9 | 0b011<<12 | 0b100<<15 | 0b110<<18

// fusedFault is every fault exit of runFused. It flushes the loop's registers
// and flags, charges the body instructions base through at that the loop has
// not yet counted (none when base is at+1: a terminator charges itself before
// it can fault), commits with the PC on the faulting instruction at, and
// raises the fault. Out of line, it keeps the exits' argument set-up out of
// the dispatch loop.
//
//go:noinline
func (m *Machine) fusedFault(regs *[NumRegs]uint32, flags, base, at int, done, cyc uint64,
	kind FaultKind, addr uint32, isWrite bool, detail string) *StopInfo {
	done += uint64(at + 1 - base)
	cyc += m.desc[base]>>descCycShift - m.desc[at+1]>>descCycShift
	m.Regs, m.Flags = *regs, flags
	m.commitFused(at, done, cyc)
	return m.fault(kind, addr, isWrite, detail)
}
