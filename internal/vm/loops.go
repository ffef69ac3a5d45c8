package vm

import (
	"bytes"
	"slices"
)

// Loop kernels: the fused engine's one step per recognised byte loop.
//
// Two thirds of a long squid request's instructions are three libc byte
// loops — a NUL scan (strlen, strcat's find-end), a character scan (strchr)
// and a copy-until-NUL (strcpy, strcat's copy) — and the block loop pays a
// dispatch per instruction of each iteration. Recognised once per relocated
// image by their micro-op shape (never by symbol), such a loop's head carries
// the synthetic opLoop, and runFused hands it to runLoop, which runs as many
// whole iterations as the data, the mapped pages and the budget allow in
// native code and commits them as if they had been executed one instruction
// at a time. The shapes, generic over registers (x, p, q, c) and the compare
// immediate K, with every jz's target free:
//
//	scan:      loadb x,[p+0]; cmpi x,K; jz; addi p,1; [addi q,1;] jmp head
//	char scan: loadb x,[p+0]; cmp x,c; jz; cmpi x,K; jz; addi p,1; jmp head
//	copy:      loadb x,[p+0]; storeb [q+0],x; cmpi x,K; jz; addi q,1; addi p,1; jmp head
//
// (two addis in either order). A kernel runs only iterations that continue
// the loop — every instruction of the span once, no branch taken — so each
// retires the span's length in instructions at the span's static cost and
// leaves x holding the byte it read, flags the cmpi's result, and p (and q)
// advanced by one. The iteration that leaves, a byte the page table does not
// map (or a store it does not), and the iterations the budget cannot hold
// whole are the engines': after the kernel Run steps the head's own micro-op
// and the block loop carries on from there, so every stop, fault and budget
// split is reported by the code that reports it without kernels.
//
// Why a third spelling of these opcodes is accepted, and what guards it:
// blocks.go's header.
//
// Under instruction and memory tools the hook-calling engine runs the same
// kernels (runLoopHooked), whose heads the plain micro-ops carry too, when
// every such tool can account for a run of iterations in one call (LoopHook,
// hooks.go), at most one of them is an instruction hook and the machine has
// no probe (refreshDispatch sets loopsHooked); otherwise it runs a head's
// own micro-op. The tools bound the run before it and apply its effects
// after it; the clock is charged every hook call the iterations would have
// made.
//
// Probes take a run the same way. When every probe on any index of a loop
// implements LoopHook, the probe overlay keeps the loop's opLoop
// (rebuildProbeTables) and runLoop commits runFused's batch up to the head,
// bounds the run by each probe, runs it, charges CyclesPerProbe and counts
// ProbeFires for every delivery the iterations would have made, lets each
// probe apply the run once, and always hands the head back to Run, even
// after no iteration: runHooked steps the head and fires its probes. A loop
// with any other probe runs without its kernel (the overlay restores its
// head's micro-op), and runHooked takes no kernel on a probed machine.

// loopKind is which of the three shapes a loop has.
type loopKind uint8

const (
	loopScan loopKind = iota
	loopCharScan
	loopCopy
)

// noReg marks an absent optional register (scan's q).
const noReg = 0xff

// byteLoop is one recognised loop: its kind, its head index and span (the
// instructions one iteration retires), the static cycle cost of an
// iteration, and its operands. p is the pointer the loadb reads through; q is
// scan's second counter (noReg when absent) or copy's destination; c is char
// scan's character register.
type byteLoop struct {
	kind       loopKind
	x, p, q, c uint8
	k          int32
	head, n    int
	cyc        uint64
}

// opLoop's micro-op keeps the head's own micro-op (possibly a fused pair's
// first half) in the free byte, as opProbe does, and the loop's index in the
// immediate, which every recognised head has zero: a loadb [p+0].
func loopUop(u uint64, id int) uint64 {
	return u&(1<<uopOrigShift-1)&^uopOpMask | (u&uopOpMask)<<uopOrigShift | uint64(id)<<32 | uint64(opLoop)
}

func unloopUop(u uint64) uint64 {
	return u&(1<<uopOrigShift-1)&^uopOpMask | u>>uopOrigShift&uopOpMask
}

// markLoops finds the image's loops and marks their heads in uops and in
// plain, in place (once when they are one slice). A head is a loadb, which
// no fused pair has as its second half, so no pair's first half reads its
// operands from a head.
func markLoops(code []Instr, uops, plain []uint64) []byteLoop {
	var loops []byteLoop
	for j, in := range code {
		h := int(in.Imm)
		if in.Op != OpJmp || h < 0 || h >= j {
			continue
		}
		lp, ok := matchLoop(code[h : j+1])
		if !ok {
			continue
		}
		lp.head = h
		for _, in := range code[h : j+1] {
			lp.cyc += uint64(opCycles[in.Op])
		}
		uops[h] = loopUop(uops[h], len(loops))
		if &plain[h] != &uops[h] {
			plain[h] = loopUop(plain[h], len(loops))
		}
		loops = append(loops, lp)
	}
	return loops
}

// matchLoop reports whether span (head through the jmp back to it) is one of
// the three shapes, and with which operands.
func matchLoop(span []Instr) (byteLoop, bool) {
	addi := func(in Instr, r uint8) bool { return in.Op == OpAddI && uint8(in.Rd) == r && in.Imm == 1 }
	lp := byteLoop{n: len(span), q: noReg, c: noReg}
	ld := span[0]
	if ld.Op != OpLoadB || ld.Imm != 0 || ld.Rd == ld.Rs {
		return lp, false
	}
	lp.x, lp.p = uint8(ld.Rd), uint8(ld.Rs)
	jz := func(i int) bool { return span[i].Op == OpJz }
	cmpi := func(i int) bool {
		lp.k = span[i].Imm
		return span[i].Op == OpCmpI && uint8(span[i].Rd) == lp.x
	}
	switch len(span) {
	case 5: // scan
		lp.kind = loopScan
		return lp, cmpi(1) && jz(2) && addi(span[3], lp.p)
	case 6: // scan with a second counter, the two addis in either order
		lp.kind, lp.q = loopScan, uint8(span[4].Rd)
		if lp.q == lp.p {
			lp.q = uint8(span[3].Rd)
		}
		return lp, cmpi(1) && jz(2) && lp.q != lp.p && lp.q != lp.x &&
			(addi(span[3], lp.p) && addi(span[4], lp.q) || addi(span[3], lp.q) && addi(span[4], lp.p))
	case 7:
		if c := span[1]; c.Op == OpCmp { // char scan
			lp.kind, lp.c = loopCharScan, uint8(c.Rs)
			return lp, uint8(c.Rd) == lp.x && jz(2) && cmpi(3) && jz(4) && addi(span[5], lp.p) &&
				lp.c != lp.p && lp.c != lp.x
		}
		st := span[1] // copy
		lp.kind, lp.q = loopCopy, uint8(st.Rd)
		return lp, st.Op == OpStoreB && st.Imm == 0 && uint8(st.Rs) == lp.x &&
			lp.q != lp.p && lp.q != lp.x && cmpi(2) && jz(3) &&
			(addi(span[4], lp.q) && addi(span[5], lp.p) || addi(span[4], lp.p) && addi(span[5], lp.q))
	}
	return lp, false
}

// runLoop is runFused's opLoop case: it runs as many continuing iterations
// of the loop whose head runFused has reached, at head, as the data, the
// pages and the budget allow. runFused's batch (flags, done, cyc) and the
// body it is in (base) are as fireInPlace gets them. If it runs none it
// changes nothing and reports false. Otherwise it commits registers, flags,
// PC (the head) and every instruction retired since runFused's entry, and
// reports true: runFused returns, and Run steps the head and enters it again.
// On a loop whose probes all take a run in one call (loopProbes) it first
// commits the batch up to the head, so that the probes bound the run on what
// they would read under Step, and always reports true, since the head's own
// probes are Run's to fire. Out of line, so that the block loop's register
// allocation does not see it.
//
//go:noinline
func (m *Machine) runLoop(regs *[NumRegs]uint32, flags int, base, head int, done, cyc, limit uint64) bool {
	id := uint32(m.uops[head] >> 32)
	lp := &m.loops[id]
	pre := done + uint64(head-base)
	cyc += m.desc[base]>>descCycShift - m.desc[head]>>descCycShift
	if int(id) < len(m.loopProbes) && m.loopProbes[id].per != 0 {
		rec := &m.loopProbes[id]
		m.Regs, m.Flags = *regs, flags
		m.commitFused(head, pre, cyc)
		m.runLoopUnder(lp, rec.hooks, (limit-pre)/uint64(lp.n), rec.per*CyclesPerProbe, rec.per)
		return true
	}
	most := (limit - pre) / uint64(lp.n)
	if most == 0 {
		return false
	}
	k, flags := lp.run(m.Mem, regs, most)
	if k == 0 {
		return false
	}
	m.Regs, m.Flags = *regs, flags
	m.commitFused(head, pre+k*uint64(lp.n), cyc+k*lp.cyc)
	m.loopRetired += k * uint64(lp.n)
	return true
}

// loopProbes is a probe overlay's record of a loop whose probes all
// implement LoopHook (rebuildProbeTables): the distinct probes, each of which
// bounds a run and applies it once, and how many deliveries one iteration
// makes (every registration on every index of the span). per is 0 on a loop
// without probes.
type loopProbes struct {
	hooks []LoopHook
	per   uint64
}

// probesOn records in rec, which is empty, the probes on lp's span and
// reports whether every one implements LoopHook; if one does not, rec is
// left empty.
func (m *Machine) probesOn(lp *byteLoop, rec *loopProbes) bool {
	for _, list := range m.probes[lp.head : lp.head+lp.n] {
		for _, p := range list {
			h, ok := p.(LoopHook)
			if !ok {
				clear(rec.hooks)
				rec.hooks, rec.per = rec.hooks[:0], 0
				return false
			}
			if rec.per++; !slices.Contains(rec.hooks, h) {
				rec.hooks = append(rec.hooks, h)
			}
		}
	}
	return true
}

// runLoopHooked is runHooked's opLoop case under loopsHooked: it runs the
// continuing iterations of the loop whose head micro-op is u that the data,
// the pages, room (the instructions runHooked may still retire) and every
// LoopHook's bound allow, commits them with what the hooks would have
// charged — the instruction hook before each instruction, each memory hook
// at each access — lets the hooks apply their effects, and returns the
// instructions it retired. If it runs none it changes nothing.
func (m *Machine) runLoopHooked(u, room uint64) uint64 {
	lp := &m.loops[uint32(u>>32)]
	accesses := uint64(1)
	if lp.kind == loopCopy {
		accesses = 2
	}
	hookCyc := uint64(lp.n)*m.beforeCyc + accesses*uint64(len(m.tools.mem))*CyclesPerHook
	return m.runLoopUnder(lp, m.tools.loop, room/uint64(lp.n), hookCyc, 0) * uint64(lp.n)
}

// runLoopUnder runs, from the machine's committed state, up to most
// continuing iterations of lp that the data, the pages and every hook's
// bound allow, commits them — each iteration charged hookCyc on top of its
// static cost and counted fires times in ProbeFires — lets the hooks apply
// their effects, and returns how many ran. If it runs none it changes
// nothing. The ByteLoop the hooks get is the machine's, so that handing it
// to them allocates nothing.
func (m *Machine) runLoopUnder(lp *byteLoop, hooks []LoopHook, most, hookCyc, fires uint64) uint64 {
	if most == 0 {
		return 0
	}
	l := &m.loopArg
	*l = ByteLoop{Copy: lp.kind == loopCopy, Load: lp.head, X: Reg(lp.x), Src: m.Regs[lp.p]}
	if l.Copy {
		l.Dst = m.Regs[lp.q]
	}
	for _, h := range hooks {
		if most = min(most, h.LoopBound(m, l, most)); most == 0 {
			return 0
		}
	}
	k, flags := lp.run(m.Mem, &m.Regs, most)
	if k == 0 {
		return 0
	}
	n := k * uint64(lp.n)
	m.Flags = flags
	m.instrCount += n
	m.cycles += k * (lp.cyc + hookCyc)
	m.probeFires += k * fires
	m.loopRetired += n
	for _, h := range hooks {
		h.LoopRan(m, l, k)
	}
	return k
}

// run runs up to most continuing iterations of lp from regs over mem, as
// many as the data and the mapped pages allow, and returns how many ran and
// the flags the last one's cmpi left. If any ran, regs hold x, p and q as
// they left them; otherwise nothing changed.
func (lp *byteLoop) run(mem *Memory, regs *[NumRegs]uint32, most uint64) (k uint64, flags int) {
	stop := func(v uint32) int { // the byte value v stops the loop at, or -1
		if v > 0xff {
			return -1
		}
		return int(v)
	}
	var last byte
	switch lp.kind {
	case loopCopy:
		k, last = copyRun(mem, regs[lp.p], regs[lp.q], stop(uint32(lp.k)), most)
	case loopCharScan:
		k, last = scanRun(mem, regs[lp.p], stop(uint32(lp.k)), stop(regs[lp.c]), most)
	default:
		k, last = scanRun(mem, regs[lp.p], stop(uint32(lp.k)), -1, most)
	}
	if k == 0 {
		return 0, 0
	}
	regs[lp.x] = uint32(last)
	regs[lp.p] += uint32(k)
	if lp.q != noReg {
		regs[lp.q] += uint32(k)
	}
	return k, cmp32(int32(last), lp.k)
}

// scanRun counts the bytes from addr on, up to most, that are neither a nor b
// (-1: no such stop), page by page while the pages are mapped, and returns
// the last byte counted.
func scanRun(mem *Memory, addr uint32, a, b int, most uint64) (k uint64, last byte) {
	for k < most {
		if _, ok := mem.ReadU8(addr); !ok {
			break
		}
		run := mem.rtlb.data[addr&(PageSize-1):]
		if rest := most - k; uint64(len(run)) > rest {
			run = run[:rest]
		}
		n := len(run)
		for _, s := range [2]int{a, b} {
			if s >= 0 {
				if i := bytes.IndexByte(run[:n], byte(s)); i >= 0 {
					n = i
				}
			}
		}
		if n > 0 {
			last = run[n-1]
		}
		k += uint64(n)
		addr += uint32(n)
		if n < len(run) {
			break
		}
	}
	return k, last
}

// copyRun copies bytes from src to dst, one at a time and forwards as the
// guest does (so an overlapping copy reads what it has just written), up to
// most, stopping before a byte equal to stop (-1: none), an unmapped source
// or an unmapped destination, and returns the count and the last byte copied.
// The first byte on each pair of pages goes through ReadU8/WriteU8, which do
// the copy-on-write, the dirty set and the TLBs; the rest of the pages' bytes
// are read and written in place, with the dirty runs marked exactly as one
// markRun per byte marks them: per byte while the page has several runs, and
// in one call once it has one (the run the previous byte extended, which each
// further byte extends in turn).
func copyRun(mem *Memory, src, dst uint32, stop int, most uint64) (k uint64, last byte) {
	for k < most {
		b, ok := mem.ReadU8(src)
		if !ok || int(b) == stop || !mem.WriteU8(dst, b) {
			break
		}
		k, last = k+1, b
		// After the write the read TLB holds src's page, the clone if the
		// write broke copy-on-write on that same page.
		sp, dp := mem.rtlb, mem.wtlb
		so, do := src&(PageSize-1)+1, dst&(PageSize-1)+1
		src, dst = src+1, dst+1
		n := uint64(PageSize - max(so, do))
		if rest := most - k; n > rest {
			n = rest
		}
		from := do // the first byte not yet marked
		i := uint32(0)
		for ; uint64(i) < n; i++ {
			b := sp.data[so+i]
			if int(b) == stop {
				break
			}
			dp.data[do+i] = b
			if dp.nruns != 1 {
				dp.markRun(uint16(do+i), uint16(do+i+1))
				from = do + i + 1
			}
			last = b
		}
		if from < do+i {
			dp.markRun(uint16(from), uint16(do+i))
		}
		k += uint64(i)
		src, dst = src+i, dst+i
		if uint64(i) < n {
			break
		}
	}
	return k, last
}
