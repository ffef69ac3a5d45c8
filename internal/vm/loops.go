package vm

import (
	"bytes"
	"slices"
)

// Loop kernels: one step per recognised byte loop, in either engine.
//
// Two thirds of a long squid request's instructions are three libc byte
// loops — a NUL scan (strlen, strcat's find-end), a character scan (strchr)
// and a copy-until-NUL (strcpy, strcat's copy) — and an engine pays a
// dispatch per instruction of each iteration. Recognised once per relocated
// image by their micro-op shape (never by symbol), such a loop's head carries
// the synthetic opLoop, and both engines hand it to runKernel, which runs as
// many whole iterations as the data, the mapped pages, the budget and what
// watches the loop allow in native code and commits them as if they had been
// executed one instruction at a time. The shapes, generic over registers (x,
// p, q, c) and the compare immediate K, with every jz's target free:
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
// whole are the engines': after the kernel the head's own micro-op runs, so
// every stop, fault and budget split is reported by the code that reports it
// without kernels.
//
// Under hooks. What watches a loop is every attached instruction and memory
// tool and every probe on the loop's span (loopWatch, built with the probe
// overlay in rebuildOverlay whenever tools or probes change). The kernel runs
// only if each of them takes a run in one call (LoopHook); otherwise the
// overlay gives the head its own micro-op back and the loop runs one
// instruction at a time. The analysis tools (the taint tracker, the
// memory-bug detector and the slicer) and an antibody's heap-bounds and
// taint-guard probes implement it. Before a run each LoopHook bounds it,
// after it each applies it once, and every iteration is charged what the
// per-instruction path would have charged:
//
//	n·len(instr)·CyclesPerHook + accesses·len(mem)·CyclesPerHook + per·CyclesPerProbe
//
// on top of its static cost, for a span of n instructions, one access (a
// scan) or two (a copy), and per probe deliveries, which also count in
// ProbeFires. The head's own probes fire when the head then runs: runHooked
// fires them after the kernel, and runFused, whose kernel run at a probed
// head always hands the head back, leaves them to Run's step.
//
// The kernels spell what loadb, storeb, cmp, cmpi, addi and jz do a third
// time, beside the two engines' dispatch switches (and the reference's).
// That is accepted because it is narrow — one operand shape per loop,
// continuing iterations only; the leaving iteration, a fault and a budget
// split stay the engines' — and guarded: the VM differentials compare it
// with the reference at every stop, and FuzzLoopKernels aims at its edges
// (pages, copy-on-write, overlapping copies, probes, budgets and tool sets).

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

// markLoops finds the image's loops and marks their heads in uops, in place.
// A head is a loadb, which no fused pair has as its second half, so no
// pair's first half reads its operands from a head.
func markLoops(code []Instr, uops []uint64) []byteLoop {
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

// loopWatch is what watches one loop's kernel on a machine (see the header):
// the LoopHooks that bound and apply a run — the instruction and memory
// tools', then the distinct probes on the span —, what one iteration costs
// with their charges, and how many probe deliveries it makes. armed is
// whether all of them take a run in one call.
type loopWatch struct {
	hooks []LoopHook
	cyc   uint64
	fires uint64
	armed bool
}

// watch records in m.watches[id] what watches loop id under the machine's
// current tools and probes.
func (m *Machine) watch(id int) {
	lp, w := &m.loops[id], &m.watches[id]
	accesses := uint64(1)
	if lp.kind == loopCopy {
		accesses = 2
	}
	clear(w.hooks)
	*w = loopWatch{
		hooks: append(w.hooks[:0], m.tools.loop...),
		cyc:   lp.cyc + (uint64(lp.n)*uint64(len(m.tools.instr))+accesses*uint64(len(m.tools.mem)))*CyclesPerHook,
		armed: !slices.Contains(m.tools.loop, nil),
	}
	tools := len(w.hooks)
	for _, list := range m.probes[lp.head : lp.head+lp.n] {
		for _, p := range list {
			h, ok := p.(LoopHook)
			w.armed = w.armed && ok
			w.cyc += CyclesPerProbe
			if w.fires++; ok && !slices.Contains(w.hooks[tools:], h) {
				w.hooks = append(w.hooks, h)
			}
		}
	}
}

// runKernel is every kernel run, in either engine: from the machine's
// committed state, PC on the head of loop id, it runs the continuing
// iterations that the data, the pages, room (the instructions the engine may
// still retire) and every LoopHook's bound allow, commits them with the
// charges of the header, lets each hook apply them, and returns the
// instructions it retired. If it runs none it changes nothing; it runs none
// on a record that a tool or probe change made stale in the middle of an
// entry. The ByteLoop the hooks get is the machine's, so that handing it to
// them allocates nothing.
func (m *Machine) runKernel(id uint32, room uint64) uint64 {
	lp, w := &m.loops[id], &m.watches[id]
	most := room / uint64(lp.n)
	if most == 0 || m.overlayDirty {
		return 0
	}
	l := &m.loopArg
	*l = ByteLoop{Copy: lp.kind == loopCopy, Load: lp.head, N: lp.n, X: Reg(lp.x), Src: m.Regs[lp.p]}
	if l.Copy {
		l.Dst = m.Regs[lp.q]
	}
	for _, h := range w.hooks {
		if most = min(most, h.LoopBound(m, l, most)); most == 0 {
			return 0
		}
	}
	k := lp.run(m, most)
	if k == 0 {
		return 0
	}
	n := k * uint64(lp.n)
	m.instrCount += n
	m.cycles += k * w.cyc
	m.probeFires += k * w.fires
	m.loopRetired += n
	for _, h := range w.hooks {
		h.LoopRan(m, l, k)
	}
	return n
}

// runLoop is runFused's opLoop case: it commits the loop's registers, flags
// and batch up to the head, as fireInPlace does, and runs the kernel there.
// If the kernel ran iterations, or the head carries probes, it reports true:
// runFused returns, and Run steps the head (firing its probes) and enters
// again after it. Otherwise it takes the batch back and reports false, and
// the head's own micro-op runs in the block loop. Out of line, so that the
// block loop's register allocation does not see it.
//
//go:noinline
func (m *Machine) runLoop(regs *[NumRegs]uint32, flags int, base, head int, done, cyc, limit uint64) bool {
	done += uint64(head - base)
	cyc += m.desc[base]>>descCycShift - m.desc[head]>>descCycShift
	m.Regs, m.Flags = *regs, flags
	m.commitFused(head, done, cyc)
	if m.runKernel(uint32(m.uops[head]>>32), limit-done) > 0 || len(m.probes[head]) > 0 {
		return true
	}
	m.instrCount -= done
	m.cycles -= cyc
	return false
}

// run runs up to most continuing iterations of lp on m, as many as the data
// and the mapped pages allow, and returns how many ran. If any ran, x, p, q
// and Flags are as the last one left them; otherwise nothing changed.
func (lp *byteLoop) run(m *Machine, most uint64) (k uint64) {
	stop := func(v uint32) int { // the byte value v stops the loop at, or -1
		if v > 0xff {
			return -1
		}
		return int(v)
	}
	regs := &m.Regs
	var last byte
	switch lp.kind {
	case loopCopy:
		k, last = copyRun(m.Mem, regs[lp.p], regs[lp.q], stop(uint32(lp.k)), most)
	case loopCharScan:
		k, last = scanRun(m.Mem, regs[lp.p], stop(uint32(lp.k)), stop(regs[lp.c]), most)
	default:
		k, last = scanRun(m.Mem, regs[lp.p], stop(uint32(lp.k)), -1, most)
	}
	if k == 0 {
		return 0
	}
	regs[lp.x] = uint32(last)
	regs[lp.p] += uint32(k)
	if lp.q != noReg {
		regs[lp.q] += uint32(k)
	}
	m.Flags = cmp32(int32(last), lp.k)
	return k
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
