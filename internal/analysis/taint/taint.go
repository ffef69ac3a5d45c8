// Package taint implements dynamic taint analysis in the style of
// TaintCheck: bytes received from the network are tainted with the request
// and offset they came from, taint propagates through data movement and
// arithmetic, and uses of tainted data in sensitive places (return addresses,
// indirect branch targets, arguments to free) are flagged. The tracker also
// attributes hardware faults whose operands are tainted, which is how the
// exploit input is identified for signature generation.
package taint

import (
	"fmt"
	"math/bits"

	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// Label identifies the origin of a tainted byte: a request and an offset
// within its payload.
type Label struct {
	RequestID int
	Offset    int
}

// String formats the label.
func (l Label) String() string { return fmt.Sprintf("req#%d+%d", l.RequestID, l.Offset) }

// Finding is one detected misuse of tainted data (or a fault attributable to
// tainted data).
type Finding struct {
	Kind     vm.ViolationKind
	InstrIdx int
	Sym      string
	Label    Label
	Detail   string
}

// Summary returns a one-line description of the finding.
func (f Finding) Summary() string {
	return fmt.Sprintf("%s at @%d (%s), data from %s", f.Kind, f.InstrIdx, f.Sym, f.Label)
}

// The 32-bit guest address space has 2^(32-PageShift) pages, split evenly
// between the shadow table's two levels.
const (
	pageLeafBits = (32 - vm.PageShift) / 2
	pageDirBits  = 32 - vm.PageShift - pageLeafBits
)

type regTaint struct {
	tainted bool
	label   Label
}

// taintPage is the page-granular shadow of guest memory taint: a presence
// bitmap plus per-byte labels in lazily-allocated 64-byte lines (each bitmap
// word covers exactly one line), so a sparsely tainted page costs one line
// (1 KiB of labels), not a full page's worth.
type taintPage struct {
	set   [vm.PageSize / 64]uint64
	lines [vm.PageSize / 64]*[64]Label
	n     int // set bits, feeding Tracker.tainted
}

func (tp *taintPage) get(off uint32) (Label, bool) {
	if tp.set[off/64]&(1<<(off%64)) == 0 {
		return Label{}, false
	}
	return tp.lines[off/64][off%64], true
}

// anySet reports whether any byte of [off, off+n) is tainted, a bitmap word
// at a time.
func (tp *taintPage) anySet(off, n uint32) bool {
	for end := off + n; off < end; {
		b := off % 64
		span := min(64-b, end-off)
		if tp.set[off/64]&(^uint64(0)>>(64-span)<<b) != 0 {
			return true
		}
		off += span
	}
	return false
}

func (tp *taintPage) put(off uint32, lbl Label) {
	li := off / 64
	if tp.lines[li] == nil {
		tp.lines[li] = new([64]Label)
	}
	if tp.set[li]&(1<<(off%64)) == 0 {
		tp.set[li] |= 1 << (off % 64)
		tp.n++
	}
	tp.lines[li][off%64] = lbl
}

func (tp *taintPage) clear(off uint32) {
	if tp.set[off/64]&(1<<(off%64)) != 0 {
		tp.set[off/64] &^= 1 << (off % 64)
		tp.n--
	}
}

// putRun labels the byte run [off, off+n) with consecutive labels starting at
// {requestID, dataOff} — the same run-based capture the guest memory's
// sub-page dirty tracking uses. The presence bitmap is set a word at a time
// (with a popcount for the newly-set count) instead of bit by bit, so bulk
// input labeling costs one mask per 64 bytes plus the unavoidable per-byte
// label stores.
func (tp *taintPage) putRun(off uint32, n, requestID, dataOff int) {
	for i := 0; i < n; {
		a := off + uint32(i)
		li, bo := a/64, a%64
		run := int(64 - bo)
		if rem := n - i; run > rem {
			run = rem
		}
		if tp.lines[li] == nil {
			tp.lines[li] = new([64]Label)
		}
		mask := ^uint64(0)
		if run < 64 {
			mask = ((1 << run) - 1) << bo
		}
		tp.n += run - bits.OnesCount64(tp.set[li]&mask)
		tp.set[li] |= mask
		line := tp.lines[li]
		for j := 0; j < run; j++ {
			line[int(bo)+j] = Label{RequestID: requestID, Offset: dataOff + i + j}
		}
		i += run
	}
}

// Tracker is the taint-analysis tool. Attach it with vm.Machine.AttachTool
// before replaying from a checkpoint. A Tracker can also be restricted to a
// fixed set of instructions, which is how taint-based VSEFs are applied with
// low overhead.
type Tracker struct {
	name        string
	stopOnFirst bool

	// mem is a two-level table from page number to shadow page (pageDirBits
	// of the page number select a lazily-allocated leaf): two dependent loads
	// per lookup on the per-hit path of a taint VSEF, no hashing, and nothing
	// to keep coherent when a copy loop alternates between a source and a
	// destination page.
	mem     [1 << pageDirBits]*[1 << pageLeafBits]*taintPage
	tainted int // total tainted bytes across all pages
	regs    [vm.NumRegs]regTaint

	// restrict, when non-nil, limits propagation and sink checks to the
	// listed static instructions (taint VSEF mode).
	restrict map[int]bool

	propagators []uint64 // bitset over static instruction indexes
	findings    []Finding
}

// New returns a full taint tracker.
func New(stopOnFirst bool) *Tracker {
	return &Tracker{
		name:        "analysis.taint",
		stopOnFirst: stopOnFirst,
	}
}

// NewRestricted returns a tracker that only instruments the given static
// instructions (the propagation and sink sites recorded in a taint VSEF).
func NewRestricted(name string, instrs []int, stopOnFirst bool) *Tracker {
	t := New(stopOnFirst)
	t.name = name
	t.restrict = make(map[int]bool, len(instrs))
	for _, i := range instrs {
		t.restrict[i] = true
	}
	return t
}

// Name implements vm.Tool.
func (t *Tracker) Name() string { return t.name }

// Findings returns all findings recorded so far.
func (t *Tracker) Findings() []Finding { return t.findings }

// Detected reports whether any misuse of tainted data was found.
func (t *Tracker) Detected() bool { return len(t.findings) > 0 }

// Primary returns the first finding, or nil.
func (t *Tracker) Primary() *Finding {
	if len(t.findings) == 0 {
		return nil
	}
	return &t.findings[0]
}

// ResponsibleRequest returns the request implicated by the first finding.
func (t *Tracker) ResponsibleRequest() (int, bool) {
	if len(t.findings) == 0 {
		return 0, false
	}
	return t.findings[0].Label.RequestID, true
}

// Propagators returns the sorted static instruction indices that moved
// tainted data during the analysed execution; together with the sink they
// form the taint-based VSEF.
func (t *Tracker) Propagators() []int {
	var out []int
	for w, word := range t.propagators {
		for ; word != 0; word &= word - 1 {
			out = append(out, w*64+bits.TrailingZeros64(word))
		}
	}
	return out
}

// TaintedBytes returns how many guest memory bytes are currently tainted.
func (t *Tracker) TaintedBytes() int { return t.tainted }

// Shadow returns the label of every tainted guest byte, by address.
func (t *Tracker) Shadow() map[uint32]Label {
	out := make(map[uint32]Label, t.tainted)
	for d, leaf := range t.mem {
		if leaf == nil {
			continue
		}
		for l, tp := range leaf {
			if tp == nil || tp.n == 0 {
				continue
			}
			base := uint32(d<<pageLeafBits|l) << vm.PageShift
			for w, word := range tp.set {
				for ; word != 0; word &= word - 1 {
					off := uint32(w*64 + bits.TrailingZeros64(word))
					out[base+off] = tp.lines[w][off%64]
				}
			}
		}
	}
	return out
}

// ResetShadow drops all shadow taint (memory labels and register taint)
// while keeping recorded findings and propagators. The instrumented process
// calls it when it rolls back to a checkpoint: everything currently tainted
// was tainted by an execution that no longer exists, and replayed requests
// re-introduce their taint through OnInput.
func (t *Tracker) ResetShadow() {
	clear(t.mem[:])
	t.tainted = 0
	t.regs = [vm.NumRegs]regTaint{}
}

// OnRollback implements vm.RollbackHook for trackers attached as tools
// (always-on taint analysis).
func (t *Tracker) OnRollback(m *vm.Machine) { t.ResetShadow() }

func (t *Tracker) record(m *vm.Machine, f Finding) {
	t.findings = append(t.findings, f)
	if t.stopOnFirst {
		m.RaiseViolation(&vm.Violation{
			Kind:   f.Kind,
			Tool:   t.name,
			PC:     f.InstrIdx,
			PCAddr: m.AddrOfIndex(f.InstrIdx),
			Sym:    f.Sym,
			Detail: f.Detail,
		})
	}
}

// --- taint sources ---

// OnInput implements vm.InputHook: bytes copied from a request are tainted
// with their request ID and payload offset. Labeling walks whole page runs —
// one shadow-page lookup per page, bitmap words set via putRun — mirroring
// the bulk recv copy that delivered the bytes.
func (t *Tracker) OnInput(m *vm.Machine, addr uint32, data []byte, requestID int) {
	for i := 0; i < len(data); {
		tp := t.shadowPage(addr >> vm.PageShift)
		off := addr & (vm.PageSize - 1)
		run := int(vm.PageSize - off)
		if rem := len(data) - i; run > rem {
			run = rem
		}
		before := tp.n
		tp.putRun(off, run, requestID, i)
		t.tainted += tp.n - before
		i += run
		addr += uint32(run)
	}
}

// --- propagation ---

// BeforeInstr implements vm.InstrHook: it propagates taint for the
// instruction about to execute and checks taint sinks.
func (t *Tracker) BeforeInstr(m *vm.Machine, idx int, in *vm.Instr) {
	if t.restrict != nil && !t.restrict[idx] {
		return
	}
	t.Propagate(m, idx, in)
}

// ObservedOps implements vm.OpObserver: the opcodes Propagate has a rule
// for. At the rest (compares, immediate arithmetic, direct branches, nop,
// halt) an instruction neither moves data between a register and memory nor
// reaches a sink, so the tracker is not called there.
func (t *Tracker) ObservedOps() vm.OpSet { return observedOps }

// rule is what Propagate does at an opcode: its policy, which operand's
// taint moves where. The memory an instruction reads or writes is its
// opcode's vm.Effects, through EffectiveAddr.
type rule uint8

const (
	ruleNone     rule = iota
	ruleConstReg      // movi: the destination register is clean
	ruleConstMem      // pushi, call: the pushed slot is clean
	ruleCopy          // mov, lea: the destination takes the source's taint
	ruleLoad          // loadb, loadw, pop: the register takes the bytes' taint
	ruleStore         // storeb, storew: the bytes take the register's taint
	ruleALU           // reg-reg arithmetic: a clean destination takes the source's taint
	rulePush          // push: the slot takes the register's taint
	ruleIndirect      // callr, jmpr: sink, the target register; callr's pushed slot is clean
	ruleRet           // ret: sink, the return address
	ruleSyscall       // syscall: sink, the argument of free
)

// rules is the one definition of which opcodes the tracker acts on:
// Propagate switches on it and ObservedOps is its domain, so the two cannot
// drift apart.
var rules = [256]rule{
	vm.OpMovI: ruleConstReg, vm.OpPushI: ruleConstMem, vm.OpCall: ruleConstMem,
	vm.OpMov: ruleCopy, vm.OpLea: ruleCopy,
	vm.OpLoadB: ruleLoad, vm.OpLoadW: ruleLoad, vm.OpPop: ruleLoad,
	vm.OpStoreB: ruleStore, vm.OpStoreW: ruleStore,
	vm.OpAdd: ruleALU, vm.OpSub: ruleALU, vm.OpMul: ruleALU, vm.OpDiv: ruleALU, vm.OpMod: ruleALU,
	vm.OpAnd: ruleALU, vm.OpOr: ruleALU, vm.OpXor: ruleALU, vm.OpShl: ruleALU, vm.OpShr: ruleALU,
	vm.OpPush: rulePush, vm.OpCallReg: ruleIndirect, vm.OpJmpReg: ruleIndirect,
	vm.OpRet: ruleRet, vm.OpSyscall: ruleSyscall,
}

var observedOps = func() vm.OpSet {
	var s vm.OpSet
	for op, r := range rules {
		if r != ruleNone {
			s |= 1 << op
		}
	}
	return s
}()

// Propagate performs taint propagation and sink checking for one instruction.
// It is exported so that taint-VSEF probes can reuse the exact semantics of
// the full tool at selected instructions.
func (t *Tracker) Propagate(m *vm.Machine, idx int, in *vm.Instr) {
	addr, size, _, _ := m.EffectiveAddr(in)
	switch rules[in.Op] {
	case ruleConstReg:
		t.setReg(in.Rd, regTaint{})

	case ruleConstMem:
		t.clearMem(addr, size)

	case ruleCopy:
		t.copyRegTaint(idx, in.Rd, in.Rs)

	case ruleLoad:
		if lbl, ok := t.memTaint(addr, size); ok {
			t.setReg(in.Rd, regTaint{tainted: true, label: lbl})
			t.markPropagator(idx)
		} else {
			t.setReg(in.Rd, regTaint{})
		}

	case ruleStore:
		if rt := t.regs[in.Rs]; rt.tainted {
			t.taintMem(addr, size, rt.label)
			t.markPropagator(idx)
		} else {
			t.clearMem(addr, size)
		}

	case ruleALU:
		if t.regs[in.Rd].tainted {
			// keep destination taint
		} else if rt := t.regs[in.Rs]; rt.tainted {
			t.setReg(in.Rd, regTaint{tainted: true, label: rt.label})
			t.markPropagator(idx)
		}

	case rulePush:
		if rt := t.regs[in.Rd]; rt.tainted {
			t.taintMem(addr, size, rt.label)
			t.markPropagator(idx)
		} else {
			t.clearMem(addr, size)
		}

	case ruleIndirect:
		t.clearMem(addr, size)
		if rt := t.regs[in.Rd]; rt.tainted {
			t.record(m, Finding{
				Kind:     vm.ViolationTaintedControl,
				InstrIdx: idx,
				Sym:      m.SymbolAt(idx),
				Label:    rt.label,
				Detail:   fmt.Sprintf("indirect branch target derived from %s", rt.label),
			})
		}

	case ruleRet:
		if lbl, ok := t.memTaint(addr, size); ok {
			t.record(m, Finding{
				Kind:     vm.ViolationTaintedControl,
				InstrIdx: idx,
				Sym:      m.SymbolAt(idx),
				Label:    lbl,
				Detail:   fmt.Sprintf("return address derived from %s", lbl),
			})
		}

	case ruleSyscall:
		if m.Regs[vm.R0] == proc.SysFree {
			if rt := t.regs[vm.R1]; rt.tainted {
				t.record(m, Finding{
					Kind:     vm.ViolationTaintedFree,
					InstrIdx: idx,
					Sym:      m.SymbolAt(idx),
					Label:    rt.label,
					Detail:   fmt.Sprintf("free() argument derived from %s", rt.label),
				})
			}
		}
	}
}

// LoopBound implements vm.LoopHook. A byte loop's iterations reach no sink,
// so the full tracker never bounds a run. A restricted one (a taint guard's
// probe) bounds it only when its set holds the loop's loadb and, in a copy,
// its storeb too, and otherwise returns 0: LoopRan applies both, and a
// storeb propagates only what its iteration's loadb read, so FromTaint never
// lists one without the other.
func (t *Tracker) LoopBound(m *vm.Machine, l *vm.ByteLoop, most uint64) uint64 {
	if t.restrict != nil && (!t.restrict[l.Load] || l.Copy && !t.restrict[l.Load+1]) {
		return 0
	}
	return most
}

// LoopRan implements vm.LoopHook, for a full tracker and a restricted one
// alike: what the loop's loadb, and a copy's storeb, would have propagated
// over k iterations. A copy copies or clears labels forwards one byte at a
// time, so an overlapping copy reads labels it has just written, as it reads
// the bytes; x takes the taint of the last byte read; the loadb (and the
// storeb) become propagators if any byte read was tainted. It goes a run of
// pages at a time, and a run whose pages hold no taint costs a lookup:
// nothing is read tainted and nothing needs clearing.
func (t *Tracker) LoopRan(m *vm.Machine, l *vm.ByteLoop, k uint64) {
	var last regTaint
	moved := false
	for src, dst := l.Src, l.Dst; k > 0; {
		so, do := src&(vm.PageSize-1), dst&(vm.PageSize-1)
		run := min(k, uint64(vm.PageSize-so))
		sp, dp := t.page(src>>vm.PageShift), (*taintPage)(nil)
		if l.Copy {
			run = min(run, uint64(vm.PageSize-do))
			dp = t.page(dst >> vm.PageShift)
		}
		n := uint32(run)
		switch {
		case (sp == nil || sp.n == 0) && (dp == nil || dp.n == 0):
			last = regTaint{}
		case !l.Copy:
			moved = moved || sp.anySet(so, n)
			lbl, ok := sp.get(so + n - 1)
			last = regTaint{tainted: ok, label: lbl}
		default:
			// A tainted byte needs a destination page; when the two pages
			// are one, t.page gave both the same one.
			for i := uint32(0); i < n; i++ {
				var lbl Label
				ok := false
				if sp != nil {
					lbl, ok = sp.get(so + i)
				}
				last = regTaint{tainted: ok, label: lbl}
				switch {
				case ok:
					moved = true
					if dp == nil {
						dp = t.shadowPage(dst >> vm.PageShift)
					}
					before := dp.n
					dp.put(do+i, lbl)
					t.tainted += dp.n - before
				case dp != nil:
					before := dp.n
					dp.clear(do + i)
					t.tainted += dp.n - before
				}
			}
		}
		src, dst, k = src+n, dst+n, k-run
	}
	t.setReg(l.X, last)
	if moved {
		t.markPropagator(l.Load)
		if l.Copy {
			t.markPropagator(l.Load + 1)
		}
	}
}

// OnFault implements vm.FaultHook: when the machine faults, attribute the
// fault to tainted operands of the faulting instruction if possible (e.g. a
// page fault on a store whose value came from the attack request). This is
// what lets taint analysis name the exploit request even when the attack does
// not hijack control flow.
func (t *Tracker) OnFault(m *vm.Machine, f *vm.Fault) {
	in := m.InstrAt(f.PC)
	var lbl Label
	var tainted bool
	switch in.Op {
	case vm.OpStoreB, vm.OpStoreW:
		if rt := t.regs[in.Rs]; rt.tainted {
			lbl, tainted = rt.label, true
		} else if rt := t.regs[in.Rd]; rt.tainted {
			lbl, tainted = rt.label, true
		} else if l, ok := t.memTaint(f.Addr-16, 16); ok {
			// The faulting store itself may carry an untainted byte (e.g. a
			// literal '%' in an escaping loop); if the run of bytes written
			// just before the fault is tainted, the copy as a whole is
			// attacker controlled.
			lbl, tainted = l, true
		}
	case vm.OpLoadB, vm.OpLoadW:
		if rt := t.regs[in.Rs]; rt.tainted {
			lbl, tainted = rt.label, true
		}
	case vm.OpRet:
		// The engines pop the slot before they check the return address: on
		// a bad-PC fault SP is already past it, on a failed read it is not.
		addr, size, _, _ := m.EffectiveAddr(&in)
		if f.Kind == vm.FaultBadPC {
			addr -= uint32(size)
		}
		if l, ok := t.memTaint(addr, size); ok {
			lbl, tainted = l, true
		}
	case vm.OpJmpReg, vm.OpCallReg:
		if rt := t.regs[in.Rd]; rt.tainted {
			lbl, tainted = rt.label, true
		}
	case vm.OpSyscall:
		if rt := t.regs[vm.R1]; rt.tainted {
			lbl, tainted = rt.label, true
		}
	}
	if !tainted {
		return
	}
	t.findings = append(t.findings, Finding{
		Kind:     vm.ViolationPolicy,
		InstrIdx: f.PC,
		Sym:      f.Sym,
		Label:    lbl,
		Detail:   fmt.Sprintf("fault (%s) with operands derived from %s", f.Kind, lbl),
	})
}

// --- shadow state helpers ---

func (t *Tracker) setReg(r vm.Reg, rt regTaint) {
	if int(r) < len(t.regs) {
		t.regs[r] = rt
	}
}

func (t *Tracker) copyRegTaint(idx int, dst, src vm.Reg) {
	rt := t.regs[src]
	t.setReg(dst, rt)
	if rt.tainted {
		t.markPropagator(idx)
	}
}

// markPropagator records that static instruction idx moved tainted data.
func (t *Tracker) markPropagator(idx int) {
	w := idx >> 6
	if w >= len(t.propagators) {
		t.propagators = append(t.propagators, make([]uint64, w+1-len(t.propagators))...)
	}
	t.propagators[w] |= 1 << (uint(idx) & 63)
}

// page returns the shadow page for page number pn, or nil if none exists.
func (t *Tracker) page(pn uint32) *taintPage {
	if leaf := t.mem[pn>>pageLeafBits]; leaf != nil {
		return leaf[pn&(1<<pageLeafBits-1)]
	}
	return nil
}

// shadowPage returns (creating if needed) the shadow page for page number pn.
// Pages are kept once created, even when their last tainted byte is cleared:
// a request buffer is tainted and scrubbed once per request, and dropping the
// page each time would re-allocate its label lines on every request.
func (t *Tracker) shadowPage(pn uint32) *taintPage {
	leaf := t.mem[pn>>pageLeafBits]
	if leaf == nil {
		leaf = new([1 << pageLeafBits]*taintPage)
		t.mem[pn>>pageLeafBits] = leaf
	}
	tp := leaf[pn&(1<<pageLeafBits-1)]
	if tp == nil {
		tp = &taintPage{}
		leaf[pn&(1<<pageLeafBits-1)] = tp
	}
	return tp
}

func (t *Tracker) memTaint(addr uint32, size int) (Label, bool) {
	for i := 0; i < size; i++ {
		a := addr + uint32(i)
		if tp := t.page(a >> vm.PageShift); tp != nil {
			if lbl, ok := tp.get(a & (vm.PageSize - 1)); ok {
				return lbl, true
			}
		}
	}
	return Label{}, false
}

func (t *Tracker) taintMem(addr uint32, size int, lbl Label) {
	for i := 0; i < size; i++ {
		a := addr + uint32(i)
		tp := t.shadowPage(a >> vm.PageShift)
		before := tp.n
		tp.put(a&(vm.PageSize-1), lbl)
		t.tainted += tp.n - before
	}
}

func (t *Tracker) clearMem(addr uint32, size int) {
	for i := 0; i < size; i++ {
		a := addr + uint32(i)
		tp := t.page(a >> vm.PageShift)
		if tp == nil {
			continue
		}
		before := tp.n
		tp.clear(a & (vm.PageSize - 1))
		t.tainted += tp.n - before
	}
}
