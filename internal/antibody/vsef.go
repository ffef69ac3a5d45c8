// Package antibody implements Sweeper's two antibody forms — input-signature
// filters and vulnerability-specific execution filters (VSEFs) — plus the
// bundle format in which they are deployed locally and distributed to other
// hosts together with the exploit-triggering input.
package antibody

import (
	"fmt"

	"sweeper/internal/analysis/coredump"
	"sweeper/internal/analysis/membug"
	"sweeper/internal/analysis/taint"
	"sweeper/internal/heap"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// VSEFKind identifies what a VSEF checks.
type VSEFKind string

// VSEF kinds.
const (
	// VSEFReturnGuard keeps a side copy of a specific function's return
	// address and verifies it just before that function returns.
	VSEFReturnGuard VSEFKind = "return-guard"
	// VSEFHeapBounds bounds-checks one specific store instruction against the
	// heap chunk it writes into (optionally only in one calling context).
	VSEFHeapBounds VSEFKind = "heap-bounds"
	// VSEFDoubleFree verifies, at one specific free call site, that the chunk
	// being freed is still allocated.
	VSEFDoubleFree VSEFKind = "double-free-guard"
	// VSEFNullCheck verifies, at one specific load/store, that the pointer is
	// not in the NULL page.
	VSEFNullCheck VSEFKind = "null-check"
	// VSEFFreeGuard verifies heap metadata consistency at one allocation call
	// site (the weak, immediately available guard when only corruption — not
	// the corrupting instruction — is known).
	VSEFFreeGuard VSEFKind = "free-guard"
	// VSEFTaint applies taint propagation and sink checks only at the
	// instructions recorded during analysis.
	VSEFTaint VSEFKind = "taint-guard"
	// VSEFStackStore guards one specific store instruction against writing
	// over the current frame's saved linkage (the refined stack-smash VSEF:
	// it targets the overflow itself rather than the victim's return).
	VSEFStackStore VSEFKind = "stack-store-guard"
)

// VSEF is a vulnerability-specific execution filter. All code locations are
// position independent (instruction indices within the program image), so a
// VSEF generated on one host applies unchanged on hosts with different
// address-space randomisations.
type VSEF struct {
	Kind    VSEFKind `json:"kind"`
	Program string   `json:"program"`
	Name    string   `json:"name"`

	// InstrIdx is the guarded instruction (store, load or call site),
	// depending on Kind.
	InstrIdx int    `json:"instr_idx"`
	InstrSym string `json:"instr_sym,omitempty"`
	// CallerIdx restricts the check to one calling context (-1 = any).
	CallerIdx int `json:"caller_idx"`
	// FuncSym is the protected function for return guards.
	FuncSym string `json:"func_sym,omitempty"`
	// TaintInstrs are the propagation/sink instructions for taint guards.
	TaintInstrs []int  `json:"taint_instrs,omitempty"`
	Note        string `json:"note,omitempty"`
}

// String summarises the VSEF.
func (v *VSEF) String() string {
	switch v.Kind {
	case VSEFReturnGuard:
		return fmt.Sprintf("%s: protect return address of %s", v.Kind, v.FuncSym)
	case VSEFTaint:
		return fmt.Sprintf("%s: %d instrumented instructions", v.Kind, len(v.TaintInstrs))
	default:
		if v.CallerIdx >= 0 {
			return fmt.Sprintf("%s at @%d (%s) when called by @%d", v.Kind, v.InstrIdx, v.InstrSym, v.CallerIdx)
		}
		return fmt.Sprintf("%s at @%d (%s)", v.Kind, v.InstrIdx, v.InstrSym)
	}
}

// InstrumentedInstrs returns how many static instructions the VSEF probes;
// the paper's argument that VSEFs are lightweight rests on this being tiny.
func (v *VSEF) InstrumentedInstrs() int {
	switch v.Kind {
	case VSEFReturnGuard:
		return 2 // entry + return
	case VSEFTaint:
		return len(v.TaintInstrs)
	default:
		return 1
	}
}

// --- constructors from analysis results ---

// FromCoreDump derives the initial VSEF from memory-state analysis. It may
// return nil when the report does not support any guard.
func FromCoreDump(name string, program string, r *coredump.Report) *VSEF {
	v := &VSEF{Program: program, Name: name, CallerIdx: -1}
	switch r.Class {
	case coredump.ClassStackSmash, coredump.ClassControlHijack:
		v.Kind = VSEFReturnGuard
		v.FuncSym = r.FaultSym
		v.Note = "use a side stack for " + r.FaultSym
	case coredump.ClassNullDeref:
		v.Kind = VSEFNullCheck
		v.InstrIdx = r.FaultPC
		v.InstrSym = r.FaultSym
		v.Note = "check for NULL pointer"
	case coredump.ClassDoubleFree:
		v.Kind = VSEFDoubleFree
		v.InstrIdx = r.CallerPC
		v.InstrSym = r.CallerSym
		v.Note = "check for double frees"
	case coredump.ClassHeapOverflow:
		v.Kind = VSEFHeapBounds
		v.InstrIdx = r.FaultPC
		v.InstrSym = r.FaultSym
		v.CallerIdx = r.CallerPC
		v.Note = fmt.Sprintf("heap bounds-check @%d (%s) when called by @%d (%s)", r.FaultPC, r.FaultSym, r.CallerPC, r.CallerSym)
	case coredump.ClassHeapCorruption:
		v.Kind = VSEFFreeGuard
		v.InstrIdx = r.CallerPC
		v.InstrSym = r.CallerSym
		v.Note = "verify heap consistency at this allocation site"
	default:
		return nil
	}
	return v
}

// FromMemBug derives a refined VSEF from a memory-bug detection finding.
func FromMemBug(name string, program string, f *membug.Finding) *VSEF {
	if f == nil {
		return nil
	}
	v := &VSEF{Program: program, Name: name, CallerIdx: -1}
	switch f.Kind {
	case membug.KindStackSmash:
		v.Kind = VSEFStackStore
		v.InstrIdx = f.InstrIdx
		v.InstrSym = f.Sym
		v.FuncSym = f.VictimSym
		v.Note = fmt.Sprintf("@%d (%s) should not overflow stack buffer", f.InstrIdx, f.Sym)
	case membug.KindHeapOverflow, membug.KindDanglingWrite, membug.KindDanglingRead:
		v.Kind = VSEFHeapBounds
		v.InstrIdx = f.InstrIdx
		v.InstrSym = f.Sym
		v.Note = fmt.Sprintf("@%d (%s) should stay within its heap chunk", f.InstrIdx, f.Sym)
	case membug.KindDoubleFree, membug.KindWildFree:
		v.Kind = VSEFDoubleFree
		v.InstrIdx = f.CallerIdx
		v.InstrSym = f.Detail
		v.Note = fmt.Sprintf("@%d should not double-free", f.CallerIdx)
	default:
		return nil
	}
	return v
}

// FromTaint derives a taint-guard VSEF from a taint analysis run: it lists
// the instructions that propagated taint plus the sink.
func FromTaint(name string, program string, t *taint.Tracker) *VSEF {
	if !t.Detected() {
		return nil
	}
	instrs := t.Propagators()
	sink := t.Primary().InstrIdx
	found := false
	for _, i := range instrs {
		if i == sink {
			found = true
			break
		}
	}
	if !found {
		instrs = append(instrs, sink)
	}
	return &VSEF{
		Kind:        VSEFTaint,
		Program:     program,
		Name:        name,
		CallerIdx:   -1,
		InstrIdx:    sink,
		InstrSym:    t.Primary().Sym,
		TaintInstrs: instrs,
		Note:        "taint tracking restricted to the attack's propagation path",
	}
}

// --- applying VSEFs to a running process ---

// Applied is a handle to a VSEF installed on a process; Remove uninstalls it.
type Applied struct {
	p    *proc.Process
	vsef *VSEF
	// probe is the VSEF's one probe instance and sites the instructions it
	// is registered on; tool is the name its violations carry.
	probe vm.Probe
	sites []int
	tool  string
}

// Remove uninstalls what this handle installed and nothing else. The stages
// of one attack's antibody share VSEFs by name (initial ⊂ refined ⊂ final)
// and a stage is replaced by applying its successor first, so at the moment
// of removal a second registration stands under each shared name: the probe
// is removed by identity, from each of its sites.
func (a *Applied) Remove() {
	for _, idx := range a.sites {
		a.p.Machine.RemoveProbe(idx, a.probe)
	}
}

// Apply installs the VSEF on the process as one probe on each of its sites,
// and as nothing else: a taint guard's probe takes the request bytes itself
// (vm.InputHook). The returned handle removes it again.
func (v *VSEF) Apply(p *proc.Process) (*Applied, error) {
	m := p.Machine
	applied := &Applied{p: p, vsef: v, tool: v.Name}
	sites := []int{v.InstrIdx}
	switch v.Kind {
	case VSEFReturnGuard:
		entry, rets, err := functionSites(m, v.FuncSym)
		if err != nil {
			return nil, err
		}
		applied.probe = &returnGuardProbe{name: v.Name, vsef: v}
		sites = append([]int{entry}, rets...)
	case VSEFHeapBounds:
		applied.probe = &heapBoundsProbe{name: v.Name, vsef: v, alloc: p.Alloc}
	case VSEFStackStore:
		applied.probe = &stackStoreProbe{name: v.Name, vsef: v}
	case VSEFDoubleFree:
		applied.probe = &doubleFreeProbe{name: v.Name, vsef: v, alloc: p.Alloc}
	case VSEFFreeGuard:
		applied.probe = &freeGuardProbe{name: v.Name, vsef: v, alloc: p.Alloc}
	case VSEFNullCheck:
		applied.probe = &nullCheckProbe{name: v.Name, vsef: v}
	case VSEFTaint:
		tracker := taint.NewRestricted(v.Name+".tracker", v.TaintInstrs, true)
		applied.probe = &taintProbe{name: v.Name, Tracker: tracker}
		applied.tool = tracker.Name()
		sites = v.TaintInstrs
	default:
		return nil, fmt.Errorf("antibody: unknown VSEF kind %q", v.Kind)
	}
	for _, idx := range sites {
		if err := m.AddProbe(idx, applied.probe); err != nil {
			applied.Remove()
			return nil, err
		}
		applied.sites = append(applied.sites, idx)
	}
	return applied, nil
}

// functionSites finds the entry index and all return instructions of the
// named function in the loaded code.
func functionSites(m *vm.Machine, funcSym string) (entry int, rets []int, err error) {
	prog := m.Program()
	entry, ok := prog.Symbols[funcSym]
	if !ok {
		return 0, nil, fmt.Errorf("antibody: function %q not found", funcSym)
	}
	for idx, in := range m.Code() {
		if in.Sym == funcSym && in.Op == vm.OpRet {
			rets = append(rets, idx)
		}
	}
	if len(rets) == 0 {
		return 0, nil, fmt.Errorf("antibody: function %q has no return instruction", funcSym)
	}
	return entry, rets, nil
}

// --- probe implementations ---

type savedRet struct {
	slot uint32
	val  uint32
}

type returnGuardProbe struct {
	name  string
	vsef  *VSEF
	saved []savedRet
}

func (p *returnGuardProbe) Name() string { return p.name }

// OnRollback drops return addresses saved by the abandoned execution; the
// replay re-enters every guarded function from checkpoint state and saves
// fresh copies. Stale entries could otherwise pair with a replayed return at
// the same stack slot and mis-fire.
func (p *returnGuardProbe) OnRollback(m *vm.Machine) { p.saved = p.saved[:0] }

func (p *returnGuardProbe) OnProbe(m *vm.Machine, idx int, in *vm.Instr) {
	if in.Op != vm.OpRet {
		// Function entry: the caller's return address sits at [SP].
		slot := m.Regs[vm.SP]
		if val, ok := m.Mem.ReadWord(slot); ok {
			p.saved = append(p.saved, savedRet{slot: slot, val: val})
		}
		return
	}
	// Function return: SP points at the return-address slot again.
	slot := m.Regs[vm.SP]
	for len(p.saved) > 0 && p.saved[len(p.saved)-1].slot < slot {
		p.saved = p.saved[:len(p.saved)-1]
	}
	if len(p.saved) == 0 || p.saved[len(p.saved)-1].slot != slot {
		return
	}
	want := p.saved[len(p.saved)-1].val
	p.saved = p.saved[:len(p.saved)-1]
	got, ok := m.Mem.ReadWord(slot)
	if !ok || got != want {
		m.RaiseViolation(&vm.Violation{
			Kind:   vm.ViolationReturnAddress,
			Tool:   p.name,
			Addr:   slot,
			Detail: fmt.Sprintf("return address of %s was overwritten", p.vsef.FuncSym),
		})
	}
}

type heapBoundsProbe struct {
	name  string
	vsef  *VSEF
	alloc *heap.Allocator
}

func (p *heapBoundsProbe) Name() string { return p.name }

func (p *heapBoundsProbe) OnProbe(m *vm.Machine, idx int, in *vm.Instr) {
	if !in.Op.IsStore() && !in.Op.IsLoad() {
		return
	}
	addr, size, _, _ := m.EffectiveAddr(in)
	if !p.alloc.InHeapRegion(addr) {
		return
	}
	if end, allocated, found := p.alloc.ChunkEndAt(probeMoment(m), addr); found && allocated && addr+uint32(size) <= end {
		return
	}
	if p.vsef.CallerIdx >= 0 {
		// Only a violation in the recorded calling context. Checked last: an
		// in-bounds access, the case every benign hit takes, then never
		// touches the stack page.
		if ret, ok := m.Mem.ReadWord(m.Regs[vm.SP]); ok {
			if callIdx, ok := m.IndexOfAddr(ret); !ok || callIdx-1 != p.vsef.CallerIdx {
				return
			}
		}
	}
	m.RaiseViolation(&vm.Violation{
		Kind:   vm.ViolationBoundsCheck,
		Tool:   p.name,
		Addr:   addr,
		Detail: fmt.Sprintf("store at @%d (%s) outside heap chunk bounds", idx, p.vsef.InstrSym),
	})
}

// LoopBound implements vm.LoopHook, by ranges and never byte by byte: a run
// may go on while the guarded access stays inside the allocated chunk it
// starts in (to the chunk's end, looked up once) or outside the heap region
// (up to the region, or to the end of the address space), where OnProbe
// passes whatever the calling context; anywhere else it bounds to 0, and the
// access is checked one iteration at a time, the CallerIdx test included. A
// guard on a copy's load holds the copy's stores to the same ranges, since a
// store elsewhere in the heap could rewrite a header the chunk lookup walks.
// A guard on another instruction of the loop (no load or store) never
// bounds a run.
func (p *heapBoundsProbe) LoopBound(m *vm.Machine, l *vm.ByteLoop, most uint64) uint64 {
	switch {
	case p.vsef.InstrIdx == l.Load:
		if most = p.room(m, l.Src, most); l.Copy {
			most = p.room(m, l.Dst, most)
		}
	case l.Copy && p.vsef.InstrIdx == l.Load+1:
		most = p.room(m, l.Dst, most)
	}
	return most
}

// LoopRan implements vm.LoopHook: a bounded run left nothing to record.
func (p *heapBoundsProbe) LoopRan(m *vm.Machine, l *vm.ByteLoop, k uint64) {}

// room is how many of up to most one-byte accesses from addr on OnProbe
// passes without a look at the calling context (see LoopBound).
func (p *heapBoundsProbe) room(m *vm.Machine, addr uint32, most uint64) uint64 {
	switch base, end := p.alloc.Base(), p.alloc.End(); {
	case addr < base:
		return min(most, uint64(base-addr))
	case addr >= end:
		return min(most, 1<<32-uint64(addr))
	}
	if end, allocated, found := p.alloc.ChunkEndAt(probeMoment(m), addr); found && allocated && addr < end {
		return min(most, uint64(end-addr))
	}
	return 0
}

// probeMoment names the instruction whose probes m is delivering, for
// lookups its probes share: the retired count does not move while they run,
// and neither does the clock net of the CyclesPerProbe each delivery charges.
// The next instruction's probes see a larger count, and a rollback, which
// could repeat one, restores the allocator too.
func probeMoment(m *vm.Machine) heap.Moment {
	return heap.Moment{A: m.InstrCount(), B: m.Cycles() - vm.CyclesPerProbe*m.ProbeFires()}
}

type stackStoreProbe struct {
	name string
	vsef *VSEF
}

func (p *stackStoreProbe) Name() string { return p.name }

func (p *stackStoreProbe) OnProbe(m *vm.Machine, idx int, in *vm.Instr) {
	if !in.Op.IsStore() {
		return
	}
	addr, size, _, _ := m.EffectiveAddr(in)
	layout := m.Layout()
	if addr < layout.StackBase || addr >= layout.StackTop() {
		return
	}
	// The store must stay strictly below the current frame's saved base
	// pointer; reaching BP or above means it is about to clobber the saved
	// frame linkage / return address.
	if addr+uint32(size) > m.Regs[vm.BP] {
		m.RaiseViolation(&vm.Violation{
			Kind:   vm.ViolationStackSmash,
			Tool:   p.name,
			Addr:   addr,
			Detail: fmt.Sprintf("store at @%d (%s) reaches saved frame of %s", idx, p.vsef.InstrSym, p.vsef.FuncSym),
		})
	}
}

type doubleFreeProbe struct {
	name  string
	vsef  *VSEF
	alloc *heap.Allocator
}

func (p *doubleFreeProbe) Name() string { return p.name }

func (p *doubleFreeProbe) OnProbe(m *vm.Machine, idx int, in *vm.Instr) {
	ptr := m.Regs[vm.R1]
	if ptr == 0 || !p.alloc.InHeap(ptr) {
		return
	}
	if c, ok := p.alloc.ChunkContaining(ptr); ok && c.Addr == ptr && !c.Allocated {
		m.RaiseViolation(&vm.Violation{
			Kind:   vm.ViolationDoubleFree,
			Tool:   p.name,
			Addr:   ptr,
			Detail: fmt.Sprintf("free call at @%d frees an already-freed chunk", idx),
		})
	}
}

type freeGuardProbe struct {
	name  string
	vsef  *VSEF
	alloc *heap.Allocator
}

func (p *freeGuardProbe) Name() string { return p.name }

func (p *freeGuardProbe) OnProbe(m *vm.Machine, idx int, in *vm.Instr) {
	if ok, detail, chunk := p.alloc.CheckConsistency(); !ok {
		m.RaiseViolation(&vm.Violation{
			Kind:   vm.ViolationHeapOverflow,
			Tool:   p.name,
			Addr:   chunk.Addr,
			Detail: "heap metadata inconsistent before allocation call: " + detail,
		})
	}
}

type nullCheckProbe struct {
	name string
	vsef *VSEF
}

func (p *nullCheckProbe) Name() string { return p.name }

func (p *nullCheckProbe) OnProbe(m *vm.Machine, idx int, in *vm.Instr) {
	addr, _, _, ok := m.EffectiveAddr(in)
	if !ok {
		return
	}
	if addr < vm.PageSize {
		m.RaiseViolation(&vm.Violation{
			Kind:   vm.ViolationNullDeref,
			Tool:   p.name,
			Addr:   addr,
			Detail: fmt.Sprintf("NULL pointer dereference at @%d (%s)", idx, p.vsef.InstrSym),
		})
	}
}

// taintProbe is a taint guard: a tracker restricted to the guard's
// instructions, which it propagates at. The rest is the tracker's: it taints
// each request's bytes as they arrive (vm.InputHook), takes a byte loop's run
// in one call (vm.LoopHook), and on a rollback it clears its shadow taint
// (vm.RollbackHook), since labels introduced by the abandoned execution
// (often the excised attack request itself) must not survive into the
// replay.
type taintProbe struct {
	name string
	*taint.Tracker
}

func (p *taintProbe) Name() string { return p.name }

func (p *taintProbe) OnProbe(m *vm.Machine, idx int, in *vm.Instr) {
	p.Propagate(m, idx, in)
}
