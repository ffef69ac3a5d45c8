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
	p *proc.Process
	// probe is the VSEF's one probe instance and sites the instructions it
	// is registered on.
	probe vm.Probe
	sites []int
	// extraTools lists full tools (not probes) attached for this VSEF.
	extraTools []string
}

// Remove uninstalls what this handle installed and nothing else. The stages
// of one attack's antibody share VSEFs by name (initial ⊂ refined ⊂ final)
// and a stage is replaced by applying its successor first, so at the moment
// of removal a second registration stands under each shared name: probes are
// removed by identity, and a tool by name, which detaches the oldest holder
// of the name — this handle's.
func (a *Applied) Remove() {
	for _, idx := range a.sites {
		a.p.Machine.RemoveProbe(idx, a.probe)
	}
	for _, t := range a.extraTools {
		a.p.Machine.DetachTool(t)
	}
}

// Apply installs the VSEF on the process as targeted probes (plus, for taint
// guards, a lightweight input hook). The returned handle removes it again.
func (v *VSEF) Apply(p *proc.Process) (*Applied, error) {
	m := p.Machine
	applied := &Applied{p: p}
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
		applied.probe = &taintProbe{name: v.Name, tracker: tracker}
		sites = v.TaintInstrs
		src := &taintSource{name: v.Name + ".source", tracker: tracker}
		m.AttachTool(src)
		applied.extraTools = append(applied.extraTools, src.Name())
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
	addr, size, _, ok := m.EffectiveAddr(in)
	if !ok {
		return
	}
	if !p.alloc.InHeapRegion(addr) {
		return
	}
	c, found := p.alloc.ChunkContaining(addr)
	if found && c.Allocated && addr+uint32(size) <= c.End() {
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

type stackStoreProbe struct {
	name string
	vsef *VSEF
}

func (p *stackStoreProbe) Name() string { return p.name }

func (p *stackStoreProbe) OnProbe(m *vm.Machine, idx int, in *vm.Instr) {
	if !in.Op.IsStore() {
		return
	}
	addr, size, _, ok := m.EffectiveAddr(in)
	if !ok {
		return
	}
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

type taintProbe struct {
	name    string
	tracker *taint.Tracker
}

func (p *taintProbe) Name() string { return p.name }

func (p *taintProbe) OnProbe(m *vm.Machine, idx int, in *vm.Instr) {
	p.tracker.Propagate(m, idx, in)
}

// OnRollback clears the tracker's shadow taint: labels introduced by the
// abandoned execution (often the excised attack request itself) must not
// survive into the replay.
func (p *taintProbe) OnRollback(m *vm.Machine) { p.tracker.ResetShadow() }

// taintSource feeds request bytes into a restricted tracker; it implements
// only the input hook, so it adds no per-instruction cost.
type taintSource struct {
	name    string
	tracker *taint.Tracker
}

func (s *taintSource) Name() string { return s.name }

func (s *taintSource) OnInput(m *vm.Machine, addr uint32, data []byte, requestID int) {
	s.tracker.OnInput(m, addr, data, requestID)
}
