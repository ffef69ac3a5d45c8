// Package membug implements Sweeper's dynamic memory-bug detection: a
// heavyweight instrumentation tool attached during replay from a checkpoint.
// It detects stack smashing (writes to live return-address slots), heap
// buffer overflows and dangling accesses (using the allocator's inline
// metadata as red zones), and double frees, attributing each to the exact
// instruction responsible — the information a refined VSEF needs.
package membug

import (
	"fmt"

	"sweeper/internal/heap"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// Kind classifies a memory-bug finding.
type Kind uint8

// Finding kinds.
const (
	KindStackSmash Kind = iota
	KindHeapOverflow
	KindDoubleFree
	KindDanglingWrite
	KindDanglingRead
	KindWildFree
)

var kindNames = [...]string{
	KindStackSmash:    "stack smashing",
	KindHeapOverflow:  "heap buffer overflow",
	KindDoubleFree:    "double free",
	KindDanglingWrite: "dangling pointer write",
	KindDanglingRead:  "dangling pointer read",
	KindWildFree:      "free of non-heap pointer",
}

// String returns the kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("membug?%d", uint8(k))
}

// Finding is one detected memory bug.
type Finding struct {
	Kind     Kind
	InstrIdx int    // instruction performing the bad access / bad free syscall
	Sym      string // its enclosing function
	Addr     uint32 // the accessed or freed address
	// ChunkAddr is the payload address of the heap chunk involved (the
	// overflowed buffer, or the doubly freed chunk), when known.
	ChunkAddr uint32
	// VictimSym is, for stack smashing, the function whose return address was
	// overwritten.
	VictimSym string
	// CallerIdx is, for free-related findings, the call-site instruction
	// index (the paper's "0x808d7ac (dirswitch) should not double-free");
	// -1 for every other kind.
	CallerIdx int
	Detail    string
}

// Summary returns a one-line description suitable for Table 2.
func (f Finding) Summary() string {
	switch f.Kind {
	case KindStackSmash:
		return fmt.Sprintf("%s by @%d (%s): overwrites return address of %s", f.Kind, f.InstrIdx, f.Sym, f.VictimSym)
	case KindDoubleFree:
		return fmt.Sprintf("%s by @%d (%s) of chunk %#x", f.Kind, f.CallerIdx, f.Detail, f.ChunkAddr)
	default:
		return fmt.Sprintf("%s at @%d (%s) addr=%#x", f.Kind, f.InstrIdx, f.Sym, f.Addr)
	}
}

type frame struct {
	retSlot uint32
	retAddr uint32
	funcIdx int
	funcSym string
}

type chunkInfo struct {
	addr uint32
	size uint32
}

// Detector is the memory-bug detection tool. Attach it to a machine with
// vm.Machine.AttachTool before replaying from a checkpoint.
type Detector struct {
	alloc       *heap.Allocator
	stopOnFirst bool

	frames   []frame
	live     []chunkInfo
	freed    []chunkInfo
	findings []Finding
}

// New creates a detector for the given process. Pre-existing live buffers are
// inferred from the heap image at attach time ("buffers allocated prior to
// the checkpoint are inferred from the memory image at the checkpoint").
// When stopOnFirst is true the detector raises a violation at the first
// finding, which also prevents the offending access from executing.
func New(p *proc.Process, stopOnFirst bool) *Detector {
	d := &Detector{alloc: p.Alloc, stopOnFirst: stopOnFirst}
	for _, c := range p.Alloc.Walk() {
		if c.Corrupt {
			continue
		}
		ci := chunkInfo{addr: c.Addr, size: c.Size}
		if c.Allocated {
			d.live = append(d.live, ci)
		} else {
			d.freed = append(d.freed, ci)
		}
	}
	return d
}

// Name implements vm.Tool.
func (d *Detector) Name() string { return "analysis.membug" }

// Findings returns all findings recorded so far.
func (d *Detector) Findings() []Finding { return d.findings }

// Primary returns the first finding, or nil.
func (d *Detector) Primary() *Finding {
	if len(d.findings) == 0 {
		return nil
	}
	return &d.findings[0]
}

func (d *Detector) record(m *vm.Machine, f Finding, vkind vm.ViolationKind) {
	d.findings = append(d.findings, f)
	if d.stopOnFirst {
		m.RaiseViolation(&vm.Violation{
			Kind:   vkind,
			Tool:   d.Name(),
			PC:     f.InstrIdx,
			PCAddr: m.AddrOfIndex(f.InstrIdx),
			Sym:    f.Sym,
			Addr:   f.Addr,
			Detail: f.Detail,
		})
	}
}

// --- call tracking (vm.CallHook) ---

// OnCall implements vm.CallHook: it records the live return-address slot.
func (d *Detector) OnCall(m *vm.Machine, idx, targetIdx int, retAddr, retSlot uint32) {
	d.frames = append(d.frames, frame{
		retSlot: retSlot,
		retAddr: retAddr,
		funcIdx: targetIdx,
		funcSym: m.SymbolAt(targetIdx),
	})
}

// OnRet implements vm.CallHook: it retires frames as the stack unwinds.
func (d *Detector) OnRet(m *vm.Machine, idx int, retAddr, retSlot uint32) {
	for len(d.frames) > 0 && d.frames[len(d.frames)-1].retSlot < retSlot {
		d.frames = d.frames[:len(d.frames)-1]
	}
	if len(d.frames) > 0 && d.frames[len(d.frames)-1].retSlot == retSlot {
		d.frames = d.frames[:len(d.frames)-1]
	}
}

// --- memory tracking (vm.MemHook) ---

// OnMemWrite implements vm.MemHook: it checks stores against live
// return-address slots and against heap chunk bounds.
func (d *Detector) OnMemWrite(m *vm.Machine, idx int, addr uint32, size int, val uint32) {
	// Stack smashing: a store into any live return-address slot that is not
	// the call instruction's own push.
	for i := len(d.frames) - 1; i >= 0; i-- {
		fr := d.frames[i]
		if addr+uint32(size) > fr.retSlot && addr < fr.retSlot+4 {
			d.record(m, Finding{
				Kind:      KindStackSmash,
				InstrIdx:  idx,
				Sym:       m.SymbolAt(idx),
				Addr:      addr,
				VictimSym: d.victimFor(m, fr),
				CallerIdx: -1,
				Detail:    fmt.Sprintf("store overwrites return address of %s", d.victimFor(m, fr)),
			}, vm.ViolationStackSmash)
			return
		}
	}
	d.checkHeapAccess(m, idx, addr, size, true)
}

// OnMemRead implements vm.MemHook: it checks loads from freed heap chunks.
func (d *Detector) OnMemRead(m *vm.Machine, idx int, addr uint32, size int, val uint32) {
	d.checkHeapAccess(m, idx, addr, size, false)
}

// LoopBound implements vm.LoopHook, by ranges: a loop's reads from Src, and
// a copy's writes to Dst, may run to the end of the live chunk that holds
// them, or, outside the heap region, up to the region when they start below
// it and to the end of the address space when they start above it (the data
// segment sits either side of the heap under a randomised layout); writes
// also stop before the next tracked return slot. Anywhere else in the heap
// the detector declines, and the engine steps the iteration under OnMemRead
// and OnMemWrite.
func (d *Detector) LoopBound(m *vm.Machine, l *vm.ByteLoop, most uint64) uint64 {
	most = min(most, d.room(l.Src))
	if !l.Copy || most == 0 {
		return most
	}
	most = min(most, d.room(l.Dst))
	for _, fr := range d.frames {
		switch {
		case l.Dst >= fr.retSlot+4: // a slot below the run
		case l.Dst >= fr.retSlot:
			return 0
		default:
			most = min(most, uint64(fr.retSlot-l.Dst))
		}
	}
	return most
}

// room is how many bytes from addr on a byte loop may access without the
// heap check recording anything: to the end of the live chunk holding addr,
// or, outside the heap region, up to the region or the end of the address
// space; 0 anywhere else.
func (d *Detector) room(addr uint32) uint64 {
	switch {
	case addr < d.alloc.Base():
		return uint64(d.alloc.Base() - addr)
	case addr >= d.alloc.End():
		return 1<<32 - uint64(addr)
	}
	for _, c := range d.live {
		if addr >= c.addr && addr-c.addr < c.size {
			return uint64(c.size - (addr - c.addr))
		}
	}
	return 0
}

// LoopRan implements vm.LoopHook: a run the detector bounded records
// nothing, and it keeps no other shadow of memory.
func (d *Detector) LoopRan(m *vm.Machine, l *vm.ByteLoop, k uint64) {}

// victimFor names the function whose return address lives in the frame: the
// slot was pushed by the call *into* that function.
func (d *Detector) victimFor(m *vm.Machine, fr frame) string { return fr.funcSym }

func (d *Detector) checkHeapAccess(m *vm.Machine, idx int, addr uint32, size int, isWrite bool) {
	if !d.alloc.InHeapRegion(addr) {
		return
	}
	// Within a live chunk's payload: fine.
	for _, c := range d.live {
		if addr >= c.addr && addr+uint32(size) <= c.addr+c.size {
			return
		}
	}
	// Within a freed chunk's payload: dangling access.
	for _, c := range d.freed {
		if addr >= c.addr && addr+uint32(size) <= c.addr+c.size {
			kind := KindDanglingRead
			vkind := vm.ViolationDanglingPointer
			if isWrite {
				kind = KindDanglingWrite
			}
			d.record(m, Finding{
				Kind:      kind,
				InstrIdx:  idx,
				Sym:       m.SymbolAt(idx),
				Addr:      addr,
				ChunkAddr: c.addr,
				CallerIdx: -1,
				Detail:    "access to freed heap chunk",
			}, vkind)
			return
		}
	}
	if !isWrite {
		// Reads of headers/red zones are what allocators themselves do; only
		// writes outside any payload are treated as overflows.
		return
	}
	// A write inside the heap but outside every payload hits metadata or
	// unallocated space: a heap overflow. Attribute it to the live chunk that
	// ends closest below the address (the buffer being overflowed).
	overflowed := uint32(0)
	var best uint32
	for _, c := range d.live {
		end := c.addr + c.size
		if end <= addr && (overflowed == 0 || end > best) {
			overflowed = c.addr
			best = end
		}
	}
	d.record(m, Finding{
		Kind:      KindHeapOverflow,
		InstrIdx:  idx,
		Sym:       m.SymbolAt(idx),
		Addr:      addr,
		ChunkAddr: overflowed,
		CallerIdx: -1,
		Detail:    "store outside any live heap chunk",
	}, vm.ViolationHeapOverflow)
}

// --- allocation tracking (vm.AllocHook) ---

// OnMalloc implements vm.AllocHook.
func (d *Detector) OnMalloc(m *vm.Machine, idx int, addr uint32, size uint32) {
	if addr == 0 {
		return
	}
	for i, c := range d.freed {
		if c.addr == addr {
			d.freed = append(d.freed[:i], d.freed[i+1:]...)
			break
		}
	}
	d.live = append(d.live, chunkInfo{addr: addr, size: size})
}

// OnFree implements vm.AllocHook: it detects double and wild frees.
func (d *Detector) OnFree(m *vm.Machine, idx int, addr uint32) {
	if addr == 0 {
		return
	}
	caller := callSite(m)
	for i, c := range d.live {
		if c.addr == addr {
			d.live = append(d.live[:i], d.live[i+1:]...)
			d.freed = append(d.freed, c)
			return
		}
	}
	for _, c := range d.freed {
		if c.addr == addr {
			d.record(m, Finding{
				Kind:      KindDoubleFree,
				InstrIdx:  idx,
				Sym:       m.SymbolAt(idx),
				Addr:      addr,
				ChunkAddr: c.addr,
				CallerIdx: caller,
				Detail:    fmt.Sprintf("double free called from %s", m.SymbolAt(caller)),
			}, vm.ViolationDoubleFree)
			return
		}
	}
	d.record(m, Finding{
		Kind:      KindWildFree,
		InstrIdx:  idx,
		Sym:       m.SymbolAt(idx),
		Addr:      addr,
		CallerIdx: caller,
		Detail:    "free of pointer that is not a live chunk",
	}, vm.ViolationDoubleFree)
}

// callSite recovers the instruction index of the call into the current leaf
// routine (the free wrapper) from the word at the top of the stack.
func callSite(m *vm.Machine) int {
	val, ok := m.Mem.ReadWord(m.Regs[vm.SP])
	if !ok {
		return -1
	}
	idx, ok := m.IndexOfAddr(val)
	if !ok || idx == 0 {
		return -1
	}
	return idx - 1
}
