package vm

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"
)

// RelocKind says what a relocation entry resolves against.
type RelocKind uint8

// Relocation kinds: code relocations patch an instruction immediate with the
// absolute address of another instruction (function pointers); data
// relocations patch it with the absolute address of a data-segment symbol.
const (
	RelocCode RelocKind = iota
	RelocData
)

// Reloc is a load-time relocation: the immediate of Code[InstrIndex] is
// replaced by the loaded absolute address of the target (an instruction index
// for RelocCode, a data-segment offset for RelocData). Relocations are what
// make address-space randomisation meaningful: correctly relocated code keeps
// working wherever it is loaded, while absolute addresses baked into exploit
// payloads do not.
type Reloc struct {
	InstrIndex int
	Kind       RelocKind
	Target     uint32
}

// Program is a loadable guest program image: decoded code, an initial data
// segment, relocations and symbol tables.
type Program struct {
	Name        string
	Code        []Instr
	Data        []byte
	Relocs      []Reloc
	Symbols     map[string]int    // code label -> instruction index
	DataSymbols map[string]uint32 // data label -> offset within Data
	Entry       int               // entry instruction index

	// dataDigest caches the sha256 of Data, keying the program's shared base
	// image in the BaseStore (see basestore.go). Data is immutable once the
	// program is loadable, so a racing double computation is benign. Do not
	// copy a Program by value once it has been loaded.
	dataDigest atomic.Pointer[[sha256.Size]byte]

	// relocMu guards relocImages, the per-layout cache of relocated code and
	// packed micro-ops. Relocation depends only on the layout's code and data
	// bases, so every Machine loaded at the same bases — a guest, its pooled
	// sandbox shells, its analysis and recovery clones — shares one immutable
	// image instead of re-relocating and re-fusing per load (see relocImage).
	relocMu     sync.Mutex
	relocImages map[relocKey]*relocImage
}

// relocKey identifies a relocated image: the only layout inputs relocation
// consumes.
type relocKey struct {
	codeBase, dataBase uint32
}

// relocImage is a relocated view of the program for one pair of code/data
// bases: the patched instruction stream, the block descriptors, and the
// packed, macro-op-fused micro-ops both engines run, with the heads of the
// recognised byte loops marked opLoop (loops.go). All fields are immutable
// once published.
type relocImage struct {
	code  []Instr
	desc  []uint64
	uops  []uint64
	loops []byteLoop
}

// relocImage returns the program's shared relocated image for the given
// layout, building and caching it on first use. Installing an antibody's
// probes, cloning a guest for analysis, or spinning up a pooled shell
// therefore never re-pays the O(code) relocation + fusion cost — the machines
// differ only in their probe overlays and machine state.
func (p *Program) relocImage(layout Layout) (*relocImage, error) {
	key := relocKey{codeBase: layout.CodeBase, dataBase: layout.DataBase}
	p.relocMu.Lock()
	defer p.relocMu.Unlock()
	if img, ok := p.relocImages[key]; ok {
		return img, nil
	}
	code := make([]Instr, len(p.Code))
	copy(code, p.Code)
	for _, r := range p.Relocs {
		if r.InstrIndex < 0 || r.InstrIndex >= len(code) {
			return nil, fmt.Errorf("vm: relocation for out-of-range instruction %d", r.InstrIndex)
		}
		switch r.Kind {
		case RelocCode:
			code[r.InstrIndex].Imm = int32(layout.CodeBase + r.Target*InstrSize)
		case RelocData:
			code[r.InstrIndex].Imm = int32(layout.DataBase + r.Target)
		default:
			return nil, fmt.Errorf("vm: unknown relocation kind %d", r.Kind)
		}
	}
	if err := checkRegs(p.Name, code); err != nil {
		return nil, err
	}
	img := &relocImage{code: code, desc: buildBlocks(code)}
	img.uops = packUops(code, img.desc)
	img.loops = markLoops(code, img.uops)
	if p.relocImages == nil {
		p.relocImages = make(map[relocKey]*relocImage)
	}
	p.relocImages[key] = img
	return img, nil
}

// checkRegs rejects code that names a register outside r0-bp in an operand its
// opcode reads or writes (Effects): the engines index the register file with
// that field, so such code would load and then panic the host mid-run. Fields
// an opcode ignores may hold anything, RegNone included.
func checkRegs(name string, code []Instr) error {
	for i := range code {
		in := &code[i]
		for _, regs := range [2][]Reg{in.Op.Effects().Reads, in.Op.Effects().Writes} {
			for _, r := range regs {
				if in.Reg(r) >= NumRegs {
					return fmt.Errorf("vm: program %q instruction %d (%v) names a register outside r0-bp", name, i, *in)
				}
			}
		}
	}
	return nil
}

// dataHash returns (and caches) the sha256 digest of the initial data
// segment.
func (p *Program) dataHash() [sha256.Size]byte {
	if h := p.dataDigest.Load(); h != nil {
		return *h
	}
	h := sha256.Sum256(p.Data)
	p.dataDigest.Store(&h)
	return h
}

// SymbolFor returns the name of the function containing instruction idx,
// falling back to the instruction's Sym annotation.
func (p *Program) SymbolFor(idx int) string {
	if idx >= 0 && idx < len(p.Code) && p.Code[idx].Sym != "" {
		return p.Code[idx].Sym
	}
	return fmt.Sprintf("@%d", idx)
}

// EntryOf returns the instruction index of a named code symbol.
func (p *Program) EntryOf(label string) (int, bool) {
	idx, ok := p.Symbols[label]
	return idx, ok
}

// Layout fixes where the program's segments land in the guest address space.
// The monitor package produces randomised layouts (address-space
// randomisation); DefaultLayout is the fixed layout an attacker would assume.
type Layout struct {
	CodeBase  uint32
	DataBase  uint32
	HeapBase  uint32
	HeapSize  uint32
	StackBase uint32 // lowest address of the stack region
	StackSize uint32
}

// StackTop returns the initial stack pointer (the stack grows down).
func (l Layout) StackTop() uint32 { return l.StackBase + l.StackSize }

// DefaultLayout is the layout used when address-space randomisation is
// disabled. Exploit payloads hard-code addresses computed against this layout,
// exactly as real exploits hard-code addresses of a known binary build.
func DefaultLayout() Layout {
	return Layout{
		CodeBase:  0x08048000,
		DataBase:  0x08100000,
		HeapBase:  0x08200000,
		HeapSize:  1 << 20,
		StackBase: 0xbff00000,
		StackSize: 1 << 16,
	}
}

// SegmentSpan is the address range Validate reserves for each of the code and
// data segments, a Layout being validated before any program is known: a
// conservative bound on their loaded size, which NewMachine enforces.
const SegmentSpan = 256 << 10

// Validate checks that the layout's regions are non-overlapping (code and
// data at SegmentSpan, heap and stack at full size), page aligned and avoid
// the NULL page.
func (l Layout) Validate() error {
	type region struct {
		name       string
		base, size uint32
	}
	regions := []region{
		{"code", l.CodeBase, SegmentSpan},
		{"data", l.DataBase, SegmentSpan},
		{"heap", l.HeapBase, l.HeapSize},
		{"stack", l.StackBase, l.StackSize},
	}
	for i, r := range regions {
		if r.base == 0 {
			return fmt.Errorf("layout: %s region at NULL page", r.name)
		}
		if r.base%PageSize != 0 {
			return fmt.Errorf("layout: %s base %#x not page aligned", r.name, r.base)
		}
		if r.base < PageSize {
			return fmt.Errorf("layout: %s region overlaps NULL page", r.name)
		}
		for _, o := range regions[:i] {
			if uint64(r.base) < uint64(o.base)+uint64(o.size) && uint64(o.base) < uint64(r.base)+uint64(r.size) {
				return fmt.Errorf("layout: %s region at %#x overlaps %s region at %#x", r.name, r.base, o.name, o.base)
			}
		}
	}
	if l.HeapSize == 0 || l.StackSize == 0 {
		return fmt.Errorf("layout: heap and stack must have non-zero size")
	}
	return nil
}
