package vm_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sweeper/internal/analysis/membug"
	"sweeper/internal/analysis/slicing"
	"sweeper/internal/analysis/taint"
	"sweeper/internal/apps"
	"sweeper/internal/asm"
	"sweeper/internal/core"
	"sweeper/internal/exploit"
	"sweeper/internal/heap"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// loopRegion is where loopTrial maps its strings: the default layout's heap,
// which nothing maps on a bare machine.
const (
	loopRegion = 0x08200000
	loopPages  = 6
)

// loopShadow is the test tool of loopTrial's tooled trials: a memory hook
// counting the reads and writes of each address, and the accesses that touch
// one of its fences (what the tool "records"). As a vm.LoopHook it bounds a
// run before the first fence either pointer would reach, by binary search,
// and applies a run's counts in one call.
type loopShadow struct {
	fences        []uint32 // sorted
	reads, writes map[uint32]int
	hits          int
}

func newLoopShadow(fences []uint32) *loopShadow {
	return &loopShadow{fences: fences, reads: map[uint32]int{}, writes: map[uint32]int{}}
}

func (s *loopShadow) Name() string { return "t.shadow" }
func (s *loopShadow) OnMemRead(m *vm.Machine, idx int, addr uint32, size int, val uint32) {
	s.saw(s.reads, addr, size)
}
func (s *loopShadow) OnMemWrite(m *vm.Machine, idx int, addr uint32, size int, val uint32) {
	s.saw(s.writes, addr, size)
}

func (s *loopShadow) saw(counts map[uint32]int, addr uint32, size int) {
	for a := addr; a != addr+uint32(size); a++ {
		counts[a]++
		if _, fenced := slices.BinarySearch(s.fences, a); fenced {
			s.hits++
		}
	}
}

// room is how many bytes from addr on lie before the next fence.
func (s *loopShadow) room(addr uint32) uint64 {
	if i, _ := slices.BinarySearch(s.fences, addr); i < len(s.fences) {
		return uint64(s.fences[i] - addr)
	}
	return 1<<32 - uint64(addr)
}

func (s *loopShadow) LoopBound(m *vm.Machine, l *vm.ByteLoop, most uint64) uint64 {
	if most = min(most, s.room(l.Src)); l.Copy {
		most = min(most, s.room(l.Dst))
	}
	return most
}

func (s *loopShadow) LoopRan(m *vm.Machine, l *vm.ByteLoop, k uint64) {
	for i := uint32(0); uint64(i) < k; i++ {
		s.reads[l.Src+i]++
		if l.Copy {
			s.writes[l.Dst+i]++
		}
	}
}

// loopShadowInstr is loopShadow with an instruction hook too, observing
// loadb and storeb (the reference calls it everywhere; it counts those
// alone), that counts its calls per index.
type loopShadowInstr struct {
	*loopShadow
	calls map[int]int
}

func (s loopShadowInstr) ObservedOps() vm.OpSet { return 1<<vm.OpLoadB | 1<<vm.OpStoreB }
func (s loopShadowInstr) BeforeInstr(m *vm.Machine, idx int, in *vm.Instr) {
	if s.ObservedOps().Has(in.Op) {
		s.calls[idx]++
	}
}

func (s loopShadowInstr) LoopRan(m *vm.Machine, l *vm.ByteLoop, k uint64) {
	s.loopShadow.LoopRan(m, l, k)
	s.calls[l.Load] += int(k)
	if l.Copy {
		s.calls[l.Load+1] += int(k)
	}
}

// The per-instruction twins: vm.LoopHook hidden by fields that shadow it.
type noLoopShadow struct {
	*loopShadow
	LoopBound, LoopRan struct{}
}

type noLoopShadowInstr struct {
	loopShadowInstr
	LoopBound, LoopRan struct{}
}

// loopProbe is the test probe of loopTrial's probed trials. Registered on
// indexes of the trial's loops (spans), it counts its fires per index and,
// in a loopShadow, the bytes read and written at those of its indexes that
// are a loadb or a storeb, and raises a violation at its raiseOn-th access to
// a fence (0: never). As a vm.LoopHook it bounds a run before the first fence
// one of its accesses would reach — and, with cut set, now and then shorter
// or to 0 — and applies a run's counts in one call. The reference runs it
// per instruction, which never asks for a bound.
type loopProbe struct {
	*loopShadow
	spans   [][2]int
	idxs    map[int]bool
	fires   map[int]int
	raiseOn int
	cut     *rand.Rand
}

func (p *loopProbe) Name() string { return "t.loop" }

func (p *loopProbe) OnProbe(m *vm.Machine, idx int, in *vm.Instr) {
	p.fires[idx]++
	addr, counts := m.Regs[in.Rs]+uint32(in.Imm), p.reads
	switch in.Op {
	case vm.OpLoadB:
	case vm.OpStoreB:
		addr, counts = m.Regs[in.Rd]+uint32(in.Imm), p.writes
	default:
		return
	}
	hits := p.hits
	if p.saw(counts, addr, 1); p.hits > hits && p.hits == p.raiseOn {
		m.RaiseViolation(&vm.Violation{Kind: vm.ViolationPolicy, Tool: p.Name(), Addr: addr, Detail: "fence"})
	}
}

func (p *loopProbe) LoopBound(m *vm.Machine, l *vm.ByteLoop, most uint64) uint64 {
	if p.idxs[l.Load] {
		most = min(most, p.room(l.Src))
	}
	if l.Copy && p.idxs[l.Load+1] {
		most = min(most, p.room(l.Dst))
	}
	switch p.cut.Intn(5) {
	case 0:
		return 0
	case 1:
		return min(most, uint64(1+p.cut.Intn(4)))
	}
	return most
}

func (p *loopProbe) LoopRan(m *vm.Machine, l *vm.ByteLoop, k uint64) {
	for _, s := range p.spans {
		if s[0] != l.Load {
			continue
		}
		for idx := s[0]; idx < s[1]; idx++ {
			if p.idxs[idx] {
				p.fires[idx] += int(k)
			}
		}
	}
	for i := uint32(0); uint64(i) < k; i++ {
		if p.idxs[l.Load] {
			p.reads[l.Src+i]++
		}
		if l.Copy && p.idxs[l.Load+1] {
			p.writes[l.Dst+i]++
		}
	}
}

// loopTools attaches one of loopTrial's tool sets to fast as is and to slow
// (run on the reference) as per-instruction twins, and returns what compares
// the two sides' tools at a stop. Kinds: the shadow as a memory hook, the
// shadow with an instruction hook, the taint tracker over random input
// runs, the memory-bug detector over a heap (its chunks made on a scratch
// memory, so the guest's bytes stay the string image) with return slots
// inside it, the slicer (now and then with a MaxNodes small enough to cut
// the recording short, inside a run or not), and the tracker beside a tool
// without the interface, where no kernel may run. Two more are probe sets: a loopProbe on random indexes of
// some of the loops (spans), and a loopProbe on every loop beside a probe
// without the interface, where again no kernel may run.
//
// Fences, input runs and return slots go anywhere in the loop region, or
// near one of ptrs, the addresses the loops start from. alloc is the
// memory-bug detector's heap (loopHeap).
func loopTools(t *testing.T, r *rand.Rand, kind string, ptrs []uint32, spans [][2]int, alloc *heap.Allocator, fast, slow *vm.Machine) func(label string) {
	t.Helper()
	region := func() uint32 {
		switch r.Intn(4) {
		case 0:
			return ptrs[r.Intn(len(ptrs))] + uint32(r.Intn(8)) - 4
		case 1:
			return ptrs[r.Intn(len(ptrs))] + uint32(r.Intn(40)) - 4
		}
		return uint32(loopRegion + r.Intn(loopPages*vm.PageSize))
	}
	var fences []uint32
	for i := r.Intn(10); i > 0; i-- {
		fences = append(fences, region())
	}
	slices.Sort(fences)
	diffShadow := func(label string, f, s *loopShadow) {
		if !maps.Equal(f.reads, s.reads) || !maps.Equal(f.writes, s.writes) || f.hits != s.hits {
			t.Errorf("%s: shadow fast %d read, %d written, %d hits; slow %d, %d, %d",
				label, len(f.reads), len(f.writes), f.hits, len(s.reads), len(s.writes), s.hits)
		}
	}
	shadowInstr := func() func(label string) {
		f := loopShadowInstr{newLoopShadow(fences), map[int]int{}}
		s := loopShadowInstr{newLoopShadow(fences), map[int]int{}}
		fast.AttachTool(f)
		slow.AttachTool(noLoopShadowInstr{loopShadowInstr: s})
		return func(label string) {
			diffShadow(label, f.loopShadow, s.loopShadow)
			if !maps.Equal(f.calls, s.calls) {
				t.Errorf("%s: instruction hook calls fast=%v slow=%v", label, f.calls, s.calls)
			}
		}
	}
	tracker := func() func(label string) {
		f, s := taint.New(false), taint.New(false)
		for i := r.Intn(6); i > 0; i-- {
			addr, data, id := region(), make([]byte, 1+r.Intn(400)), r.Intn(4)
			f.OnInput(fast, addr, data, id)
			s.OnInput(slow, addr, data, id)
		}
		fast.AttachTool(f)
		slow.AttachTool(noLoopTaint{Tracker: s})
		return func(label string) {
			diffSeq(t, label+" findings", f.Findings(), s.Findings())
			diffSeq(t, label+" propagators", f.Propagators(), s.Propagators())
			if f.TaintedBytes() != s.TaintedBytes() {
				t.Errorf("%s: tainted bytes fast=%d slow=%d", label, f.TaintedBytes(), s.TaintedBytes())
			}
		}
	}
	probes := func(withPlain bool) func(label string) {
		idxs := map[int]bool{}
		var plain []int
		for _, sp := range spans {
			if !withPlain && r.Intn(3) == 0 {
				continue
			}
			idxs[sp[0]+r.Intn(sp[1]-sp[0])] = true
			idxs[sp[0]] = idxs[sp[0]] || r.Intn(2) == 0
			idxs[sp[0]+1] = idxs[sp[0]+1] || r.Intn(2) == 0
			plain = append(plain, sp[0]+r.Intn(sp[1]-sp[0]))
		}
		raiseOn := r.Intn(4)
		newProbe := func(cut *rand.Rand) *loopProbe {
			return &loopProbe{newLoopShadow(fences), spans, idxs, map[int]int{}, raiseOn, cut}
		}
		f, s := newProbe(rand.New(rand.NewSource(r.Int63()))), newProbe(nil)
		var fastLog, slowLog []probeHit
		for _, side := range []struct {
			m   *vm.Machine
			p   *loopProbe
			log *[]probeHit
		}{{fast, f, &fastLog}, {slow, s, &slowLog}} {
			for idx, on := range idxs {
				if on {
					if err := side.m.AddProbe(idx, side.p); err != nil {
						t.Fatal(err)
					}
				}
			}
			if withPlain {
				for _, idx := range plain {
					if err := side.m.AddProbe(idx, stateProbe{"t.plain", side.log, new(int), 0}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return func(label string) {
			diffShadow(label, f.loopShadow, s.loopShadow)
			if !maps.Equal(f.fires, s.fires) {
				t.Errorf("%s: loop probe fires fast=%v slow=%v", label, f.fires, s.fires)
			}
			diffSeq(t, label+" plain probe", fastLog, slowLog)
		}
	}
	// noKernel fails a stop at which kernels have retired anything since
	// the tools were attached beside one without vm.LoopHook.
	noKernel := func(diff func(string), beside string) func(label string) {
		k0 := fast.LoopRetired()
		return func(label string) {
			diff(label)
			if n := fast.LoopRetired() - k0; n != 0 {
				t.Errorf("%s: kernels retired %d instructions beside a %s without vm.LoopHook", label, n, beside)
			}
		}
	}
	both := func(a, b func(string)) func(label string) { return func(label string) { a(label); b(label) } }
	switch kind {
	case "shadow":
		f, s := newLoopShadow(fences), newLoopShadow(fences)
		fast.AttachTool(f)
		slow.AttachTool(noLoopShadow{loopShadow: s})
		return func(label string) { diffShadow(label, f, s) }
	case "shadow+instr":
		return shadowInstr()
	case "shadow+instr+taint":
		return both(shadowInstr(), tracker())
	case "taint":
		return tracker()
	case "taint+plain":
		diff := tracker()
		fast.AttachTool(noLoopShadow{loopShadow: newLoopShadow(nil)})
		slow.AttachTool(noLoopShadow{loopShadow: newLoopShadow(nil)})
		return noKernel(diff, "tool")
	case "taint+probe":
		return both(tracker(), probes(false))
	case "probe":
		return probes(false)
	case "probe+plain":
		return noKernel(probes(true), "probe")
	case "membug":
		p := &proc.Process{Alloc: alloc}
		f, s := membug.New(p, true), membug.New(p, true)
		for i := r.Intn(6); i > 0; i-- {
			slot := region()
			f.OnCall(fast, 0, 0, 0, slot)
			s.OnCall(slow, 0, 0, 0, slot)
		}
		fast.AttachTool(f)
		slow.AttachTool(noLoopMembug{Detector: s})
		return func(label string) { diffSeq(t, label+" findings", f.Findings(), s.Findings()) }
	case "slicer":
		opts := slicing.Options{IncludeControlDeps: r.Intn(2) == 0}
		if r.Intn(4) == 0 {
			opts.MaxNodes = 1 + r.Intn(4000)
		}
		f, s := slicing.New(opts), slicing.New(opts)
		fast.AttachTool(f)
		slow.AttachTool(noLoopSlicer{Slicer: s})
		// The focused check looks for loop indexes, and for one index no
		// guest here reaches.
		var focus []int
		for _, sp := range spans {
			focus = append(focus, sp[0]+r.Intn(sp[1]-sp[0]))
		}
		focus = append(focus, 1<<20)
		return func(label string) {
			n := f.NodeCount()
			diffSlicers(t, label+" slicer", f, s, focus, r.Intn(n+1), r.Intn(n+1))
			idx := focus[r.Intn(len(focus))]
			if fs, ss := f.LastSeqOf(idx), s.LastSeqOf(idx); fs != ss {
				t.Errorf("%s: slicer LastSeqOf(%d) fast=%d slow=%d", label, idx, fs, ss)
			}
		}
	}
	return func(string) {}
}

// loopToolKinds are loopTools' kinds.
var loopToolKinds = []string{"shadow", "shadow+instr", "taint", "taint+plain", "membug", "probe", "probe+plain",
	"taint+probe", "shadow+instr+taint", "slicer"}

// loopHeap is the memory-bug detector's heap in a loop trial: pages 1-4 of
// the loop region (page 0 lies below it, page 5 above), its chunks made on a
// scratch memory so that the guest's bytes stay the string image, a third of
// them freed. It returns the allocator and a function giving the places a
// loop pointer is worth starting just below: the region's ends and each
// chunk's payload end, as often as each other.
func loopHeap(t *testing.T, r *rand.Rand) (*heap.Allocator, func() uint32) {
	alloc := heap.New(vm.NewMemory(), loopRegion+vm.PageSize, 4*vm.PageSize)
	for i := 0; i < 24; i++ {
		c, err := alloc.Malloc(uint32(1 + r.Intn(700)))
		if err != nil {
			break
		}
		if r.Intn(3) == 0 {
			if err := alloc.Free(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	chunks := alloc.Walk()
	return alloc, func() uint32 {
		if r.Intn(2) == 0 {
			return []uint32{alloc.Base(), alloc.End()}[r.Intn(2)]
		}
		c := chunks[r.Intn(len(chunks))]
		return c.Addr + c.Size
	}
}

// loopTrial builds a guest of random byte loops — NUL and K scans, character
// scans and copies, now and then one instruction off the recognised shape —
// over a random string image with unmapped holes, frozen (copy-on-write)
// pages and pointers near page ends, and runs it on Run and on the reference
// in Run calls of random length, with probes on random loop indexes coming
// and going. With tools set it attaches that tool set (loopTools): Run takes
// the loops as kernels under it, and the reference calls its per-instruction
// twin. Every stop compares StopInfo, registers, flags, PC, InstrCount,
// Cycles, ProbeFires, the probe log, the tools' shadows and every mapped
// byte; some stops take a snapshot on both sides and compare what it
// captured. It returns the instructions the fast side's kernels retired.
func loopTrial(t *testing.T, seed int64, tools string) uint64 {
	// A second generator for the tools, so that a trial without them is
	// the one its seed made before there were any.
	tr := rand.New(rand.NewSource(seed ^ 0x7001))
	var alloc *heap.Allocator
	var edge func() uint32
	if tools == "membug" {
		alloc, edge = loopHeap(t, tr)
	}
	r := rand.New(rand.NewSource(seed))
	regs := []vm.Reg{vm.R0, vm.R1, vm.R2, vm.R3, vm.R4, vm.R5, vm.R6, vm.R7}
	mapped := make([]bool, loopPages)
	for i := range mapped {
		mapped[i] = r.Intn(7) > 0
	}
	addr := func() int32 {
		if edge != nil && tr.Intn(2) == 0 {
			return int32(edge() - uint32(tr.Intn(24)))
		}
		off := r.Intn(vm.PageSize)
		if r.Intn(2) == 0 {
			off = vm.PageSize - 1 - r.Intn(24)
		}
		return int32(loopRegion + r.Intn(loopPages)*vm.PageSize + off)
	}
	stopByte := func() int32 {
		switch r.Intn(10) {
		case 0:
			return int32(r.Intn(256))
		case 1:
			return []int32{-1, 256, 0x161}[r.Intn(3)] // no byte equals it
		}
		return 0
	}
	var spans [][2]int
	var ptrs []uint32
	build := func(b *asm.Builder) {
		b.Func("main")
		for l := 0; l < 1+r.Intn(4); l++ {
			perm := r.Perm(len(regs))
			x, p, q, c := regs[perm[0]], regs[perm[1]], regs[perm[2]], regs[perm[3]]
			// off bends one instruction out of shape (a register, an
			// offset, a step): the loop is then not recognised and runs as
			// before.
			off := func(i int) int32 {
				if r.Intn(40) == 0 {
					return int32(i)
				}
				return 0
			}
			src := addr()
			b.MovI(p, src)
			ptrs = append(ptrs, uint32(src))
			b.MovI(x, int32(r.Uint32()))
			k := stopByte()
			head, exit := fmt.Sprintf("l%d", l), fmt.Sprintf("l%d.exit", l)
			kind := r.Intn(4)
			switch kind {
			case 1:
				b.MovI(c, []int32{int32(r.Intn(256)), '/', 0x1ff}[r.Intn(3)])
			case 2:
				dst := addr()
				switch r.Intn(4) {
				case 0: // overlapping, either way
					dst = src + int32(r.Intn(13)) - 6
				case 1: // no page at all: the code segment
					dst = int32(vm.DefaultLayout().CodeBase)
				}
				b.MovI(q, dst)
				ptrs = append(ptrs, uint32(dst))
			default:
				b.MovI(q, int32(r.Intn(100)))
			}
			from := b.Len()
			b.Label(head)
			b.LoadB(x, p, off(1))
			switch kind {
			case 1:
				b.Cmp(x, c)
				b.Jz(exit)
				b.CmpI(x, k)
				b.Jz(exit)
				b.AddI(p, 1+off(1))
			case 2:
				b.StoreB(q, off(2), x)
				b.CmpI(x, k)
				b.Jz(exit)
				if r.Intn(2) == 0 {
					b.AddI(p, 1)
					b.AddI(q, 1+off(1))
				} else {
					b.AddI(q, 1)
					b.AddI(p, 1+off(1))
				}
			default:
				b.CmpI(x, k)
				b.Jz(exit)
				b.AddI(p, 1+off(1))
				if kind == 3 {
					b.AddI(q, 1)
				}
			}
			b.Jmp(head)
			spans = append(spans, [2]int{from, b.Len()})
			b.Label(exit)
		}
		b.Halt()
	}
	pp := newProbedPair(t, build)
	// The strings: runs of letters ended by NULs at a trial-wide mean
	// length, and now and then any byte at all (a K or a c).
	mean := []int{6, 90, 2500}[r.Intn(3)]
	image := make([]byte, loopPages*vm.PageSize)
	for i := range image {
		switch {
		case r.Intn(mean) == 0:
			image[i] = 0
		case r.Intn(150) == 0:
			image[i] = byte(r.Intn(256))
		default:
			image[i] = byte('a' + r.Intn(26))
		}
	}
	for _, m := range []*vm.Machine{pp.fast, pp.slow} {
		for i, ok := range mapped {
			if ok {
				base := uint32(loopRegion + i*vm.PageSize)
				m.Mem.MapRegion(base, vm.PageSize)
				m.Mem.WriteBytes(base, image[i*vm.PageSize:(i+1)*vm.PageSize])
			}
		}
		m.Mem.Snapshot() // every page frozen: the first store to each copies it
	}
	diffTools := loopTools(t, tr, tools, ptrs, spans, alloc, pp.fast, pp.slow)
	probe := func() {
		s := spans[r.Intn(len(spans))]
		pp.probe(t, fmt.Sprintf("p%d", r.Intn(3)), s[0]+r.Intn(s[1]-s[0]), 0)
	}
	if r.Intn(3) == 0 {
		probe()
	}
	for call := 0; call < 60 && !t.Failed(); call++ {
		label := fmt.Sprintf("seed=%#x call=%d", seed, call)
		budget := uint64(1 + r.Intn(3000))
		if r.Intn(8) == 0 {
			budget = 100000
		}
		stop := pp.run(t, label, budget)
		diffMappedMemory(t, label, pp.fast, pp.slow)
		diffTools(label)
		if r.Intn(4) == 0 {
			if f, s := pp.fast.Mem.DirtyPages(), pp.slow.Mem.DirtyPages(); f != s {
				t.Errorf("%s: dirty pages fast=%d slow=%d", label, f, s)
			}
			fs, ss := pp.fast.Mem.Snapshot(), pp.slow.Mem.Snapshot()
			if fs.CapturedBytes() != ss.CapturedBytes() || fs.DeltaPages() != ss.DeltaPages() || fs.Pages() != ss.Pages() {
				t.Errorf("%s: snapshot captured %d bytes of %d delta pages fast, %d of %d slow",
					label, fs.CapturedBytes(), fs.DeltaPages(), ss.CapturedBytes(), ss.DeltaPages())
			}
		}
		if !pp.resumable(stop) || stop.Reason == vm.StopWaitInput {
			break
		}
		switch r.Intn(6) {
		case 0:
			probe()
		case 1:
			name := fmt.Sprintf("p%d", r.Intn(3))
			if f, s := pp.remove(name); f != s {
				t.Fatalf("%s: remove(%s) fast=%d slow=%d", label, name, f, s)
			}
		}
	}
	return pp.fast.LoopRetired()
}

// TestLoopKernelsDifferential runs loopTrial over a fixed set of seeds,
// without tools and under each tool set, and requires the kernels to have
// run in each but the one beside a tool without vm.LoopHook.
func TestLoopKernelsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0x100b))
	var retired uint64
	for trial := 0; trial < 120; trial++ {
		seed := rng.Int63()
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) { retired += loopTrial(t, seed, "") })
	}
	if retired == 0 {
		t.Error("no loop kernel ran")
	}
	t.Logf("kernels retired %d instructions", retired)
	for _, tools := range loopToolKinds {
		retired = 0
		for trial := 0; trial < 60; trial++ {
			seed := rng.Int63()
			t.Run(fmt.Sprintf("tools=%s/trial=%d", tools, trial), func(t *testing.T) { retired += loopTrial(t, seed, tools) })
		}
		t.Logf("under %s: kernels retired %d instructions", tools, retired)
		if (retired == 0) != strings.HasSuffix(tools, "+plain") {
			t.Errorf("under %s: kernels retired %d instructions", tools, retired)
		}
	}
}

// TestProbesUnderInstructionTools runs a guest with probes on a fused pair's
// first half, a loop head and a syscall under an instruction tool: a plain
// one, under which the loop runs one instruction at a time, and one taking a
// run in one call (vm.LoopHook), under which the kernel runs and the head's
// probe fires after it. Run calls of every length from 1 to 12, and one
// unbounded, are compared with the reference at every stop: the probe log
// and the loop probe's fires per index, ProbeFires, Cycles and the tool's
// calls.
func TestProbesUnderInstructionTools(t *testing.T) {
	var pair, head, sys, exit int
	build := func(b *asm.Builder) {
		b.Func("main")
		b.MovI(vm.R6, 0)
		b.Label("main.outer")
		pair = b.Len()
		b.AddI(vm.R2, 1)
		b.AddI(vm.R3, 2)
		b.MovI(vm.R4, loopRegion+7)
		head = b.Len()
		b.Label("main.head")
		b.LoadB(vm.R5, vm.R4, 0)
		b.CmpI(vm.R5, 0)
		b.Jz("main.exit")
		b.AddI(vm.R4, 1)
		b.Jmp("main.head")
		exit = b.Len()
		b.Label("main.exit")
		b.MovI(vm.R0, 9)
		sys = b.Len()
		b.Syscall()
		b.AddI(vm.R6, 1)
		b.CmpI(vm.R6, 3)
		b.Jlt("main.outer")
		b.Halt()
	}
	for _, tool := range []string{"plain", "loop"} {
		for chunk := uint64(1); chunk <= 13 && !t.Failed(); chunk++ {
			if chunk == 13 {
				chunk = 1 << 20
			}
			b := asm.New("probed")
			build(b)
			pp := &probedPair{}
			pp.fast, pp.slow = loadMachinePair(t, b.MustBuild(), func() vm.SyscallHandler { return &stubSys{} })
			requireSecondHalfOfPair(t, pp.fast.Code(), pair+1)
			spans := [][2]int{{head, exit}}
			idxs := map[int]bool{head: true}
			f := &loopProbe{newLoopShadow(nil), spans, idxs, map[int]int{}, 0, rand.New(rand.NewSource(int64(chunk)))}
			s := &loopProbe{newLoopShadow(nil), spans, idxs, map[int]int{}, 0, nil}
			fTool := loopShadowInstr{newLoopShadow(nil), map[int]int{}}
			sTool := loopShadowInstr{newLoopShadow(nil), map[int]int{}}
			for _, m := range []*vm.Machine{pp.fast, pp.slow} {
				m.Mem.MapRegion(loopRegion, vm.PageSize)
				m.Mem.WriteBytes(loopRegion+7, []byte("GET /index.html\x00"))
			}
			if tool == "plain" {
				pp.fast.AttachTool(seqInstrTool{"t.instr", &pp.fastSeq})
				pp.slow.AttachTool(seqInstrTool{"t.instr", &pp.slowSeq})
			} else {
				pp.fast.AttachTool(fTool)
				pp.slow.AttachTool(noLoopShadowInstr{loopShadowInstr: sTool})
			}
			pp.probe(t, "t.pair", pair, 0)
			pp.probe(t, "t.sys", sys, 0)
			if err := pp.fast.AddProbe(head, f); err != nil {
				t.Fatal(err)
			}
			if err := pp.slow.AddProbe(head, s); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("tool=%s chunk=%d", tool, chunk)
			pp.runChunked(t, label, chunk, 1000)
			if !pp.fast.Halted() {
				t.Errorf("%s: the guest did not run to its halt", label)
			}
			if !maps.Equal(f.fires, s.fires) || f.fires[head] == 0 {
				t.Errorf("%s: head probe fires fast=%v slow=%v", label, f.fires, s.fires)
			}
			if !maps.Equal(fTool.calls, sTool.calls) {
				t.Errorf("%s: tool calls fast=%v slow=%v", label, fTool.calls, sTool.calls)
			}
			if n := pp.fast.LoopRetired(); chunk > 12 && (n == 0) != (tool == "plain") {
				t.Errorf("%s: kernels retired %d instructions", label, n)
			}
		}
	}
}

// FuzzLoopKernels is TestLoopKernelsDifferential's trial as a fuzz target:
// the seed picks the loops, the strings, the pages, the probes, the Run
// lengths and the tool set, if any.
func FuzzLoopKernels(f *testing.F) {
	for _, seed := range []int64{0, 1, 0x100b, 0x5eed, -7} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		tools := ""
		if i := int(uint64(seed) % uint64(2*len(loopToolKinds))); i < len(loopToolKinds) {
			tools = loopToolKinds[i]
		}
		loopTrial(t, seed, tools)
	})
}

// squidRequests are the request shapes whose kernel coverage the tests pin:
// the benign mix's plain HTTP and short FTP requests, and an FTP URL with a
// 1 500-byte user part (the benchmark's heavy shape).
func squidRequests() (http, ftp, heavy []byte) {
	user := make([]byte, 1500)
	for i := range user {
		user[i] = byte('a' + i%26)
	}
	return exploit.Benign("squid", 3), exploit.Benign("squid", 1),
		[]byte("ftp://" + string(user) + "@ftp.example.org/pub/file.tar.gz")
}

// serveCounting serves one request on a squid process and returns the
// instructions it retired and how many of them loop kernels retired.
func serveCounting(t *testing.T, p *proc.Process, in *netproxy.Proxy, payload []byte) (instrs, byKernels uint64) {
	t.Helper()
	i0, k0 := p.Machine.InstrCount(), p.Machine.LoopRetired()
	in.Submit(payload, "client", false)
	if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
		t.Fatalf("request stopped the guest with %v", stop.Reason)
	}
	return p.Machine.InstrCount() - i0, p.Machine.LoopRetired() - k0
}

// TestLoopKernelCoverage pins the share of a squid request's instructions
// that the loop kernels retire: strlen, strcat (both loops), strchr and
// strcpy are two thirds of a heavy request and most of a small one. A shape
// that stops being recognised shows here, not only as a slower benchmark.
func TestLoopKernelCoverage(t *testing.T) {
	spec := apps.Squid()
	in := netproxy.New()
	p, err := proc.New(spec.Name, spec.Image, vm.DefaultLayout(), in, spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	http, ftp, heavy := squidRequests()
	serveCounting(t, p, in, http) // the first request also sets up the heap
	for _, c := range []struct {
		name    string
		payload []byte
		share   float64 // percent, as measured on the squid image
	}{{"http", http, 90.5}, {"ftp", ftp, 61.3}, {"heavy", heavy, 66.0}} {
		instrs, byKernels := serveCounting(t, p, in, c.payload)
		share := 100 * float64(byKernels) / float64(instrs)
		t.Logf("%s: %d instructions, %d by kernels (%.1f%%)", c.name, instrs, byKernels, share)
		if share < c.share-1 || share > c.share+1 {
			t.Errorf("%s: kernels retired %.1f%% of the request, want %.1f%% ± 1", c.name, share, c.share)
		}
	}
}

// inoculatedSquid returns two squid guests on one layout, each with its
// proxy: guests[0] plain and guests[1] under the real squid final antibody,
// made from the exploit after four benign requests as a serving guest meets
// it. Its heap-bounds and taint-guard probes sit in four of the five loops
// (strlen, both strcat loops and strchr) and take a run in one call
// (vm.LoopHook).
func inoculatedSquid(t *testing.T) (guests [2]*proc.Process, ins [2]*netproxy.Proxy) {
	t.Helper()
	spec := apps.Squid()
	cfg := core.DefaultConfig()
	cfg.ASLRSeed = 5151
	s, err := core.New(spec.Name, spec.Image, spec.Options, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.Submit(exploit.Benign(spec.Name, i), "client", false)
	}
	s.Submit(exploit.SquidExploit(), "worm", true)
	if _, err := s.ServeAll(); err != nil {
		t.Fatal(err)
	}
	s.WaitAnalyses()
	if len(s.Attacks()) != 1 || s.Attacks()[0].FinalAntibody == nil {
		t.Fatal("the producer made no final antibody")
	}
	for i := range guests {
		ins[i] = netproxy.New()
		if guests[i], err = proc.New(spec.Name, spec.Image, s.Layout(), ins[i], spec.Options); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Attacks()[0].FinalAntibody.Apply(guests[1], nil); err != nil {
		t.Fatal(err)
	}
	return guests, ins
}

// serveTwins serves one request on both of inoculatedSquid's guests, fails
// the test unless they retire as many instructions, and returns how many the
// kernels retired on each.
func serveTwins(t *testing.T, guests [2]*proc.Process, ins [2]*netproxy.Proxy, name string, payload []byte) (plain, inoculated uint64) {
	t.Helper()
	instrs, plain := serveCounting(t, guests[0], ins[0], payload)
	probedInstrs, inoculated := serveCounting(t, guests[1], ins[1], payload)
	t.Logf("%s: %d instructions, kernels retired %d plain, %d inoculated", name, instrs, plain, inoculated)
	if probedInstrs != instrs {
		t.Errorf("%s: %d instructions inoculated, %d plain", name, probedInstrs, instrs)
	}
	return plain, inoculated
}

// TestLoopKernelsRunUnderProbes serves the HTTP, FTP and heavy requests on
// inoculatedSquid's guests. The antibody's probes all take a run in one call,
// so every kernel stays armed, and each request retires exactly as many
// instructions, and as many by kernels, inoculated as plain.
func TestLoopKernelsRunUnderProbes(t *testing.T) {
	guests, ins := inoculatedSquid(t)
	m := guests[1].Machine
	heads, armed, probed := m.LoopKernels()
	nProbed := 0
	for i, head := range heads {
		t.Logf("loop at %d (%s): probed=%v kernel=%v", head, m.SymbolAt(head), probed[i], armed[i])
		if !armed[i] {
			t.Errorf("loop at %d: kernel off", head)
		}
		if probed[i] {
			nProbed++
		}
	}
	if nProbed != 4 || len(heads) != 5 {
		t.Fatalf("%d of %d loops probed, want 4 of 5", nProbed, len(heads))
	}
	http, ftp, heavy := squidRequests()
	for _, c := range []struct {
		name    string
		payload []byte
	}{{"http", http}, {"ftp", ftp}, {"heavy", heavy}} {
		if plain, inoculated := serveTwins(t, guests, ins, c.name, c.payload); plain == 0 || inoculated != plain {
			t.Errorf("%s: kernels retired %d instructions inoculated, want the plain guest's %d (> 0)", c.name, inoculated, plain)
		}
	}
}

// TestLoopKernelsStayOffProbedLoops adds, on the inoculated guest of
// inoculatedSquid, a probe without vm.LoopHook beside the antibody's in each
// of the four probed loops. Those four kernels turn off and only strcpy's
// stays armed: the HTTP request, whose only loop is strlen, then retires
// nothing by kernels, and the FTP and heavy requests retire some (strcpy)
// but fewer than the plain guest — each with exactly the plain guest's
// instructions, and the added probes firing.
func TestLoopKernelsStayOffProbedLoops(t *testing.T) {
	guests, ins := inoculatedSquid(t)
	m := guests[1].Machine
	var log []probeHit
	heads, _, probed := m.LoopKernels()
	for i, head := range heads {
		if probed[i] {
			if err := m.AddProbe(head+2, stateProbe{"t.plain", &log, new(int), 0}); err != nil {
				t.Fatal(err)
			}
		}
	}
	heads, armed, probed := m.LoopKernels()
	nProbed := 0
	for i, head := range heads {
		t.Logf("loop at %d (%s): probed=%v kernel=%v", head, m.SymbolAt(head), probed[i], armed[i])
		if armed[i] == probed[i] {
			t.Errorf("loop at %d: probed=%v but kernel=%v", head, probed[i], armed[i])
		}
		if probed[i] {
			nProbed++
		}
	}
	if nProbed != 4 || len(heads) != 5 {
		t.Errorf("%d of %d loops probed, want 4 of 5", nProbed, len(heads))
	}
	http, ftp, heavy := squidRequests()
	for _, c := range []struct {
		name    string
		payload []byte
	}{{"http", http}, {"ftp", ftp}, {"heavy", heavy}} {
		fires := len(log)
		plain, inoculated := serveTwins(t, guests, ins, c.name, c.payload)
		switch {
		case plain == 0:
			t.Errorf("%s: no kernel ran on the plain guest", c.name)
		case len(log) == fires:
			t.Errorf("%s: the probes without vm.LoopHook never fired", c.name)
		case c.name == "http" && inoculated != 0:
			t.Errorf("%s: kernels retired %d instructions in probed loops", c.name, inoculated)
		case c.name != "http" && (inoculated == 0 || inoculated >= plain):
			t.Errorf("%s: kernels retired %d instructions inoculated, want some (strcpy) and fewer than plain's %d", c.name, inoculated, plain)
		}
	}
}
