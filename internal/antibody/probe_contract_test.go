package antibody

import (
	"bytes"
	"strings"
	"testing"

	"sweeper/internal/asm"
	"sweeper/internal/heap"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// contractSites are the instruction indexes of contractProgram's guarded
// sites.
type contractSites struct {
	call, store, ret int
}

// contractProgram is the fixture every VSEF kind is probed on: main calls f,
// and f stores through R2, loads it back and returns.
func contractProgram(t *testing.T) (*vm.Program, contractSites) {
	t.Helper()
	b := asm.New("contract")
	var s contractSites
	b.Func("main")
	s.call = b.Call("f")
	b.Halt()
	b.Func("f")
	s.store = b.StoreB(vm.R2, 0, vm.R3)
	b.LoadB(vm.R4, vm.R2, 0)
	s.ret = b.Ret()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog, s
}

// observable is everything a probe is forbidden to change: the CPU state, the
// accounting and every mapped guest byte.
type observable struct {
	regs          [vm.NumRegs]uint32
	flags, pc     int
	instrs, cycle uint64
	mem           []byte
}

func observe(m *vm.Machine) observable {
	o := observable{regs: m.Regs, flags: m.Flags, pc: m.PC, instrs: m.InstrCount(), cycle: m.Cycles()}
	for _, base := range m.Mem.MappedPageBases() {
		page, _ := m.Mem.ReadBytes(base, vm.PageSize)
		o.mem = append(o.mem, page...)
	}
	return o
}

// TestProbesOnlyObserve holds every VSEF kind to the vm.Probe contract the
// fused loop relies on to deliver probes in the middle of a block: called on
// a machine in a state where it passes and in one where it fires, a probe
// changes no register, flag, PC, count, clock or guest byte, and its only
// effect is the violation it leaves pending.
func TestProbesOnlyObserve(t *testing.T) {
	prog, at := contractProgram(t)
	const chunkSize = 16
	cases := []struct {
		vsef VSEF
		// set puts the process in the state the probe is called in, at site
		// idx; fire says which of the two states it is to build. It returns
		// the site.
		set func(p *proc.Process, chunk uint32, fire bool) int
	}{
		{VSEF{Kind: VSEFHeapBounds, InstrIdx: at.store, CallerIdx: -1}, func(p *proc.Process, chunk uint32, fire bool) int {
			p.Machine.Regs[vm.R2] = chunk + chunkSize - 1
			if fire {
				p.Machine.Regs[vm.R2] = chunk + chunkSize + 2 // the next chunk's header
			}
			return at.store
		}},
		{VSEF{Kind: VSEFHeapBounds, InstrIdx: at.store, CallerIdx: at.call}, func(p *proc.Process, chunk uint32, fire bool) int {
			m := p.Machine
			m.Regs[vm.SP] -= 4
			m.Mem.WriteWord(m.Regs[vm.SP], m.AddrOfIndex(at.call+1)) // called from the guarded site
			m.Regs[vm.R2] = chunk
			if fire {
				m.Regs[vm.R2] = chunk - 4 // its own header
			}
			return at.store
		}},
		{VSEF{Kind: VSEFStackStore, InstrIdx: at.store, FuncSym: "f", CallerIdx: -1}, func(p *proc.Process, chunk uint32, fire bool) int {
			m := p.Machine
			m.Regs[vm.BP] = m.Regs[vm.SP] - 16
			m.Regs[vm.R2] = m.Regs[vm.BP] - 8
			if fire {
				m.Regs[vm.R2] = m.Regs[vm.BP] // the saved frame
			}
			return at.store
		}},
		{VSEF{Kind: VSEFNullCheck, InstrIdx: at.store, CallerIdx: -1}, func(p *proc.Process, chunk uint32, fire bool) int {
			p.Machine.Regs[vm.R2] = chunk
			if fire {
				p.Machine.Regs[vm.R2] = 0x10
			}
			return at.store
		}},
		{VSEF{Kind: VSEFDoubleFree, InstrIdx: at.call, CallerIdx: -1}, func(p *proc.Process, chunk uint32, fire bool) int {
			p.Machine.Regs[vm.R1] = chunk
			if fire {
				if err := p.Alloc.Free(chunk); err != nil {
					t.Fatal(err)
				}
			}
			return at.call
		}},
		{VSEF{Kind: VSEFFreeGuard, InstrIdx: at.call, CallerIdx: -1}, func(p *proc.Process, chunk uint32, fire bool) int {
			if fire {
				p.Machine.Mem.WriteWord(chunk-heap.HeaderSize+4, 0xbad) // a header's magic
			}
			return at.call
		}},
		{VSEF{Kind: VSEFReturnGuard, FuncSym: "f", CallerIdx: -1}, func(p *proc.Process, chunk uint32, fire bool) int {
			// Enter f (the guard saves the return address), then return from
			// it with the slot intact or overwritten.
			m := p.Machine
			m.Regs[vm.SP] -= 4
			m.Mem.WriteWord(m.Regs[vm.SP], m.AddrOfIndex(at.call+1))
			m.Regs[vm.R2] = chunk
			stepAt(t, m, at.store)
			if fire {
				m.Mem.WriteWord(m.Regs[vm.SP], 0x41414141)
			}
			return at.ret
		}},
		{VSEF{Kind: VSEFTaint, TaintInstrs: []int{at.store, at.ret}, CallerIdx: -1}, func(p *proc.Process, chunk uint32, fire bool) int {
			// A request's bytes land in the chunk; f returns through a slot
			// holding them, or through a clean one.
			m := p.Machine
			m.NotifyInput(chunk, bytes.Repeat([]byte{'A'}, chunkSize), 1)
			m.Regs[vm.SP] = chunk + chunkSize
			if fire {
				m.Regs[vm.SP] = chunk
			}
			return at.ret
		}},
	}
	for _, tc := range cases {
		for _, fire := range []bool{false, true} {
			v := tc.vsef
			v.Program, v.Name = "contract", "v."+string(v.Kind)
			t.Run(v.String()+map[bool]string{false: "/passes", true: "/fires"}[fire], func(t *testing.T) {
				p, err := proc.New("contract", prog, vm.DefaultLayout(), netproxy.New(), proc.Options{})
				if err != nil {
					t.Fatal(err)
				}
				chunk, err := p.Alloc.Malloc(chunkSize)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.Alloc.Malloc(chunkSize); err != nil { // a neighbour above it
					t.Fatal(err)
				}
				applied, err := v.Apply(p)
				if err != nil {
					t.Fatal(err)
				}
				m := p.Machine
				idx := tc.set(p, chunk, fire)
				m.PC = idx
				before := observe(m)
				applied.probe.OnProbe(m, idx, &m.Code()[idx])
				after := observe(m)
				switch {
				case after.regs != before.regs || after.flags != before.flags || after.pc != before.pc:
					t.Errorf("registers, flags or PC changed: %+v -> %+v", before, after)
				case after.instrs != before.instrs || after.cycle != before.cycle:
					t.Errorf("accounting changed: %d instrs %d cycles -> %d, %d", before.instrs, before.cycle, after.instrs, after.cycle)
				case !bytes.Equal(after.mem, before.mem):
					t.Error("guest memory changed")
				}
				applied.Remove() // so that Step cannot fire it again
				stop := m.Step() // a pending violation stops it before anything runs
				if got := stop != nil && stop.Reason == vm.StopViolation && strings.HasPrefix(stop.Violation.Tool, v.Name); got != fire {
					t.Errorf("violation pending = %v, want %v (stop %+v)", got, fire, stop)
				}
			})
		}
	}
}

// stepAt executes the instruction at idx, its probes first.
func stepAt(t *testing.T, m *vm.Machine, idx int) {
	t.Helper()
	m.PC = idx
	if stop := m.Step(); stop != nil {
		t.Fatalf("stepping through @%d: %+v", idx, stop)
	}
}

// TestHeapBoundsLoopBound pins the heap-bounds guard's vm.LoopHook bound at
// its edges — inside a live chunk to its end, outside the heap region to the
// region or the end of the address space, 0 in a freed chunk, on a header
// and in the region's unused end — for a guard on a scan's load, on a copy's
// store and on a copy's load (which holds the copy's stores to the same
// ranges), and checks each bound against OnProbe: the access at the bound's
// last byte passes, and the one after a chunk's end raises.
func TestHeapBoundsLoopBound(t *testing.T) {
	prog, at := contractProgram(t)
	p, err := proc.New("contract", prog, vm.DefaultLayout(), netproxy.New(), proc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var chunks [3]uint32
	for i := range chunks {
		if chunks[i], err = p.Alloc.Malloc(40); err != nil {
			t.Fatal(err)
		}
	}
	live, freed := chunks[0], chunks[1]
	if err := p.Alloc.Free(freed); err != nil {
		t.Fatal(err)
	}
	c, _ := p.Alloc.ChunkContaining(live)
	liveEnd := c.Addr + c.Size
	base, end := p.Alloc.Base(), p.Alloc.End()
	m := p.Machine
	load, store := at.store+1, at.store // loadb R4,[R2+0]; storeb [R2+0],R3
	// raises reports whether the guard on site raises at an access to addr.
	raises := func(probe *heapBoundsProbe, site int, addr uint32) bool {
		m.Regs[vm.R2] = addr
		probe.OnProbe(m, site, &m.Code()[site])
		m.PC = at.call + 1 // the halt: Step reports the pending violation, or halts
		stop := m.Step()
		m.ClearStop()
		return stop.Reason == vm.StopViolation
	}
	const all = uint64(1) << 40
	for _, c := range []struct {
		name       string
		site       int // the guarded instruction
		l          vm.ByteLoop
		most, want uint64
	}{
		{"scan in a live chunk", load, vm.ByteLoop{Load: load, Src: live + 10}, all, uint64(liveEnd - live - 10)},
		{"scan at a live chunk's last byte", load, vm.ByteLoop{Load: load, Src: liveEnd - 1}, all, 1},
		{"scan in a freed chunk", load, vm.ByteLoop{Load: load, Src: freed + 2}, all, 0},
		{"scan of a header", load, vm.ByteLoop{Load: load, Src: live - 4}, all, 0},
		{"scan below the heap", load, vm.ByteLoop{Load: load, Src: base - 100}, all, 100},
		{"scan above the heap", load, vm.ByteLoop{Load: load, Src: end + 5}, all, 1<<32 - uint64(end+5)},
		{"scan in the heap's unused end", load, vm.ByteLoop{Load: load, Src: end - 10}, all, 0},
		{"scan below the heap, most smaller", load, vm.ByteLoop{Load: load, Src: base - 100}, 7, 7},
		{"copy into a live chunk", store, vm.ByteLoop{Copy: true, Load: store - 1, Src: freed, Dst: live + 1}, all, uint64(liveEnd - live - 1)},
		{"copy into a freed chunk", store, vm.ByteLoop{Copy: true, Load: store - 1, Src: live, Dst: freed}, all, 0},
		{"copy below the heap", store, vm.ByteLoop{Copy: true, Load: store - 1, Src: freed, Dst: base - 100}, all, 100},
		{"copy from a live chunk to below the heap", load, vm.ByteLoop{Copy: true, Load: load, Src: live + 10, Dst: base - 5}, all, 5},
		{"copy from a live chunk to above the heap", load, vm.ByteLoop{Copy: true, Load: load, Src: live + 10, Dst: end}, all, uint64(liveEnd - live - 10)},
		{"copy from a live chunk into a freed one", load, vm.ByteLoop{Copy: true, Load: load, Src: live + 10, Dst: freed}, all, 0},
		{"guard on no access of the loop", store, vm.ByteLoop{Load: store - 3, Src: freed}, all, all},
	} {
		for _, caller := range []int{-1, at.call} {
			probe := &heapBoundsProbe{name: "hb", vsef: &VSEF{InstrIdx: c.site, CallerIdx: caller}, alloc: p.Alloc}
			got := probe.LoopBound(m, &c.l, c.most)
			if got != c.want {
				t.Errorf("%s (caller %d): bound %d, want %d", c.name, caller, got, c.want)
				continue
			}
			addr := c.l.Src
			if c.site == store {
				addr = c.l.Dst
			}
			if got > 0 && got < all && raises(probe, c.site, addr+uint32(got-1)) {
				t.Errorf("%s (caller %d): the access at the bound's last byte raises", c.name, caller)
			}
			if caller < 0 && got > 0 && got < c.most && addr+uint32(got) == liveEnd && !raises(probe, c.site, liveEnd) {
				t.Errorf("%s: the access past the chunk's end passes", c.name)
			}
		}
	}
}
