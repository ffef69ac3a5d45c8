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
