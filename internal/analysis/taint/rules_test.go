package taint

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"sweeper/internal/asm"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// TestObservedOpsAreWhatPropagateActsOn guards the tracker's opcode
// declaration against drifting from Propagate. Every opcode value, the
// illegal ones included, is driven through Propagate and BeforeInstr from two
// states: registers and memory all tainted with free's number in R0, and the
// same with a clean destination register (where register arithmetic
// propagates). An opcode outside ObservedOps must change nothing in either —
// register taint, shadow bytes, TaintedBytes, Propagators, Findings — and
// leave no violation pending; an opcode inside must change something in one,
// so that the set is exactly the opcodes Propagate has a rule for.
func TestObservedOpsAreWhatPropagateActsOn(t *testing.T) {
	b := asm.New("drift")
	b.DataSpace("buf", 512)
	b.Func("main")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.NewMachine(prog, vm.DefaultLayout(), nil)
	if err != nil {
		t.Fatal(err)
	}
	data, sp := m.Layout().DataBase, m.Layout().StackTop()-256
	setup := func(cleanRd bool) *Tracker {
		tr := New(true)
		tr.OnInput(m, data, make([]byte, 256), 1)
		tr.OnInput(m, sp-64, make([]byte, 128), 2)
		for r := range tr.regs {
			tr.regs[r] = regTaint{tainted: true, label: Label{RequestID: 3, Offset: r}}
		}
		if cleanRd {
			tr.regs[vm.R2] = regTaint{}
		}
		m.Regs[vm.R0] = proc.SysFree
		for r := vm.R1; r <= vm.R7; r++ {
			m.Regs[r] = data + 16*uint32(r)
		}
		m.Regs[vm.SP], m.Regs[vm.BP] = sp, sp
		return tr
	}
	look := func(tr *Tracker) string {
		var shadow []Label
		for _, span := range [][2]uint32{{data, data + 256}, {sp - 64, sp + 64}} {
			for a := span[0]; a < span[1]; a++ {
				lbl, ok := tr.memTaint(a, 1)
				if !ok {
					lbl = Label{RequestID: -1}
				}
				shadow = append(shadow, lbl)
			}
		}
		return fmt.Sprint(tr.regs, shadow, tr.TaintedBytes(), tr.Propagators(), tr.Findings())
	}
	set := (&Tracker{}).ObservedOps()
	for op := 0; op < 256; op++ {
		in := &vm.Instr{Op: vm.Op(op), Rd: vm.R2, Rs: vm.R3}
		acts := false
		for _, cleanRd := range []bool{false, true} {
			for _, entry := range []string{"Propagate", "BeforeInstr"} {
				tr := setup(cleanRd)
				before := look(tr)
				if entry == "Propagate" {
					tr.Propagate(m, 0, in)
				} else {
					tr.BeforeInstr(m, 0, in)
				}
				changed := look(tr) != before
				acts = acts || changed
				// Step runs the halt unless a violation is pending.
				pending := m.Step().Reason == vm.StopViolation
				m.ClearStop()
				if !set.Has(in.Op) && (changed || pending) {
					t.Errorf("%s of %v (clean rd %v), outside ObservedOps: shadow changed %v, violation pending %v",
						entry, in.Op, cleanRd, changed, pending)
				}
			}
		}
		if set.Has(in.Op) && !acts {
			t.Errorf("%v is in ObservedOps but Propagate does nothing at it", in.Op)
		}
	}
}

// TestLoopRanIsTheLoopsPropagation compares LoopRan with Propagate run at a
// loop's loadb (and a copy's storeb) once per iteration, over random scans
// and copies — overlapping ones included — across three pages shadowed by
// random input runs, some of them cleared again, so that a run meets clean
// pages, tainted ones and a clean source over a tainted destination. The
// shadow bytes, the register taint, TaintedBytes and Propagators must match.
func TestLoopRanIsTheLoopsPropagation(t *testing.T) {
	b := asm.New("loopran")
	b.Func("main")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.NewMachine(prog, vm.DefaultLayout(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const base, span = 0x08200000, 3 * vm.PageSize
	r := rand.New(rand.NewSource(0x100b))
	for trial := 0; trial < 1000; trial++ {
		bulk, ref := New(false), New(false)
		var runs []uint32
		for i := r.Intn(5); i > 0; i-- {
			addr, n, clear := uint32(base+r.Intn(span)), 1+r.Intn(600), r.Intn(4) == 0
			runs = append(runs, addr)
			for _, tr := range []*Tracker{bulk, ref} {
				if clear {
					tr.clearMem(addr, n)
				} else {
					tr.OnInput(m, addr, make([]byte, n), i)
				}
			}
		}
		l := vm.ByteLoop{Copy: r.Intn(2) == 0, Load: 10, X: vm.R1, Src: uint32(base + r.Intn(span))}
		l.Dst = uint32(base + r.Intn(span))
		if r.Intn(3) == 0 {
			l.Dst = l.Src + uint32(r.Intn(17)) - 8
		}
		k := uint64(1 + r.Intn(2*vm.PageSize))
		if r.Intn(2) == 0 {
			k = uint64(1 + r.Intn(80))
		}
		if len(runs) > 0 && r.Intn(4) == 0 {
			// The last byte read is the first of an input run.
			l.Src = runs[0] + 1 - uint32(k)
		}
		bulk.regs[vm.R1] = regTaint{tainted: true, label: Label{RequestID: 9}}
		ref.regs[vm.R1] = bulk.regs[vm.R1]
		bulk.LoopRan(m, &l, k)
		load := &vm.Instr{Op: vm.OpLoadB, Rd: vm.R1, Rs: vm.R2}
		store := &vm.Instr{Op: vm.OpStoreB, Rd: vm.R3, Rs: vm.R1}
		for i := uint32(0); uint64(i) < k; i++ {
			m.Regs[vm.R2], m.Regs[vm.R3] = l.Src+i, l.Dst+i
			ref.Propagate(m, l.Load, load)
			if l.Copy {
				ref.Propagate(m, l.Load+1, store)
			}
		}
		label := fmt.Sprintf("trial %d: %+v k=%d", trial, l, k)
		if bulk.regs != ref.regs || bulk.TaintedBytes() != ref.TaintedBytes() || fmt.Sprint(bulk.Propagators()) != fmt.Sprint(ref.Propagators()) {
			t.Fatalf("%s: LoopRan left %v, %d tainted bytes, propagators %v; Propagate %v, %d, %v", label,
				bulk.regs, bulk.TaintedBytes(), bulk.Propagators(), ref.regs, ref.TaintedBytes(), ref.Propagators())
		}
		shadow := ref.Shadow()
		for a := uint32(base - vm.PageSize); a < base+span+vm.PageSize; a++ {
			bl, bok := bulk.memTaint(a, 1)
			rl, rok := ref.memTaint(a, 1)
			if bl != rl || bok != rok {
				t.Fatalf("%s: byte %#x is %v,%v after LoopRan, %v,%v after Propagate", label, a, bl, bok, rl, rok)
			}
			if sl, sok := shadow[a]; sl != rl || sok != rok {
				t.Fatalf("%s: Shadow has byte %#x as %v,%v, memTaint as %v,%v", label, a, sl, sok, rl, rok)
			}
		}
		if len(shadow) != ref.TaintedBytes() || !maps.Equal(shadow, bulk.Shadow()) {
			t.Fatalf("%s: Shadow holds %d bytes of %d tainted, or differs after LoopRan", label, len(shadow), ref.TaintedBytes())
		}
	}
}

// TestRestrictedLoopBound pins which runs a restricted tracker (a taint
// guard) takes in one call: a scan when its set holds the loadb, a copy when
// it holds the loadb and the storeb, nothing else; a full tracker takes
// every run.
func TestRestrictedLoopBound(t *testing.T) {
	const load, most = 20, 1000
	for _, c := range []struct {
		set        []int
		scan, copy uint64
	}{
		{nil, 0, 0},
		{[]int{load}, most, 0},
		{[]int{load + 1}, 0, 0},
		{[]int{load, load + 1}, most, most},
		{[]int{load - 1, load + 2}, 0, 0},
	} {
		tr := NewRestricted("guard", c.set, true)
		scan, cp := vm.ByteLoop{Load: load}, vm.ByteLoop{Copy: true, Load: load}
		if got := tr.LoopBound(nil, &scan, most); got != c.scan {
			t.Errorf("set %v: scan bound %d, want %d", c.set, got, c.scan)
		}
		if got := tr.LoopBound(nil, &cp, most); got != c.copy {
			t.Errorf("set %v: copy bound %d, want %d", c.set, got, c.copy)
		}
	}
	if got := New(false).LoopBound(nil, &vm.ByteLoop{Copy: true, Load: load}, most); got != most {
		t.Errorf("full tracker: copy bound %d, want %d", got, most)
	}
}

// TestOnlyAPushClearsTheSlotBelowSP taints the four bytes below SP and runs
// one branch through BeforeInstr, as the VM calls the tracker, then reads
// those bytes. Of jmpr, callr, jmp and ret only callr writes them — it
// pushes its return address, a constant — so only callr leaves them clean.
func TestOnlyAPushClearsTheSlotBelowSP(t *testing.T) {
	b := asm.New("slot")
	b.Func("main")
	b.Halt()
	m, err := vm.NewMachine(b.MustBuild(), vm.DefaultLayout(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := m.Regs[vm.SP]
	for _, c := range []struct {
		op      vm.Op
		tainted int
	}{{vm.OpJmpReg, 4}, {vm.OpCallReg, 0}, {vm.OpJmp, 4}, {vm.OpRet, 4}} {
		tr := New(false)
		tr.OnInput(m, sp-4, make([]byte, 4), 1)
		tr.BeforeInstr(m, 0, &vm.Instr{Op: c.op, Rd: vm.R1})
		n := 0
		for a := sp - 4; a < sp; a++ {
			if _, ok := tr.memTaint(a, 1); ok {
				n++
			}
		}
		if n != c.tainted {
			t.Errorf("after %v, %d of the 4 bytes below SP are tainted, want %d", c.op, n, c.tainted)
		}
	}
}

// TestRetFaultBlamesThePoppedSlot runs a ret whose slot holds 0x41414141, an
// address outside the code, under a tracker attached as a tool, with 4 bytes
// tainted by request 7. The engines move SP past the slot before they raise
// the bad-PC fault, so OnFault must read the slot below SP there, and the slot
// at SP when the slot itself is unmapped. A full tracker's ret rule checks the
// slot before the ret runs; a restricted tracker (a taint guard) whose set
// lacks the ret sees the slot only at the fault.
func TestRetFaultBlamesThePoppedSlot(t *testing.T) {
	b := asm.New("ret")
	b.Func("main")
	b.Ret()
	prog := b.MustBuild()
	for _, c := range []struct {
		name    string
		tr      *Tracker
		slot    uint32 // 0: a mapped stack slot
		tainted uint32 // offset of the tainted word from the slot
		kind    vm.FaultKind
		blamed  bool
	}{
		{"full tracker, clean slot, tainted word above it", New(false), 0, 4, vm.FaultBadPC, false},
		{"restricted tracker, tainted slot", NewRestricted("guard", nil, false), 0, 0, vm.FaultBadPC, true},
		{"restricted tracker, tainted unmapped slot", NewRestricted("guard", nil, false), 0x100, 0, vm.FaultPage, true},
	} {
		m, err := vm.NewMachine(prog, vm.DefaultLayout(), nil)
		if err != nil {
			t.Fatal(err)
		}
		slot := c.slot
		if slot == 0 {
			slot = m.Layout().StackTop() - 16
			m.Mem.WriteWord(slot, 0x41414141)
		}
		m.Regs[vm.SP] = slot
		c.tr.OnInput(m, slot+c.tainted, make([]byte, 4), 7)
		m.AttachTool(c.tr)
		stop := m.Run(0)
		if stop.Reason != vm.StopFault || stop.Fault.Kind != c.kind {
			t.Fatalf("%s: stopped with %v %v, want a %v fault", c.name, stop.Reason, stop.Fault, c.kind)
		}
		want := 0
		if c.blamed {
			want = 1
		}
		if got := c.tr.Findings(); len(got) != want || want == 1 && got[0].Label != (Label{RequestID: 7}) {
			t.Errorf("%s: findings %v, want %d blaming req#7+0", c.name, got, want)
		}
	}
}
