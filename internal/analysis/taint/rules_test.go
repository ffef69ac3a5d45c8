package taint

import (
	"fmt"
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
