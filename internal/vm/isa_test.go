package vm

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestRegAndOpStrings(t *testing.T) {
	if R0.String() != "r0" || SP.String() != "sp" || BP.String() != "bp" {
		t.Error("register names wrong")
	}
	if !strings.Contains(Reg(200).String(), "?") {
		t.Error("unknown register should be marked")
	}
	if OpAdd.String() != "add" || OpStoreW.String() != "storew" {
		t.Error("opcode names wrong")
	}
	if !strings.Contains(Op(250).String(), "?") {
		t.Error("unknown opcode should be marked")
	}
	// Every defined opcode has a name.
	for op := OpNop; op < numOps; op++ {
		if strings.Contains(op.String(), "?") {
			t.Errorf("opcode %d has no name", op)
		}
	}
}

func TestOpClassification(t *testing.T) {
	branches := []Op{OpJmp, OpJz, OpJnz, OpJlt, OpJle, OpJgt, OpJge, OpJmpReg, OpCall, OpCallReg, OpRet}
	for _, op := range branches {
		if !op.IsBranch() {
			t.Errorf("%v should be a branch", op)
		}
	}
	if OpAdd.IsBranch() || OpStoreB.IsBranch() {
		t.Error("non-branches misclassified")
	}
	for _, op := range []Op{OpJz, OpJnz, OpJlt, OpJle, OpJgt, OpJge} {
		if !op.IsCondBranch() {
			t.Errorf("%v should be conditional", op)
		}
	}
	if OpJmp.IsCondBranch() || OpCall.IsCondBranch() {
		t.Error("unconditional branch misclassified as conditional")
	}
	if !OpLoadB.IsLoad() || !OpLoadW.IsLoad() || OpStoreB.IsLoad() {
		t.Error("IsLoad wrong")
	}
	if !OpStoreB.IsStore() || !OpStoreW.IsStore() || OpLoadW.IsStore() {
		t.Error("IsStore wrong")
	}
}

func TestInstrString(t *testing.T) {
	cases := map[string]Instr{
		"movi r1, 5":        {Op: OpMovI, Rd: R1, Imm: 5},
		"mov r1, r2":        {Op: OpMov, Rd: R1, Rs: R2},
		"loadw r3, [bp-4]":  {Op: OpLoadW, Rd: R3, Rs: BP, Imm: -4},
		"storeb [r2+0], r4": {Op: OpStoreB, Rd: R2, Rs: R4, Imm: 0},
		"add r1, r2":        {Op: OpAdd, Rd: R1, Rs: R2},
		"addi r1, 7":        {Op: OpAddI, Rd: R1, Imm: 7},
		"jmp @12":           {Op: OpJmp, Imm: 12},
		"callr r5":          {Op: OpCallReg, Rd: R5},
		"push r6":           {Op: OpPush, Rd: R6},
		"pushi 3":           {Op: OpPushI, Imm: 3},
		"ret":               {Op: OpRet},
		"syscall":           {Op: OpSyscall},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("Instr.String() = %q, want %q", got, want)
		}
	}
}

func TestFaultAndViolationStrings(t *testing.T) {
	f := &Fault{Kind: FaultPage, Addr: 0x1234, PCAddr: 0x8048000, Sym: "strcat", Detail: "boom"}
	if !strings.Contains(f.Error(), "segmentation fault") || !strings.Contains(f.Error(), "strcat") {
		t.Errorf("fault error = %q", f.Error())
	}
	v := &Violation{Kind: ViolationDoubleFree, Tool: "t", Sym: "free", Detail: "d"}
	if !strings.Contains(v.Error(), "double free") || !strings.Contains(v.Error(), "t") {
		t.Errorf("violation error = %q", v.Error())
	}
	var nilF *Fault
	var nilV *Violation
	if nilF.Error() == "" || nilV.Error() == "" {
		t.Error("nil errors should still describe themselves")
	}
	for k := FaultNone; k <= FaultInstrLimit; k++ {
		if k.String() == "" {
			t.Errorf("fault kind %d has no name", k)
		}
	}
	for k := ViolationNone; k <= ViolationPolicy; k++ {
		if k.String() == "" {
			t.Errorf("violation kind %d has no name", k)
		}
	}
	if !strings.Contains(FaultKind(99).String(), "?") || !strings.Contains(ViolationKind(99).String(), "?") {
		t.Error("unknown kinds should be marked")
	}
}

func TestStopReasonString(t *testing.T) {
	for r := StopNone; r <= StopInstrBudget; r++ {
		if strings.Contains(r.String(), "?") {
			t.Errorf("stop reason %d has no name", r)
		}
	}
	if !strings.Contains(StopReason(99).String(), "?") {
		t.Error("unknown stop reason should be marked")
	}
}

func TestProgramSymbolHelpers(t *testing.T) {
	p := &Program{
		Code:    []Instr{{Op: OpNop, Sym: "main"}, {Op: OpHalt, Sym: "main"}},
		Symbols: map[string]int{"main": 0},
	}
	if p.SymbolFor(0) != "main" {
		t.Error("SymbolFor wrong")
	}
	if p.SymbolFor(99) == "" {
		t.Error("SymbolFor out of range should still return something")
	}
	if idx, ok := p.EntryOf("main"); !ok || idx != 0 {
		t.Error("EntryOf wrong")
	}
	if _, ok := p.EntryOf("nope"); ok {
		t.Error("EntryOf should fail for unknown symbols")
	}
}

// sumSys is a syscall handler with proc's convention: it reads R0-R3 and
// returns in R0.
type sumSys struct{}

func (sumSys) Syscall(m *Machine, num uint32) (SyscallResult, *Fault) {
	m.Regs[R0] = num*31 + m.Regs[R1]*7 + m.Regs[R2]*3 + m.Regs[R3]
	return SysOK, nil
}

// TestEffectsMatchRefRun holds the effects table to the reference
// interpreter. Every opcode byte, 0-255, runs as one instruction through
// RefRun from random registers, flags and memory (registers that point into
// the data segment, near SP, into the code, or anywhere). Whatever it
// changes — a register, the flags, a byte — must be one the table names as
// written, and the PC may leave the next instruction only at a branch. Then,
// one at a time, each register the table does not name as read (and the
// flags, if it does not read them) is given another value, and the outcome —
// what the instruction writes, the PC, the stop and the bytes — must not
// change. A syscall's registers follow its handler's convention, here
// proc's; what it writes to memory reaches tools through InputHook, so its
// bytes are not checked. An opcode from numOps on has no effects and faults.
func TestEffectsMatchRefRun(t *testing.T) {
	const at, window = 8, 512
	prog := &Program{Name: "effects", Code: make([]Instr, 16), Data: make([]byte, PageSize)}
	m, err := NewMachine(prog, DefaultLayout(), sumSys{})
	if err != nil {
		t.Fatal(err)
	}
	l := m.Layout()
	data, stack := l.DataBase, l.StackTop()-window
	rng := rand.New(rand.NewSource(46))
	value := func() uint32 {
		switch rng.Intn(6) {
		case 0, 1:
			return data + 32 + uint32(rng.Intn(window-64))
		case 2, 3:
			return stack + 32 + uint32(rng.Intn(window-64))
		case 4:
			return m.AddrOfIndex(rng.Intn(len(prog.Code)))
		}
		return rng.Uint32()
	}
	type outcome struct {
		regs  [NumRegs]uint32 // the registers the table says are written, unless it stopped
		flags int             // if the table says they are written, unless it stopped
		pc    int
		stop  string
		mem   []byte
	}
	look := func(e *Effects, in *Instr, stop *StopInfo) outcome {
		o := outcome{pc: m.PC, stop: fmt.Sprint(stop.Reason, stop.Fault)}
		if stop.Reason == StopInstrBudget { // it ran: a stop writes nothing
			if e.WritesFlags {
				o.flags = m.Flags
			}
			for _, r := range e.Writes {
				o.regs[in.Reg(r)] = m.Regs[in.Reg(r)]
			}
		}
		for _, base := range []uint32{data, stack} {
			for a := base; a < base+window; a++ {
				b, _ := m.Mem.ReadU8(a)
				o.mem = append(o.mem, b)
			}
		}
		return o
	}
	for op := 0; op < 256; op++ {
		e := Op(op).Effects()
		if op >= int(numOps) && (len(e.Reads) > 0 || len(e.Writes) > 0 || e.ReadsFlags || e.WritesFlags || e.Branch || e.Mem.Size > 0) {
			t.Errorf("opcode %d is past the ISA but has effects %+v", op, *e)
		}
		for trial := 0; trial < 30; trial++ {
			in := Instr{Op: Op(op), Rd: Reg(rng.Intn(int(NumRegs))), Rs: Reg(rng.Intn(int(NumRegs))), Imm: int32(rng.Intn(65) - 32)}
			if e.Branch && e.Mem.Size == 0 || Op(op) == OpCall {
				in.Imm = int32(rng.Intn(len(prog.Code)))
			} else if rng.Intn(4) == 0 {
				in.Imm = int32(rng.Uint32())
			}
			m.code[at] = in
			regs := RegSnapshot{PC: at, Flags: rng.Intn(3) - 1}
			for r := range regs.Regs {
				regs.Regs[r] = value()
			}
			regs.Regs[SP] = stack + 64 + uint32(rng.Intn(window-128))
			mem := make([]byte, 2*window)
			rng.Read(mem)
			run := func(regs RegSnapshot) (outcome, RegSnapshot) {
				m.RestoreRegs(regs)
				for i, b := range mem {
					a := data + uint32(i)
					if i >= window {
						a = stack + uint32(i-window)
					}
					m.Mem.WriteU8(a, b)
				}
				stop := RefRun(m, 1)
				return look(e, &in, stop), m.SaveRegs()
			}
			label := fmt.Sprintf("%v (%d) trial %d: %v", Op(op), op, trial, in)
			want, after := run(regs)

			writes := map[Reg]bool{}
			for _, r := range e.Writes {
				writes[in.Reg(r)] = true
			}
			for r := range after.Regs {
				if after.Regs[r] != regs.Regs[r] && !writes[Reg(r)] {
					t.Errorf("%s changed %v, which the table does not name as written", label, Reg(r))
				}
			}
			if after.Flags != regs.Flags && !e.WritesFlags {
				t.Errorf("%s changed the flags, which the table does not name as written", label)
			}
			if after.PC != at && after.PC != at+1 && !e.Branch {
				t.Errorf("%s moved the PC to %d, but the table does not name it a branch", label, after.PC)
			}
			if Op(op) != OpSyscall {
				lo, hi := uint32(0), uint32(0)
				m.RestoreRegs(regs) // the access is at the registers before the instruction
				if addr, size, write, _ := m.EffectiveAddr(&in); write {
					lo, hi = addr, addr+uint32(size)
				}
				for i, b := range want.mem {
					a := data + uint32(i)
					if i >= window {
						a = stack + uint32(i-window)
					}
					if b != mem[i] && (a < lo || a >= hi) {
						t.Errorf("%s wrote byte %#x, outside what the table says it writes [%#x, %#x)", label, a, lo, hi)
						break
					}
				}
			}

			reads := map[Reg]bool{}
			for _, r := range e.Reads {
				reads[in.Reg(r)] = true
			}
			for r := R0; r < NumRegs; r++ {
				if reads[r] {
					continue
				}
				other := regs
				other.Regs[r] ^= 1 + uint32(rng.Intn(1<<20))<<rng.Intn(12)
				if got, _ := run(other); !slices.Equal(got.mem, want.mem) || got.regs != want.regs || got.flags != want.flags || got.pc != want.pc || got.stop != want.stop {
					t.Errorf("%s: changing %v, which the table does not name as read, changed the outcome", label, r)
				}
			}
			if !e.ReadsFlags {
				other := regs
				other.Flags = -other.Flags + 1 - rng.Intn(2)
				if other.Flags == regs.Flags {
					other.Flags++
				}
				if got, _ := run(other); !slices.Equal(got.mem, want.mem) || got.regs != want.regs || got.flags != want.flags || got.pc != want.pc || got.stop != want.stop {
					t.Errorf("%s: changing the flags, which the table does not name as read, changed the outcome", label)
				}
			}
		}
	}
}
