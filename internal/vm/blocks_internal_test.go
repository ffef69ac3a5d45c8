package vm

import (
	"fmt"
	"testing"
)

// TestBuildBlocksRunLen pins the block decoder: the body length counts the
// fusible straight-line suffix from each index and is zero on terminators,
// the cost field sums the body's cycles, and only an entry whose terminator
// jumps back to it is a self-loop.
func TestBuildBlocksRunLen(t *testing.T) {
	code := []Instr{
		{Op: OpMovI, Rd: R1},          // 0
		{Op: OpAddI, Rd: R1},          // 1
		{Op: OpPush, Rd: R1},          // 2
		{Op: OpJmp, Imm: 1},           // 3 terminator
		{Op: OpAddI, Rd: R2},          // 4
		{Op: OpHalt},                  // 5 terminator
		{Op: OpCmpI, Rd: R1, Imm: 10}, // 6 (run to end of code)
	}
	desc := buildBlocks(code)
	if len(desc) != len(code)+1 || desc[len(code)] != 0 {
		t.Fatalf("desc has %d entries ending %#x, want %d ending 0", len(desc), desc[len(desc)-1], len(code)+1)
	}
	wantRun := []uint32{3, 2, 1, 0, 1, 0, 1}
	// movi/addi cost cyclesALU, push cyclesMem; terminators contribute zero
	// (they are charged by the terminator dispatch).
	wantCyc := []uint64{2*cyclesALU + cyclesMem, cyclesALU + cyclesMem, cyclesMem, 0, cyclesALU, 0, cyclesALU}
	for i := range wantRun {
		if got := uint32(desc[i]); got != wantRun[i] {
			t.Errorf("body length at %d = %d, want %d", i, got, wantRun[i])
		}
		if got := desc[i] >> descCycShift; got != wantCyc[i] {
			t.Errorf("body cycles at %d = %d, want %d", i, got, wantCyc[i])
		}
		if got, want := desc[i]&descSelfLoop != 0, i == 1; got != want {
			t.Errorf("self-loop at %d = %v, want %v", i, got, want)
		}
	}
}

// TestPackUopsFusionSelection pins the maximum-weight pair matching: in
// addi;push;pop the DP must prefer the weight-3 push/pop fusion over the
// weight-2 addi/push one, and terminators must never be fused over.
func TestPackUopsFusionSelection(t *testing.T) {
	code := []Instr{
		{Op: OpMovI, Rd: R1}, // 0
		{Op: OpAddI, Rd: R1}, // 1
		{Op: OpPush, Rd: R1}, // 2
		{Op: OpPop, Rd: R2},  // 3
		{Op: OpJmp, Imm: 1},  // 4
		{Op: OpAddI, Rd: R3}, // 5  last pair candidate halves split by...
		{Op: OpHalt},         // 6  ...a terminator: runLen[5] == 1, no fusion
		{Op: OpPush, Rd: R4}, // 7  trailing pair at end of code
		{Op: OpPop, Rd: R5},  // 8
	}
	uops, _ := packUops(code, buildBlocks(code))
	if got := Op(uops[1] & uopOpMask); got != OpAddI {
		t.Errorf("uops[1] op = %d, want plain OpAddI (DP must skip the weaker addi/push pair)", got)
	}
	if got := Op(uops[2] & uopOpMask); got != fusePushPop {
		t.Errorf("uops[2] op = %d, want fusePushPop", got)
	}
	// The fused slot bakes the pop's destination into the spare Rs byte and
	// leaves the second half untouched for mid-pair entry.
	if got := Reg(uops[2] >> uopRsShift & 0xff); got != R2 {
		t.Errorf("fused pair Rs byte = %v, want pop destination R2", got)
	}
	if got := Op(uops[3] & uopOpMask); got != OpPop {
		t.Errorf("uops[3] op = %d, want original OpPop preserved", got)
	}
	if got := Op(uops[5] & uopOpMask); got != OpAddI {
		t.Errorf("uops[5] op = %d, want plain OpAddI (no pair across a terminator)", got)
	}
	if got := Op(uops[7] & uopOpMask); got != fusePushPop {
		t.Errorf("uops[7] op = %d, want fusePushPop for trailing pair", got)
	}
}

// TestSyntheticOpcodesDisjoint guards the synthetic opcode range: fused
// opcodes must sit strictly above the real ISA so the fused loop's range
// pre-dispatch (op >= numOps) is unambiguous.
func TestSyntheticOpcodesDisjoint(t *testing.T) {
	for _, op := range []Op{fusePushPop, fuseAddIPush, fuseMovPop, fuseAddIAddI, fuseLoadBCmpI, fuseStoreBAddI} {
		if op < numOps {
			t.Errorf("synthetic opcode %d collides with real ISA (numOps=%d)", op, numOps)
		}
	}
	// Every pattern in the fusion table must pair two fusible body ops —
	// fusible is what buildBlocks uses to bound runs, and packUops relies
	// on a body length >= 2 implying both halves are body ops.
	pairs := [][2]Op{
		{OpPush, OpPop}, {OpAddI, OpAddI}, {OpLoadB, OpCmpI},
		{OpMov, OpPop}, {OpStoreB, OpAddI}, {OpAddI, OpPush},
	}
	for _, p := range pairs {
		if f, w := fusePair(p[0], p[1]); w > 0 {
			if !fusible(p[0]) {
				t.Errorf("fusion %d pairs non-fusible first half %v", f, p[0])
			}
			if !fusible(p[1]) {
				t.Errorf("fusion %d pairs non-fusible second half %v", f, p[1])
			}
		}
	}
}

// CheckBlockDescriptors recomputes m's block descriptors by brute force from
// its relocated code — each body walked instruction by instruction, costed by
// the reference interpreter's refCost, a self-loop wherever the instruction
// ending it is a jmp back to the entry — and reports the first entry of the
// shared table that disagrees.
func CheckBlockDescriptors(m *Machine) error {
	code, desc := m.code, m.desc
	if len(desc) != len(code)+1 || desc[len(code)] != 0 {
		return fmt.Errorf("%d descriptors ending %#x for %d instructions, want %d ending 0",
			len(desc), desc[len(desc)-1], len(code), len(code)+1)
	}
	for i := range code {
		end, cost := i, uint64(0)
		for ; end < len(code); end++ {
			op := code[end].Op
			if op.IsBranch() || op == OpSyscall || op >= OpHalt {
				break
			}
			cost += refCost(op)
		}
		want := uint64(end-i) | cost<<descCycShift
		if end < len(code) && code[end].Op == OpJmp && int(code[end].Imm) == i {
			want |= descSelfLoop
		}
		if desc[i] != want {
			return fmt.Errorf("descriptor %d = %#x (length %d, cycles %d), want %#x (length %d, cycles %d, ended by %v)",
				i, desc[i], uint32(desc[i]), desc[i]>>descCycShift, want, end-i, cost, m.InstrAt(end))
		}
	}
	return nil
}
