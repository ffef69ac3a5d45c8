package vm

import (
	"fmt"
	"testing"
)

// TestBuildBlocksRunLen pins the block decoder: the body length counts the
// fusible straight-line suffix from each index and is zero on terminators,
// and the cost field sums the body's cycles. A jmp back to its block's own
// start (index 3 here) is a terminator like any other.
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
		if got := desc[i]; got != uint64(wantRun[i])|wantCyc[i]<<descCycShift {
			t.Errorf("desc[%d] = length %d, cycles %d, flags %#x; want length %d, cycles %d, no flags",
				i, uint32(got), got>>descCycShift, got&^(1<<32-1)&(1<<descCycShift-1), wantRun[i], wantCyc[i])
		}
	}
}

// TestPackUopsFusionSelection pins the right-to-left pair scan: where pairs
// overlap the rightmost wins, no pair forms across a terminator or outside
// the table, a loop head keeps its pair under its opLoop, and a pair's second
// half keeps its own micro-op, so a jump into the middle of a pair runs it.
func TestPackUopsFusionSelection(t *testing.T) {
	addi := func(r Reg) Instr { return Instr{Op: OpAddI, Rd: r, Imm: 1} }
	cases := []struct {
		name  string
		code  []Instr
		want  []Op // each index's op, a loop head's as its opLoop stands for
		heads []int
	}{
		{"addi;addi;addi fuses the last two",
			[]Instr{addi(R1), addi(R2), addi(R3), {Op: OpHalt}},
			[]Op{OpAddI, fuseAddIAddI, OpAddI, OpHalt}, nil},
		{"storeb;addi;addi fuses the addi pair",
			[]Instr{{Op: OpStoreB, Rd: R1, Rs: R2}, addi(R1), addi(R3), {Op: OpHalt}},
			[]Op{OpStoreB, fuseAddIAddI, OpAddI, OpHalt}, nil},
		{"loadb;cmpi at a loop head fuses under its opLoop",
			[]Instr{
				{Op: OpLoadB, Rd: R2, Rs: R1}, // 0 head
				{Op: OpCmpI, Rd: R2},          // 1
				{Op: OpJz, Imm: 5},            // 2
				addi(R1),                      // 3
				{Op: OpJmp, Imm: 0},           // 4
				{Op: OpHalt},                  // 5
			},
			[]Op{fuseLoadBCmpI, OpCmpI, OpJz, OpAddI, OpJmp, OpHalt}, []int{0}},
		{"no pair across a terminator",
			[]Instr{{Op: OpLoadB, Rd: R2, Rs: R1}, {Op: OpJz, Imm: 3}, {Op: OpCmpI, Rd: R2}, addi(R1), {Op: OpHalt}, addi(R2)},
			[]Op{OpLoadB, OpJz, OpCmpI, OpAddI, OpHalt, OpAddI}, nil},
		{"a trailing pair at the end of the code fuses",
			[]Instr{{Op: OpMovI, Rd: R1}, {Op: OpStoreB, Rd: R1, Rs: R2}, addi(R1)},
			[]Op{OpMovI, fuseStoreBAddI, OpAddI}, nil},
		{"mov;pop and addi;push;pop stay unfused",
			[]Instr{{Op: OpMov, Rd: R1, Rs: R2}, {Op: OpPop, Rd: R3}, addi(R1), {Op: OpPush, Rd: R1}, {Op: OpPop, Rd: R2}, {Op: OpHalt}},
			[]Op{OpMov, OpPop, OpAddI, OpPush, OpPop, OpHalt}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			uops := packUops(tc.code, buildBlocks(tc.code))
			loops := markLoops(tc.code, uops)
			var heads []int
			for _, lp := range loops {
				heads = append(heads, lp.head)
			}
			if fmt.Sprint(heads) != fmt.Sprint(tc.heads) {
				t.Errorf("loop heads %v, want %v", heads, tc.heads)
			}
			for i, u := range uops {
				plain := packUop(tc.code[i])
				if Op(u&uopOpMask) == opLoop {
					u = unloopUop(u)
					if u&^uopOpMask != plain&^uopOpMask&(1<<uopOrigShift-1) {
						t.Errorf("%d: opLoop stands for %#x, want %#x's operands", i, u, plain)
					}
				} else if u&^uopOpMask != plain&^uopOpMask {
					t.Errorf("%d: operands %#x, want the plain encoding's %#x", i, u, plain)
				}
				if got := Op(u & uopOpMask); got != tc.want[i] {
					t.Errorf("%d: op %d, want %d", i, got, tc.want[i])
				}
				// The second half of a pair is the plain micro-op, so an entry
				// there runs it alone.
				if Op(u&uopOpMask) >= numOps && uops[i+1] != packUop(tc.code[i+1]) {
					t.Errorf("%d: second half %#x, want its own micro-op %#x", i+1, uops[i+1], packUop(tc.code[i+1]))
				}
			}
		})
	}
}

// TestSyntheticOpcodesDisjoint guards the synthetic opcode range and the
// fusion table. Every synthetic opcode — the three pairs, opProbe, opLoop and
// opIllegal —
// must sit above the real ISA, so the fused loop's range pre-dispatch
// (op >= numOps) is unambiguous, and inside the micro-op's opcode byte. Every
// pair must join two fusible body ops: fusible is what buildBlocks bounds runs
// by, and packUops relies on a body length >= 2 implying both halves are body
// ops. And no pair may end in a loadb: loop heads are loadbs, and markLoops
// relies on no pair's first half reading its operands from a head.
func TestSyntheticOpcodesDisjoint(t *testing.T) {
	want := map[[2]Op]Op{
		{OpAddI, OpAddI}:   fuseAddIAddI,
		{OpLoadB, OpCmpI}:  fuseLoadBCmpI,
		{OpStoreB, OpAddI}: fuseStoreBAddI,
	}
	pairs := FusionPairs()
	if len(pairs) != len(want) {
		t.Errorf("fusion table %v, want the %d pairs of %v", pairs, len(want), want)
	}
	for _, p := range pairs {
		if f, _ := fusePair(p[0], p[1]); f != want[p] {
			t.Errorf("pair %v;%v fuses as %d, want %d", p[0], p[1], f, want[p])
		}
		if !fusible(p[0]) || !fusible(p[1]) {
			t.Errorf("pair %v;%v joins a non-fusible op", p[0], p[1])
		}
		if p[1] == OpLoadB {
			t.Errorf("pair %v;%v ends in a loadb, which may be a loop head", p[0], p[1])
		}
	}
	for _, op := range []Op{fuseAddIAddI, fuseLoadBCmpI, fuseStoreBAddI, opProbe, opLoop, opIllegal} {
		if op < numOps || op > uopOpMask {
			t.Errorf("synthetic opcode %d outside (numOps=%d, %d]", op, numOps, uopOpMask)
		}
	}
}

// CheckBlockDescriptors recomputes m's block descriptors by brute force from
// its relocated code — each body walked instruction by instruction, costed by
// the reference interpreter's refCost — and reports the first entry of the
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
		if desc[i] != want {
			return fmt.Errorf("descriptor %d = %#x (length %d, cycles %d), want %#x (length %d, cycles %d, ended by %v)",
				i, desc[i], uint32(desc[i]), desc[i]>>descCycShift, want, end-i, cost, m.InstrAt(end))
		}
	}
	return nil
}
