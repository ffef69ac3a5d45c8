// Package vm implements a small 32-bit register virtual machine with
// per-instruction, per-memory-access and per-call instrumentation hooks.
//
// The VM stands in for the paper's combination of real x86 binaries and the
// PIN dynamic binary instrumentation framework: analysis tools (memory-bug
// detection, dynamic taint analysis, backward slicing) and antibodies (VSEFs)
// attach and detach instrumentation at runtime, exactly as Sweeper attaches
// PIN tools to a replayed execution after an attack is detected.
package vm

import "fmt"

// Reg identifies a machine register.
type Reg uint8

// General purpose and special registers. R0 carries return values and
// syscall numbers; R1-R3 carry arguments. SP is the stack pointer and BP
// the frame base pointer.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	SP
	BP
	// NumRegs is the number of addressable registers.
	NumRegs
	// RegNone marks an unused register operand.
	RegNone Reg = 0xFF
)

var regNames = [...]string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "sp", "bp"}

// String returns the assembler name of the register.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r?%d", uint8(r))
}

// Op is an instruction opcode.
type Op uint8

// Instruction opcodes. Arithmetic/logic ops come in register (Rd op= Rs) and
// immediate (Rd op= Imm) forms so analysis tools can tell data sources apart
// without decoding addressing modes.
const (
	OpNop Op = iota

	OpMovI // Rd = Imm
	OpMov  // Rd = Rs
	OpLea  // Rd = Rs + Imm

	OpLoadB  // Rd = zeroext(mem8[Rs+Imm])
	OpLoadW  // Rd = mem32[Rs+Imm]
	OpStoreB // mem8[Rd+Imm] = low8(Rs)
	OpStoreW // mem32[Rd+Imm] = Rs

	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr

	OpAddI
	OpSubI
	OpMulI
	OpDivI
	OpModI
	OpAndI
	OpOrI
	OpXorI
	OpShlI
	OpShrI

	OpCmp  // flags = sign(Rd - Rs)
	OpCmpI // flags = sign(Rd - Imm)

	OpJmp // PC = Imm (instruction index)
	OpJz
	OpJnz
	OpJlt
	OpJle
	OpJgt
	OpJge
	OpJmpReg // PC = addr in Rd (indirect jump)

	OpCall    // push return address; PC = Imm
	OpCallReg // push return address; PC = addr in Rd (indirect call)
	OpRet     // pop return address

	OpPush  // push Rd
	OpPushI // push Imm
	OpPop   // Rd = pop

	OpSyscall // invoke host syscall handler; number in R0
	OpHalt    // stop the machine

	numOps
)

var opNames = [...]string{
	OpNop:  "nop",
	OpMovI: "movi", OpMov: "mov", OpLea: "lea",
	OpLoadB: "loadb", OpLoadW: "loadw", OpStoreB: "storeb", OpStoreW: "storew",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpAddI: "addi", OpSubI: "subi", OpMulI: "muli", OpDivI: "divi", OpModI: "modi",
	OpAndI: "andi", OpOrI: "ori", OpXorI: "xori", OpShlI: "shli", OpShrI: "shri",
	OpCmp: "cmp", OpCmpI: "cmpi",
	OpJmp: "jmp", OpJz: "jz", OpJnz: "jnz", OpJlt: "jlt", OpJle: "jle", OpJgt: "jgt", OpJge: "jge",
	OpJmpReg: "jmpr",
	OpCall:   "call", OpCallReg: "callr", OpRet: "ret",
	OpPush: "push", OpPushI: "pushi", OpPop: "pop",
	OpSyscall: "syscall", OpHalt: "halt",
}

// String returns the assembler mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op?%d", uint8(o))
}

// IsBranch reports whether the opcode may change control flow.
func (o Op) IsBranch() bool { return opEffects[o].Branch }

// IsCondBranch reports whether the opcode is a conditional branch.
func (o Op) IsCondBranch() bool { return opEffects[o].Branch && opEffects[o].ReadsFlags }

// IsLoad reports whether the opcode reads from memory (excluding pops).
func (o Op) IsLoad() bool { a := &opEffects[o].Mem; return a.Size != 0 && !a.Write && a.Base != SP }

// IsStore reports whether the opcode writes to memory (excluding pushes).
func (o Op) IsStore() bool { a := &opEffects[o].Mem; return a.Write && a.Base != SP }

// InstrSize is the notional encoded size of one instruction in bytes; code
// addresses are CodeBase + InstrSize*index.
const InstrSize = 4

// Instr is a single decoded instruction. Instructions are stored decoded;
// the notional encoding occupies InstrSize bytes so that every instruction
// has a unique address usable in VSEFs and stored return addresses.
type Instr struct {
	Op  Op
	Rd  Reg    // destination / base register
	Rs  Reg    // source register
	Imm int32  // immediate, displacement or branch target (instruction index)
	Sym string // enclosing function symbol, for diagnostics and VSEF context
}

// The operand fields, as Effects names a register an instruction takes from
// its Rd or Rs.
const (
	OperandRd Reg = 0xF0 + iota
	OperandRs
)

// Reg resolves r, a register Effects names, against the instruction: its Rd
// or Rs for an operand field, r itself for a fixed register.
func (in *Instr) Reg(r Reg) Reg {
	if r >= OperandRd {
		return [2]Reg{in.Rd, in.Rs}[r-OperandRd]
	}
	return r
}

// String renders the instruction in assembler-like syntax.
func (in Instr) String() string {
	switch in.Op {
	case OpNop, OpRet, OpHalt, OpSyscall:
		return in.Op.String()
	case OpMovI:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Rd, in.Imm)
	case OpMov:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Rd, in.Rs)
	case OpLea:
		return fmt.Sprintf("%s %s, [%s%+d]", in.Op, in.Rd, in.Rs, in.Imm)
	case OpLoadB, OpLoadW:
		return fmt.Sprintf("%s %s, [%s%+d]", in.Op, in.Rd, in.Rs, in.Imm)
	case OpStoreB, OpStoreW:
		return fmt.Sprintf("%s [%s%+d], %s", in.Op, in.Rd, in.Imm, in.Rs)
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl, OpShr, OpCmp:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Rd, in.Rs)
	case OpAddI, OpSubI, OpMulI, OpDivI, OpModI, OpAndI, OpOrI, OpXorI, OpShlI, OpShrI, OpCmpI:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Rd, in.Imm)
	case OpJmp, OpJz, OpJnz, OpJlt, OpJle, OpJgt, OpJge, OpCall:
		return fmt.Sprintf("%s @%d", in.Op, in.Imm)
	case OpJmpReg, OpCallReg:
		return fmt.Sprintf("%s %s", in.Op, in.Rd)
	case OpPush, OpPop:
		return fmt.Sprintf("%s %s", in.Op, in.Rd)
	case OpPushI:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	}
	return fmt.Sprintf("%s rd=%s rs=%s imm=%d", in.Op, in.Rd, in.Rs, in.Imm)
}
