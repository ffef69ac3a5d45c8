package vm_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sweeper/internal/apps"
	"sweeper/internal/asm"
	"sweeper/internal/monitor"
	"sweeper/internal/vm"
	"sweeper/internal/vm/vmtest"
)

// buildMachinePair assembles a program and loads it twice, for differential
// checks: fast is executed by Machine.Run (either engine, as instrumented),
// slow by the reference interpreter vm.RefRun.
func buildMachinePair(t testing.TB, build func(b *asm.Builder)) (fast, slow *vm.Machine) {
	t.Helper()
	b := asm.New("blocktest")
	build(b)
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("assembling: %v", err)
	}
	return loadMachinePair(t, prog, func() vm.SyscallHandler { return nil })
}

// requireSecondHalfOfPair fails t unless code's instruction idx and the one
// before it form a pair of the fusion table.
func requireSecondHalfOfPair(t *testing.T, code []vm.Instr, idx int) {
	t.Helper()
	for _, pair := range vm.FusionPairs() {
		if idx > 0 && pair == [2]vm.Op{code[idx-1].Op, code[idx].Op} {
			return
		}
	}
	t.Fatalf("instruction %d (%v) is not the second half of a fusion-table pair", idx, code[idx])
}

// loadMachinePair loads prog twice, each machine with its own syscall handler
// from sys.
func loadMachinePair(t testing.TB, prog *vm.Program, sys func() vm.SyscallHandler) (fast, slow *vm.Machine) {
	t.Helper()
	fast, err := vm.NewMachine(prog, vm.DefaultLayout(), sys())
	if err != nil {
		t.Fatalf("loading fast machine: %v", err)
	}
	slow, err = vm.NewMachine(prog, vm.DefaultLayout(), sys())
	if err != nil {
		t.Fatalf("loading slow machine: %v", err)
	}
	return fast, slow
}

// diffStop compares every observable of two stopped machines: stop reason,
// fault identity, architectural state and accounting (probe deliveries
// included). The engines' contract is
// that all of these are bit-identical to the reference interpreter's.
func diffStop(t *testing.T, label string, fast, slow *vm.Machine, fs, ss *vm.StopInfo) {
	t.Helper()
	if fs.Reason != ss.Reason {
		t.Errorf("%s: stop reason fast=%v slow=%v", label, fs.Reason, ss.Reason)
	}
	switch {
	case (fs.Fault == nil) != (ss.Fault == nil):
		t.Errorf("%s: fault presence fast=%v slow=%v", label, fs.Fault, ss.Fault)
	case fs.Fault != nil:
		f, s := fs.Fault, ss.Fault
		if f.Kind != s.Kind || f.Addr != s.Addr || f.PC != s.PC ||
			f.PCAddr != s.PCAddr || f.Sym != s.Sym || f.IsWrite != s.IsWrite || f.Detail != s.Detail {
			t.Errorf("%s: fault mismatch\nfast: %+v\nslow: %+v", label, f, s)
		}
	}
	if fast.PC != slow.PC {
		t.Errorf("%s: PC fast=%d slow=%d", label, fast.PC, slow.PC)
	}
	if fast.Flags != slow.Flags {
		t.Errorf("%s: flags fast=%d slow=%d", label, fast.Flags, slow.Flags)
	}
	if fast.Regs != slow.Regs {
		t.Errorf("%s: regs fast=%v slow=%v", label, fast.Regs, slow.Regs)
	}
	if fast.Cycles() != slow.Cycles() {
		t.Errorf("%s: cycles fast=%d slow=%d", label, fast.Cycles(), slow.Cycles())
	}
	if fast.InstrCount() != slow.InstrCount() {
		t.Errorf("%s: instrs fast=%d slow=%d", label, fast.InstrCount(), slow.InstrCount())
	}
	if fast.ProbeFires() != slow.ProbeFires() {
		t.Errorf("%s: probe fires fast=%d slow=%d", label, fast.ProbeFires(), slow.ProbeFires())
	}
}

// TestNegativePCFaultAddress pins the negative-PC bugfix: a PC corrupted to
// -1 must report a clamped in-segment fault address and the raw index in the
// detail, not an address wrapped through uint32 — on both engines and the
// reference.
func TestNegativePCFaultAddress(t *testing.T) {
	for _, engine := range []string{"fused", "hooked", "reference"} {
		t.Run("engine="+engine, func(t *testing.T) {
			m, _ := buildMachinePair(t, func(b *asm.Builder) {
				b.Func("main")
				b.MovI(vm.R1, 1)
				b.Halt()
			})
			m.PC = -1
			var stop *vm.StopInfo
			switch engine {
			case "fused":
				stop = m.Run(10)
			case "hooked":
				m.AttachTool(&countingInstrTool{})
				stop = m.Run(10)
			case "reference":
				stop = vm.RefRun(m, 10)
			}
			if stop.Reason != vm.StopFault || stop.Fault == nil {
				t.Fatalf("stop = %+v, want fault", stop)
			}
			f := stop.Fault
			if f.Kind != vm.FaultBadPC {
				t.Errorf("fault kind = %v, want FaultBadPC", f.Kind)
			}
			codeBase := vm.DefaultLayout().CodeBase
			if f.Addr != codeBase {
				t.Errorf("fault addr = %#x, want clamped code base %#x", f.Addr, codeBase)
			}
			if want := "program counter -1 outside code segment [0,2)"; f.Detail != want {
				t.Errorf("fault detail = %q, want %q", f.Detail, want)
			}
		})
	}
}

// TestAddrIndexRoundTrip pins the AddrOfIndex/IndexOfAddr contract: exact
// round trips for in-range indexes, a legal but non-executable one-past-end
// address, and clamped (never fabricated) addresses outside the segment.
func TestAddrIndexRoundTrip(t *testing.T) {
	fast, _ := buildMachinePair(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovI(vm.R1, 1)
		b.AddI(vm.R1, 2)
		b.Nop()
		b.Halt()
	})
	m := fast
	const codeLen = 4
	base := vm.DefaultLayout().CodeBase

	for idx := 0; idx < codeLen; idx++ {
		addr := m.AddrOfIndex(idx)
		if want := base + uint32(idx)*vm.InstrSize; addr != want {
			t.Errorf("AddrOfIndex(%d) = %#x, want %#x", idx, addr, want)
		}
		back, ok := m.IndexOfAddr(addr)
		if !ok || back != idx {
			t.Errorf("IndexOfAddr(AddrOfIndex(%d)) = %d, %v; want exact round trip", idx, back, ok)
		}
	}

	// One-past-the-end: a legal address (a call at the last instruction
	// pushes it as the return address) that is not executable.
	pastEnd := m.AddrOfIndex(codeLen)
	if want := base + codeLen*vm.InstrSize; pastEnd != want {
		t.Errorf("AddrOfIndex(len) = %#x, want %#x", pastEnd, want)
	}
	if idx, ok := m.IndexOfAddr(pastEnd); ok {
		t.Errorf("IndexOfAddr(one-past-end) = %d, true; want rejection", idx)
	}

	// Out-of-range indexes clamp to the segment bounds instead of wrapping
	// (negative) or aliasing unrelated memory (past the end).
	for _, idx := range []int{-1, -100, -1 << 30} {
		if addr := m.AddrOfIndex(idx); addr != base {
			t.Errorf("AddrOfIndex(%d) = %#x, want clamped code base %#x", idx, addr, base)
		}
	}
	for _, idx := range []int{codeLen + 1, codeLen + 1000} {
		if addr := m.AddrOfIndex(idx); addr != pastEnd {
			t.Errorf("AddrOfIndex(%d) = %#x, want clamped segment end %#x", idx, addr, pastEnd)
		}
	}

	// Addresses that never came from AddrOfIndex are rejected.
	if _, ok := m.IndexOfAddr(base - vm.InstrSize); ok {
		t.Error("IndexOfAddr(below code base) accepted")
	}
	if _, ok := m.IndexOfAddr(base + 1); ok {
		t.Error("IndexOfAddr(misaligned) accepted")
	}
}

// TestRunBudgetBlockBoundaries sweeps Run budgets across a program with a
// known block structure — exhausting the budget exactly at a block boundary,
// one instruction before it, and midway through a block — and asserts Run and
// the reference stop with identical observables everywhere. The "pair sweep"
// does the same on a loop whose fused pair a budget can split.
func TestRunBudgetBlockBoundaries(t *testing.T) {
	// Block layout: 0 movi | 1 addi 2 addi 3 push 4 pop 5 jmp->1, with the
	// addi;addi pair (1,2) fused, so budgets land on every interesting
	// boundary.
	build := func(b *asm.Builder) {
		b.Func("main")
		b.MovI(vm.R2, 7)
		b.Label("main.loop")
		b.AddI(vm.R1, 3)
		b.AddI(vm.R3, 1)
		b.Push(vm.R1)
		b.Pop(vm.R3)
		b.Jmp("main.loop")
	}
	// Named boundary cases on top of the exhaustive sweep below: a budget of
	// n stops before instruction n, so 5 stops at the jmp terminator and 2
	// between the fused pair's halves.
	named := map[string]uint64{
		"one before block boundary": 4,
		"exactly at block boundary": 5,
		"midway through block":      3,
		"between fused pair halves": 2,
	}
	for name, budget := range named {
		t.Run(name, func(t *testing.T) {
			fast, slow := buildMachinePair(t, build)
			if name == "between fused pair halves" {
				requireSecondHalfOfPair(t, fast.Program().Code, int(budget))
			}
			fs, ss := fast.Run(budget), vm.RefRun(slow, budget)
			if fs.Reason != vm.StopInstrBudget {
				t.Errorf("budget %d: reason = %v, want StopInstrBudget", budget, fs.Reason)
			}
			diffStop(t, name, fast, slow, fs, ss)
			if got := fast.InstrCount(); got != budget {
				t.Errorf("budget %d: retired %d instructions", budget, got)
			}
		})
	}
	t.Run("sweep", func(t *testing.T) {
		for budget := uint64(1); budget <= 40; budget++ {
			fast, slow := buildMachinePair(t, build)
			fs, ss := fast.Run(budget), vm.RefRun(slow, budget)
			diffStop(t, fmt.Sprintf("budget=%d", budget), fast, slow, fs, ss)
		}
	})
	t.Run("pair sweep", func(t *testing.T) {
		// [movi add addi addi xor] jmp: the addi;addi pair at 2-3 fuses, so
		// budget 2 (and every sixth after it) ends between its halves.
		pair := func(b *asm.Builder) {
			b.Func("main")
			b.MovI(vm.R2, 7)
			b.Label("main.loop")
			b.Add(vm.R1, vm.R2)
			b.AddI(vm.R3, 1)
			b.AddI(vm.R1, 2)
			b.Xor(vm.R3, vm.R1)
			b.Jmp("main.loop")
		}
		for budget := uint64(1); budget <= 40; budget++ {
			fast, slow := buildMachinePair(t, pair)
			fs, ss := fast.Run(budget), vm.RefRun(slow, budget)
			diffStop(t, fmt.Sprintf("budget=%d", budget), fast, slow, fs, ss)
		}
	})
	t.Run("chunked resume", func(t *testing.T) {
		// Re-entering Run with small budgets must accumulate to the same
		// state as one large budget: exercises the fused-loop prologue
		// clamps and pair-split handling at every offset.
		fast, slow := buildMachinePair(t, build)
		var total uint64
		for _, chunk := range []uint64{1, 2, 3, 1, 5, 7, 2, 11, 1, 4} {
			fast.Run(chunk)
			total += chunk
		}
		ss := vm.RefRun(slow, total)
		diffStop(t, "chunked", fast, slow, &vm.StopInfo{Reason: ss.Reason}, ss)
	})
}

// TestFusedPairJumpIntoSecondHalf pins the fusion entry-point invariant: a
// branch landing on the second half of a fused pair executes the original
// un-fused instruction.
func TestFusedPairJumpIntoSecondHalf(t *testing.T) {
	build := func(b *asm.Builder) {
		b.Func("main")
		b.MovI(vm.R1, 100)
		// addi;addi fuses into one micro-op...
		b.AddI(vm.R1, 10)
		b.Label("main.second") // ...whose second half is also a jump target.
		b.AddI(vm.R1, 1)
		b.CmpI(vm.R1, 115)
		b.Jlt("main.second")
		b.Halt()
	}
	fast, slow := buildMachinePair(t, build)
	fs, ss := fast.Run(1000), vm.RefRun(slow, 1000)
	if fs.Reason != vm.StopHalt {
		t.Fatalf("fast stop = %v, want halt", fs.Reason)
	}
	diffStop(t, "jump into pair", fast, slow, fs, ss)
	if fast.Regs[vm.R1] != 115 {
		t.Errorf("R1 = %d, want 115", fast.Regs[vm.R1])
	}
}

// TestFusedPairSPEdgeCases pins SP as an operand against the reference's
// register write ordering: in push and pop, which run as two plain micro-ops,
// and in each fused pair.
func TestFusedPairSPEdgeCases(t *testing.T) {
	cases := map[string]func(b *asm.Builder){
		"pop into SP": func(b *asm.Builder) {
			b.Func("main")
			b.MovI(vm.R1, 0x5000)
			b.Push(vm.R1)
			b.Pop(vm.SP) // fused pop whose destination is SP
			b.Halt()
		},
		"push SP pop SP": func(b *asm.Builder) {
			b.Func("main")
			b.Push(vm.SP)
			b.Pop(vm.SP)
			b.Halt()
		},
		"push SP pop other": func(b *asm.Builder) {
			b.Func("main")
			b.Push(vm.SP)
			b.Pop(vm.R4)
			b.Halt()
		},
		"addi SP pair": func(b *asm.Builder) {
			b.Func("main")
			b.AddI(vm.SP, -8)
			b.AddI(vm.SP, 4)
			b.Push(vm.SP)
			b.Halt()
		},
		"loadb through SP, cmpi SP": func(b *asm.Builder) {
			b.Func("main")
			b.PushI(0x7f)
			b.LoadB(vm.SP, vm.SP, 0)
			b.CmpI(vm.SP, 0x7f)
			b.Halt()
		},
		"storeb SP through SP, addi SP": func(b *asm.Builder) {
			b.Func("main")
			b.PushI(0)
			b.StoreB(vm.SP, 1, vm.SP)
			b.AddI(vm.SP, 4)
			b.Halt()
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			fast, slow := buildMachinePair(t, build)
			fs, ss := fast.Run(1000), vm.RefRun(slow, 1000)
			diffStop(t, name, fast, slow, fs, ss)
		})
	}
}

// TestProbeParityFastPath checks that registering a probe keeps the fused
// engine bit-compatible with the reference: the probe fires the same number of
// times at the same indexes and the accounting matches.
func TestProbeParityFastPath(t *testing.T) {
	build := func(b *asm.Builder) {
		b.Func("main")
		b.MovI(vm.R1, 0)
		b.Label("main.loop")
		b.AddI(vm.R1, 1)
		b.Push(vm.R1)
		b.Pop(vm.R2)
		b.CmpI(vm.R1, 50)
		b.Jlt("main.loop")
		b.Halt()
	}
	fast, slow := buildMachinePair(t, build)
	var fastHits, slowHits []sight
	rec := func(sink *[]sight) vm.Probe {
		return recordingProbe{hits: sink}
	}
	// Probe the middle of the loop body: the fused loop must deliver it in
	// place every iteration.
	if err := fast.AddProbe(3, rec(&fastHits)); err != nil {
		t.Fatal(err)
	}
	if err := slow.AddProbe(3, rec(&slowHits)); err != nil {
		t.Fatal(err)
	}
	fs, ss := fast.Run(100000), vm.RefRun(slow, 100000)
	diffStop(t, "probed", fast, slow, fs, ss)
	if len(fastHits) != 50 || len(slowHits) != 50 {
		t.Fatalf("probe fired fast=%d slow=%d times, want 50", len(fastHits), len(slowHits))
	}
}

type recordingProbe struct{ hits *[]sight }

func (recordingProbe) Name() string { return "test.recorder" }
func (p recordingProbe) OnProbe(m *vm.Machine, idx int, in *vm.Instr) {
	*p.hits = append(*p.hits, see(m, idx))
}

// TestBlockDispatchDifferential runs randomly generated guests — ALU soup,
// loads and stores through a data segment, stack traffic, division hazards
// and dense branch webs — on the fused engine and on the reference and requires
// every observable to match, including after faults and budget exhaustion.
func TestBlockDispatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	for trial := 0; trial < 60; trial++ {
		trial := trial
		seed := rng.Int63()
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			fast, slow := buildMachinePair(t, vmtest.RandomGuest(r, 80))
			budget := uint64(200 + r.Intn(5000))
			fs, ss := fast.Run(budget), vm.RefRun(slow, budget)
			diffStop(t, fmt.Sprintf("seed=%#x budget=%d", seed, budget), fast, slow, fs, ss)

			// Guest memory must match too: data segment and the touched
			// region just under the initial stack top.
			layout := vm.DefaultLayout()
			fd, fok := fast.Mem.ReadBytes(layout.DataBase, 256)
			sd, sok := slow.Mem.ReadBytes(layout.DataBase, 256)
			if fok != sok || (fok && string(fd) != string(sd)) {
				t.Errorf("data segment diverged")
			}
			top := layout.StackTop()
			fsk, fok := fast.Mem.ReadBytes(top-256, 256)
			ssk, sok := slow.Mem.ReadBytes(top-256, 256)
			if fok != sok || (fok && string(fsk) != string(ssk)) {
				t.Errorf("stack memory diverged")
			}
		})
	}
}

// TestBlockDescriptorsMatchBruteForce pins every relocated image's block
// descriptor table — the four applications at the default and a randomized
// layout, the random-guest corpus and a self-loop — against a recomputation
// from the relocated code.
func TestBlockDescriptorsMatchBruteForce(t *testing.T) {
	if err := vm.CheckBlockDescriptors(spinMachine(t)); err != nil {
		t.Errorf("spin loop: %v", err)
	}
	for _, spec := range apps.All() {
		for _, layout := range []vm.Layout{vm.DefaultLayout(), monitor.RandomizedLayout(27)} {
			m, err := vm.NewMachine(spec.Image, layout, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := vm.CheckBlockDescriptors(m); err != nil {
				t.Errorf("%s at code base %#x: %v", spec.Name, layout.CodeBase, err)
			}
		}
	}
	rng := rand.New(rand.NewSource(0xb10c))
	for trial := 0; trial < 60; trial++ {
		m, _ := buildMachinePair(t, vmtest.RandomGuest(rand.New(rand.NewSource(rng.Int63())), 80))
		if err := vm.CheckBlockDescriptors(m); err != nil {
			t.Errorf("random guest %d: %v", trial, err)
		}
	}
}

// TestBranchesReadAnyFlags runs every conditional branch, as the terminator of
// a block and on the hooked engine, with Flags set — as a snapshot may restore
// it — to values a compare never produces, against the reference interpreter.
func TestBranchesReadAnyFlags(t *testing.T) {
	branches := map[string]func(b *asm.Builder, label string) int{
		"jz": (*asm.Builder).Jz, "jnz": (*asm.Builder).Jnz, "jlt": (*asm.Builder).Jlt,
		"jle": (*asm.Builder).Jle, "jgt": (*asm.Builder).Jgt, "jge": (*asm.Builder).Jge,
	}
	for name, branch := range branches {
		for _, flags := range []int{math.MinInt, -7, -1, 0, 1, 2, math.MaxInt} {
			for _, tooled := range []bool{false, true} {
				fast, slow := buildMachinePair(t, func(b *asm.Builder) {
					b.Func("main")
					b.AddI(vm.R2, 1)
					branch(b, "main.taken")
					b.MovI(vm.R1, 1)
					b.Halt()
					b.Label("main.taken")
					b.MovI(vm.R1, 2)
					b.Halt()
				})
				if tooled {
					fast.AttachTool(&countingInstrTool{})
					slow.AttachTool(&countingInstrTool{})
				}
				fast.Flags, slow.Flags = flags, flags
				fs, ss := fast.Run(100), vm.RefRun(slow, 100)
				diffStop(t, fmt.Sprintf("%s flags=%d tooled=%v", name, flags, tooled), fast, slow, fs, ss)
			}
		}
	}
}
