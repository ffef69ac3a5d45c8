package vm_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sweeper/internal/analysis/taint"
	"sweeper/internal/asm"
	"sweeper/internal/monitor"
	"sweeper/internal/vm"
	"sweeper/internal/vm/vmtest"
)

// sight is where a hook found the machine: the index it was called for, the
// architectural PC, and the clock and retired-instruction count as committed
// at that moment. Every engine must show every hook the same three.
type sight struct {
	idx, pc        int
	cycles, instrs uint64
}

func see(m *vm.Machine, idx int) sight { return sight{idx, m.PC, m.Cycles(), m.InstrCount()} }

// seqInstrTool records the exact firing sequence of an instruction hook.
type seqInstrTool struct {
	name string
	seq  *[]sight
}

func (t seqInstrTool) Name() string { return t.name }
func (t seqInstrTool) BeforeInstr(m *vm.Machine, idx int, in *vm.Instr) {
	*t.seq = append(*t.seq, see(m, idx))
}

// watchTool is seqInstrTool declaring the opcodes it observes: it records
// only before those. On the machine under test (t set) it fails the test when
// it is called before any other; the reference interpreter calls every
// instruction hook before every instruction, so its twin (t nil) ignores the
// rest.
type watchTool struct {
	seqInstrTool
	ops vm.OpSet
	t   *testing.T
}

func (w watchTool) ObservedOps() vm.OpSet { return w.ops }
func (w watchTool) BeforeInstr(m *vm.Machine, idx int, in *vm.Instr) {
	if w.ops.Has(in.Op) {
		w.seqInstrTool.BeforeInstr(m, idx, in)
	} else if w.t != nil {
		w.t.Errorf("%s called before %v at @%d, which it does not observe", w.name, in.Op, idx)
	}
}

// watchPair attaches a watchTool observing ops to fast (strict) and to slow.
func watchPair(t *testing.T, fast, slow *vm.Machine, ops vm.OpSet, fastSeq, slowSeq *[]sight) {
	fast.AttachTool(watchTool{seqInstrTool{"t.watch", fastSeq}, ops, t})
	slow.AttachTool(watchTool{seqInstrTool{"t.watch", slowSeq}, ops, nil})
}

// memEvent is one memory-hook callback with everything it observed.
type memEvent struct {
	sight
	addr  uint32
	size  int
	val   uint32
	write bool
}

// seqMemTool records the exact firing sequence of a memory hook.
type seqMemTool struct {
	name string
	seq  *[]memEvent
}

func (t seqMemTool) Name() string { return t.name }
func (t seqMemTool) OnMemRead(m *vm.Machine, idx int, addr uint32, size int, val uint32) {
	*t.seq = append(*t.seq, memEvent{see(m, idx), addr, size, val, false})
}
func (t seqMemTool) OnMemWrite(m *vm.Machine, idx int, addr uint32, size int, val uint32) {
	*t.seq = append(*t.seq, memEvent{see(m, idx), addr, size, val, true})
}

func diffSeq[E comparable](t *testing.T, label string, fast, slow []E) {
	t.Helper()
	if len(fast) != len(slow) {
		t.Errorf("%s: fired fast=%d slow=%d times", label, len(fast), len(slow))
		return
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Errorf("%s: firing %d fast=%+v slow=%+v", label, i, fast[i], slow[i])
			return
		}
	}
}

func diffGuestMemory(t *testing.T, label string, fast, slow *vm.Machine) {
	t.Helper()
	layout := vm.DefaultLayout()
	fd, fok := fast.Mem.ReadBytes(layout.DataBase, 256)
	sd, sok := slow.Mem.ReadBytes(layout.DataBase, 256)
	if fok != sok || (fok && string(fd) != string(sd)) {
		t.Errorf("%s: data segment diverged", label)
	}
	top := layout.StackTop()
	fsk, fok := fast.Mem.ReadBytes(top-256, 256)
	ssk, sok := slow.Mem.ReadBytes(top-256, 256)
	if fok != sok || (fok && string(fsk) != string(ssk)) {
		t.Errorf("%s: stack memory diverged", label)
	}
}

// TestTooledDispatchDifferential runs the random-guest fuzzer with
// instrumentation attached: under every tool mix — one instruction hook
// ("light"), two, memory hooks with and without instruction hooks, random
// VSEF-style probes, the real taint tracker, and an instruction hook that
// declares a random set of opcodes, alone, beside a plain one and beside
// probes — Run and the reference interpreter must agree bit for bit in
// architectural state AND in what the hooks observed: firing order, counts,
// callback arguments and the PC, clock and instruction count each callback
// could read. A declaring hook must not be called by Run before an opcode it
// does not observe.
func TestTooledDispatchDifferential(t *testing.T) {
	configs := []string{"light", "two-instr", "instr+mem", "mem-only", "probed", "taint",
		"declared", "declared+plain", "declared+probes"}
	rng := rand.New(rand.NewSource(0x7001ed))
	const perConfig = 12 // 9 configs x 12 = 108 tooled programs
	for _, cfg := range configs {
		cfg := cfg
		for k := 0; k < perConfig; k++ {
			seed := rng.Int63()
			t.Run(fmt.Sprintf("%s/trial=%d", cfg, k), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				fast, slow := buildMachinePair(t, vmtest.RandomGuest(r, 80))

				var fastInstr, slowInstr, fastInstr2, slowInstr2 []sight
				var fastMem, slowMem []memEvent
				var fastProbe, slowProbe []sight
				addProbes := func() {
					// VSEF-style probes at random PCs, including duplicates.
					for p := 0; p < 3; p++ {
						idx := 1 + r.Intn(40)
						if err := fast.AddProbe(idx, recordingProbe{hits: &fastProbe}); err != nil {
							t.Fatal(err)
						}
						if err := slow.AddProbe(idx, recordingProbe{hits: &slowProbe}); err != nil {
							t.Fatal(err)
						}
					}
				}
				switch cfg {
				case "light":
					fast.AttachTool(seqInstrTool{"t.instr", &fastInstr})
					slow.AttachTool(seqInstrTool{"t.instr", &slowInstr})
				case "two-instr":
					fast.AttachTool(seqInstrTool{"t.instr", &fastInstr})
					fast.AttachTool(seqInstrTool{"t.instr2", &fastInstr2})
					slow.AttachTool(seqInstrTool{"t.instr", &slowInstr})
					slow.AttachTool(seqInstrTool{"t.instr2", &slowInstr2})
				case "instr+mem":
					fast.AttachTool(seqInstrTool{"t.instr", &fastInstr})
					fast.AttachTool(seqMemTool{"t.mem", &fastMem})
					slow.AttachTool(seqInstrTool{"t.instr", &slowInstr})
					slow.AttachTool(seqMemTool{"t.mem", &slowMem})
				case "mem-only":
					fast.AttachTool(seqMemTool{"t.mem", &fastMem})
					slow.AttachTool(seqMemTool{"t.mem", &slowMem})
				case "probed":
					addProbes()
				case "taint":
					// The real always-on taint tracker — no input ever arrives, so
					// it must observe identical no-taint propagation on both sides.
					fast.AttachTool(taint.New(true))
					slow.AttachTool(taint.New(true))
				case "declared":
					watchPair(t, fast, slow, vm.OpSet(r.Uint64()), &fastInstr, &slowInstr)
				case "declared+plain":
					watchPair(t, fast, slow, vm.OpSet(r.Uint64()), &fastInstr, &slowInstr)
					fast.AttachTool(seqInstrTool{"t.instr2", &fastInstr2})
					slow.AttachTool(seqInstrTool{"t.instr2", &slowInstr2})
				case "declared+probes":
					watchPair(t, fast, slow, vm.OpSet(r.Uint64()), &fastInstr, &slowInstr)
					addProbes()
				}

				budget := uint64(200 + r.Intn(5000))
				fs, ss := fast.Run(budget), vm.RefRun(slow, budget)
				label := fmt.Sprintf("%s seed=%#x budget=%d", cfg, seed, budget)
				diffStop(t, label, fast, slow, fs, ss)
				diffGuestMemory(t, label, fast, slow)
				diffSeq(t, label+" instr-hook", fastInstr, slowInstr)
				diffSeq(t, label+" instr-hook2", fastInstr2, slowInstr2)
				diffSeq(t, label+" mem-hook", fastMem, slowMem)
				diffSeq(t, label+" probe", fastProbe, slowProbe)
			})
		}
	}
}

// probeHit is everything a probe can observe of the machine when it fires.
// In-loop delivery commits the fused loop's batched state before the call, so
// each hit must read exactly what a probe under the reference reads.
type probeHit struct {
	probe  string
	idx    int
	pc     int
	flags  int
	regs   [vm.NumRegs]uint32
	cycles uint64
	instrs uint64
}

// stateProbe records a probeHit per firing into a log shared by every probe
// on the machine (so the log is the machine's probe firing order) and raises
// a violation on its raiseOn-th firing (0: never).
type stateProbe struct {
	name    string
	log     *[]probeHit
	fired   *int
	raiseOn int
}

func (p stateProbe) Name() string { return p.name }
func (p stateProbe) OnProbe(m *vm.Machine, idx int, in *vm.Instr) {
	*p.log = append(*p.log, probeHit{p.name, idx, m.PC, m.Flags, m.Regs, m.Cycles(), m.InstrCount()})
	if *p.fired++; *p.fired == p.raiseOn {
		m.RaiseViolation(&vm.Violation{Kind: vm.ViolationPolicy, Tool: p.name, Detail: "test violation"})
	}
}

// probedPair is a machine for Run and one for the reference interpreter,
// running the same program under the same probes. fastSeq and slowSeq are for
// whatever other hooks a test attaches to the two. With step set, the fast
// machine is driven by Machine.Step, once per instruction of a budget.
type probedPair struct {
	fast, slow       *vm.Machine
	fastLog, slowLog []probeHit
	fastSeq, slowSeq []sight
	step             bool
	// probes lists what probe registered and remove has not taken off.
	probes []pairedProbe
}

// pairedProbe is one probe registration on both machines.
type pairedProbe struct {
	name       string
	idx        int
	fast, slow vm.Probe
}

func (pp *probedPair) runFast(budget uint64) *vm.StopInfo {
	if !pp.step {
		return pp.fast.Run(budget)
	}
	for ; budget > 0; budget-- {
		if stop := pp.fast.Step(); stop != nil {
			return stop
		}
	}
	return &vm.StopInfo{Reason: vm.StopInstrBudget}
}

func newProbedPair(t *testing.T, build func(b *asm.Builder)) *probedPair {
	fast, slow := buildMachinePair(t, build)
	return &probedPair{fast: fast, slow: slow}
}

// probe registers one probe on idx on both machines; raiseOn as in stateProbe.
func (pp *probedPair) probe(t *testing.T, name string, idx, raiseOn int) {
	t.Helper()
	reg := pairedProbe{name: name, idx: idx}
	for _, side := range []struct {
		m   *vm.Machine
		log *[]probeHit
		p   *vm.Probe
	}{{pp.fast, &pp.fastLog, &reg.fast}, {pp.slow, &pp.slowLog, &reg.slow}} {
		*side.p = stateProbe{name, side.log, new(int), raiseOn}
		if err := side.m.AddProbe(idx, *side.p); err != nil {
			t.Fatal(err)
		}
	}
	pp.probes = append(pp.probes, reg)
}

// remove takes every probe registered under name off both machines, one
// RemoveProbe per registration, and returns how many each side removed.
func (pp *probedPair) remove(name string) (fast, slow int) {
	kept := pp.probes[:0]
	for _, r := range pp.probes {
		if r.name != name {
			kept = append(kept, r)
			continue
		}
		if pp.fast.RemoveProbe(r.idx, r.fast) {
			fast++
		}
		if pp.slow.RemoveProbe(r.idx, r.slow) {
			slow++
		}
	}
	pp.probes = kept
	return fast, slow
}

// run executes budget instructions on both sides and compares the stop
// (violation identity included), architectural state, accounting, guest
// memory and the complete probe log so far. It returns the stop.
func (pp *probedPair) run(t *testing.T, label string, budget uint64) *vm.StopInfo {
	t.Helper()
	fs, ss := pp.runFast(budget), vm.RefRun(pp.slow, budget)
	diffStop(t, label, pp.fast, pp.slow, fs, ss)
	diffGuestMemory(t, label, pp.fast, pp.slow)
	switch {
	case (fs.Violation == nil) != (ss.Violation == nil):
		t.Errorf("%s: violation presence fast=%v slow=%v", label, fs.Violation, ss.Violation)
	case fs.Violation != nil && *fs.Violation != *ss.Violation:
		t.Errorf("%s: violation fast=%+v slow=%+v", label, *fs.Violation, *ss.Violation)
	}
	diffSeq(t, label+" probe", pp.fastLog, pp.slowLog)
	diffSeq(t, label+" hook", pp.fastSeq, pp.slowSeq)
	return fs
}

// resumable reports whether both machines can run on after stop: a spent
// budget, a wait for input, or a violation, which it clears (the probe or hook
// that raised it has spent its raiseOn).
func (pp *probedPair) resumable(stop *vm.StopInfo) bool {
	if stop.Reason == vm.StopViolation {
		pp.fast.ClearStop()
		pp.slow.ClearStop()
		return true
	}
	return stop.Reason == vm.StopInstrBudget || stop.Reason == vm.StopWaitInput
}

// runChunked drives both sides to total instructions in Run calls of chunk
// instructions, comparing at every stop.
func (pp *probedPair) runChunked(t *testing.T, label string, chunk, total uint64) {
	t.Helper()
	for done := uint64(0); done < total && !t.Failed(); done += chunk {
		if !pp.resumable(pp.run(t, fmt.Sprintf("%s chunk=%d at=%d", label, chunk, done), chunk)) {
			return
		}
	}
}

// TestInLoopProbesDifferential runs the fuzz corpus under random probe sets
// on the fused engine, which delivers probes inside its block loop, and on
// the reference, in Run calls of random length, and requires identical
// probe logs, Cycles(), InstrCount(), ProbeFires(), PC and StopInfo at every
// stop. Probes come and go between Run calls, and some raise violations.
func TestInLoopProbesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1009))
	for trial := 0; trial < 72; trial++ {
		seed := rng.Int63()
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) { probedTrial(t, seed) })
	}
}

// FuzzProbedDispatch is TestInLoopProbesDifferential's trial as a fuzz
// target: the seed picks the guest, the probe set and the Run lengths.
func FuzzProbedDispatch(f *testing.F) {
	for _, seed := range []int64{0, 1, 0x1009, 0x5eed, -7} {
		f.Add(seed)
	}
	f.Fuzz(probedTrial)
}

// probedTrial runs a random guest under a random probe set on Run and on the
// reference, comparing at every stop, for 40 Run calls of random length with
// probes added and removed between them.
func probedTrial(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	pp := newProbedPair(t, vmtest.RandomGuest(r, 80))
	n := len(pp.fast.Code())
	addProbes := func(k int) {
		for ; k > 0; k-- {
			raiseOn := 0
			if r.Intn(6) == 0 {
				raiseOn = 1 + r.Intn(20)
			}
			// Names repeat, so remove below takes out several;
			// indexes repeat, so some carry two probes.
			pp.probe(t, fmt.Sprintf("p%d", r.Intn(4)), r.Intn(n), raiseOn)
		}
	}
	addProbes(1 + r.Intn(10))
	for call := 0; call < 40 && !t.Failed(); call++ {
		label := fmt.Sprintf("seed=%#x call=%d", seed, call)
		if !pp.resumable(pp.run(t, label, uint64(1+r.Intn(400)))) {
			return
		}
		switch r.Intn(5) {
		case 0:
			name := fmt.Sprintf("p%d", r.Intn(4))
			if f, s := pp.remove(name); f != s {
				t.Fatalf("%s: remove(%s) fast=%d slow=%d", label, name, f, s)
			}
		case 1:
			addProbes(1 + r.Intn(3))
		}
	}
}

// FuzzHookedDispatch runs a random guest under an instruction hook that
// declares a random set of opcodes — alone, beside a plain instruction hook
// logging into the same sequence, or beside random probes, some raising — on
// Run and on the reference, in Run calls of random length, comparing at every
// stop. Run must never call the hook before an opcode outside its set.
func FuzzHookedDispatch(f *testing.F) {
	for _, seed := range []int64{0, 1, 0x7001ed, 0x5eed, -7} {
		f.Add(seed)
	}
	f.Fuzz(hookedTrial)
}

func hookedTrial(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	pp := newProbedPair(t, vmtest.RandomGuest(r, 80))
	watchPair(t, pp.fast, pp.slow, vm.OpSet(r.Uint64()), &pp.fastSeq, &pp.slowSeq)
	switch r.Intn(3) {
	case 1:
		pp.fast.AttachTool(seqInstrTool{"t.instr", &pp.fastSeq})
		pp.slow.AttachTool(seqInstrTool{"t.instr", &pp.slowSeq})
	case 2:
		for k := 1 + r.Intn(6); k > 0; k-- {
			raiseOn := 0
			if r.Intn(4) == 0 {
				raiseOn = 1 + r.Intn(20)
			}
			pp.probe(t, fmt.Sprintf("p%d", k), r.Intn(len(pp.fast.Code())), raiseOn)
		}
	}
	for call := 0; call < 20 && !t.Failed(); call++ {
		if !pp.resumable(pp.run(t, fmt.Sprintf("seed=%#x call=%d", seed, call), uint64(1+r.Intn(600)))) {
			return
		}
	}
}

// TestHookSetFollowsToolChanges changes the tools between Run calls of one
// loop iteration each — a declaring hook, then a plain one beside it, then
// the declaring one detached, then the plain one too with probes in its place
// — and checks at which instructions each hook is called after every step.
// The last step runs on the fused engine, which hands the syscall to the
// hook-calling engine with a limit of one: what it runs before the syscall
// must be the probes, not a hook left over from an earlier step.
func TestHookSetFollowsToolChanges(t *testing.T) {
	// 0 movi | 1 movi r0 2 syscall 3 addi 4 push 5 pop 6 cmpi 7 jlt->1 | 8 halt
	b := asm.New("hookset")
	b.Func("main")
	b.MovI(vm.R1, 0)
	b.Label("main.loop")
	b.MovI(vm.R0, 9)
	b.Syscall()
	b.AddI(vm.R1, 1)
	b.Push(vm.R1)
	b.Pop(vm.R2)
	b.CmpI(vm.R1, 20)
	b.Jlt("main.loop")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := loadMachinePair(t, prog, func() vm.SyscallHandler { return &stubSys{} })
	var fastWatch, slowWatch, fastPlain, slowPlain, fastProbe, slowProbe []sight
	step := func(label string, watchAt, plainAt, probeAt []int) {
		t.Helper()
		marks := [3]int{len(fastWatch), len(fastPlain), len(fastProbe)}
		fs, ss := fast.Run(7), vm.RefRun(slow, 7)
		diffStop(t, label, fast, slow, fs, ss)
		diffSeq(t, label+" watch", fastWatch, slowWatch)
		diffSeq(t, label+" plain", fastPlain, slowPlain)
		diffSeq(t, label+" probe", fastProbe, slowProbe)
		for i, c := range []struct {
			name string
			log  []sight
			want []int
		}{{"declaring hook", fastWatch, watchAt}, {"plain hook", fastPlain, plainAt}, {"probes", fastProbe, probeAt}} {
			var at []int
			for _, s := range c.log[marks[i]:] {
				at = append(at, s.idx)
			}
			if fmt.Sprint(at) != fmt.Sprint(c.want) {
				t.Errorf("%s: %s called at %v, want %v", label, c.name, at, c.want)
			}
		}
	}
	fast.Run(1)
	vm.RefRun(slow, 1)
	watchPair(t, fast, slow, vm.OpSet(1<<vm.OpSyscall|1<<vm.OpPush), &fastWatch, &slowWatch)
	step("declaring hook", []int{2, 4}, nil, nil)
	fast.AttachTool(seqInstrTool{"t.plain", &fastPlain})
	slow.AttachTool(seqInstrTool{"t.plain", &slowPlain})
	step("declaring and plain hooks", []int{2, 4}, []int{1, 2, 3, 4, 5, 6, 7}, nil)
	fast.DetachTool("t.watch")
	slow.DetachTool("t.watch")
	step("plain hook left", nil, []int{1, 2, 3, 4, 5, 6, 7}, nil)
	fast.DetachTool("t.plain")
	slow.DetachTool("t.plain")
	for _, idx := range []int{2, 4} {
		if err := fast.AddProbe(idx, recordingProbe{hits: &fastProbe}); err != nil {
			t.Fatal(err)
		}
		if err := slow.AddProbe(idx, recordingProbe{hits: &slowProbe}); err != nil {
			t.Fatal(err)
		}
	}
	if !fast.FusedEngine() {
		t.Fatal("with probes alone the fused engine should run")
	}
	step("probes only", nil, nil, []int{2, 4})
}

// TestInLoopProbesDirected places probes where in-loop delivery has a
// decision to make and sweeps the Run length from 1 up, so that a budget
// expires on, just before and just after every probed index.
func TestInLoopProbesDirected(t *testing.T) {
	type site struct {
		idx, raiseOn int
	}
	// loop: 0 movi | 1 addi 2 addi 3 addi 4 storeb 5 addi 6 cmpi 7 jlt->1 | 8 halt
	// with addi/addi (2,3) and storeb/addi (4,5) fused; 1 runs as a plain
	// micro-op.
	loop := func(b *asm.Builder) {
		b.DataSpace("scratch", 256)
		b.Func("main")
		b.LoadDataAddr(vm.R6, "scratch")
		b.Label("main.loop")
		b.AddI(vm.R1, 1)
		b.AddI(vm.R2, 5)
		b.AddI(vm.R2, -4)
		b.StoreB(vm.R6, 3, vm.R2)
		b.AddI(vm.R6, 1)
		b.CmpI(vm.R1, 12)
		b.Jlt("main.loop")
		b.Halt()
	}
	// calls: 0 movi 1 call f 2 addi 3 cmpi 4 jlt->1 5 halt | f: 6 addi 7 push 8 pop 9 ret
	calls := func(b *asm.Builder) {
		b.Func("main")
		b.MovI(vm.R1, 0)
		b.Label("main.again")
		b.Call("f")
		b.AddI(vm.R1, 1)
		b.CmpI(vm.R1, 6)
		b.Jlt("main.again")
		b.Halt()
		b.Func("f")
		b.AddI(vm.R3, 2)
		b.Push(vm.R3)
		b.Pop(vm.R4)
		b.Ret()
	}
	// spin: 0 movi | 1 addi 2 addi 3 xor 4 jmp->1: a block whose jmp comes
	// back to its own start, with addi/addi (1,2) fused.
	spin := func(b *asm.Builder) {
		b.Func("main")
		b.MovI(vm.R1, 0)
		b.Label("main.spin")
		b.AddI(vm.R1, 1)
		b.AddI(vm.R2, 3)
		b.Xor(vm.R3, vm.R1)
		b.Jmp("main.spin")
	}
	cases := []struct {
		name      string
		build     func(b *asm.Builder)
		sites     []site
		callHooks bool
	}{
		{"mid-body", loop, []site{{4, 0}}, false},
		{"second half of a fused pair", loop, []site{{3, 0}}, false},
		{"both halves of a fused pair", loop, []site{{4, 0}, {5, 0}}, false},
		{"block entry and branch", loop, []site{{1, 0}, {7, 0}}, false},
		{"every instruction", loop, []site{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}, {6, 0}, {7, 0}, {8, 0}}, false},
		{"two probes on one index", loop, []site{{6, 0}, {6, 0}}, false},
		{"violation", loop, []site{{4, 5}, {4, 0}, {6, 7}}, false},
		{"halt (Step-only terminator)", loop, []site{{8, 0}}, false},
		{"return guard: entry and ret", calls, []site{{6, 0}, {9, 0}}, false},
		{"call site and ret", calls, []site{{1, 0}, {9, 3}}, false},
		{"call and ret under a call hook", calls, []site{{1, 0}, {9, 0}, {7, 0}}, true},
		{"self-loop terminator", spin, []site{{4, 0}}, false},
		{"self-loop base", spin, []site{{1, 0}}, false},
		{"self-loop body, fused pair's second half", spin, []site{{2, 4}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A case named for a pair's second half probes one.
			if strings.Contains(tc.name, "second half") {
				requireSecondHalfOfPair(t, newProbedPair(t, tc.build).fast.Program().Code, tc.sites[0].idx)
			}
			for chunk := uint64(1); chunk <= 24 && !t.Failed(); chunk++ {
				pp := newProbedPair(t, tc.build)
				if tc.callHooks {
					pp.fast.AttachTool(monitor.NewShadowStack())
					pp.slow.AttachTool(monitor.NewShadowStack())
				}
				for i, s := range tc.sites {
					pp.probe(t, fmt.Sprintf("p%d", i), s.idx, s.raiseOn)
				}
				pp.runChunked(t, tc.name, chunk, 160)
			}
		})
	}
	t.Run("probes added and removed between Run calls", func(t *testing.T) {
		pp := newProbedPair(t, spin)
		pp.run(t, "unprobed", 7)
		pp.probe(t, "a", 2, 0)
		pp.probe(t, "b", 4, 0)
		pp.run(t, "a+b", 9)
		if f, s := pp.remove("a"); f != 1 || s != 1 {
			t.Fatal("remove(a) did not remove exactly one probe")
		}
		pp.run(t, "b only", 9)
		pp.probe(t, "c", 1, 0)
		pp.run(t, "b+c", 9)
		pp.fast.ClearProbes()
		pp.slow.ClearProbes()
		before := len(pp.fastLog)
		pp.run(t, "cleared", 9)
		if before == 0 || len(pp.fastLog) != before {
			t.Errorf("probe log went %d -> %d across a probe-free Run", before, len(pp.fastLog))
		}
	})
}
