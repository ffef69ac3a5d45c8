package vm_test

import (
	"bytes"
	"fmt"
	"testing"

	"sweeper/internal/apps"
	"sweeper/internal/asm"
	"sweeper/internal/exploit"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// The instructions the fused loop cannot express — syscalls, halts, illegal
// opcodes, a PC off the code — reach the hook-calling engine one at a time on
// an untooled machine and inside a slice on a tooled one. These tests drive
// both through every stop those instructions can produce, in Run calls of 1 to
// 4 instructions so a budget expires on, before and after each, and once more
// by Machine.Step alone (chunk 0), against the reference interpreter and
// against the outcome written down here.

// TestIllegalOpcodesFault runs threeInstrs with every opcode byte past the
// ISA in the middle — those numbered like a fused pair, opProbe or opLoop
// included — untooled, under an instruction tool, under a vm.LoopHook tool
// and with a probe on it, by Run and by Step, against the reference: each
// must fault "illegal opcode N" at index 1 after two instructions, with the
// same clock and probe deliveries.
func TestIllegalOpcodesFault(t *testing.T) {
	for op := int(vm.OpHalt) + 1; op <= 255; op++ {
		for _, under := range []string{"untooled", "instr tool", "loop tool", "probe"} {
			for _, step := range []bool{false, true} {
				label := fmt.Sprintf("op=%d %s step=%v", op, under, step)
				b := asm.New("illegal")
				threeInstrs(b)
				prog := b.MustBuild()
				prog.Code[1].Op = vm.Op(op)
				pp := &probedPair{step: step}
				pp.fast, pp.slow = loadMachinePair(t, prog, func() vm.SyscallHandler { return nil })
				switch under {
				case "instr tool":
					pp.fast.AttachTool(seqInstrTool{"t.instr", &pp.fastSeq})
					pp.slow.AttachTool(seqInstrTool{"t.instr", &pp.slowSeq})
				case "loop tool":
					pp.fast.AttachTool(newLoopShadow(nil))
					pp.slow.AttachTool(noLoopShadow{loopShadow: newLoopShadow(nil)})
				case "probe":
					pp.probe(t, "t.probe", 1, 0)
				}
				stop := pp.run(t, label, 10)
				if f := stop.Fault; f == nil || f.PC != 1 || f.Detail != fmt.Sprintf("illegal opcode %d", op) || pp.fast.InstrCount() != 2 {
					t.Fatalf("%s: stop %+v after %d instructions, want illegal opcode %d at 1 after 2", label, stop, pp.fast.InstrCount(), op)
				}
			}
		}
	}
}

// stubSys is a scripted syscall handler. Like proc's, it charges cycles and
// returns a value in R0 before deciding the outcome of call number calls.
type stubSys struct {
	calls  int
	script func(h *stubSys, m *vm.Machine) (vm.SyscallResult, *vm.Fault)
	// What a script installs mid-run records here.
	probeLog *[]probeHit
	late     []sight
}

func (h *stubSys) Syscall(m *vm.Machine, num uint32) (vm.SyscallResult, *vm.Fault) {
	h.calls++
	m.AddCycles(5)
	m.Regs[vm.R0] = num + uint32(h.calls)
	if h.script == nil {
		return vm.SysOK, nil
	}
	return h.script(h, m)
}

// sysWatch records every OnFault callback, as the faulting index negated, less
// one.
type sysWatch struct {
	seq *[]sight
}

func (w sysWatch) Name() string                       { return "test.syswatch" }
func (w sysWatch) OnFault(m *vm.Machine, f *vm.Fault) { *w.seq = append(*w.seq, see(m, -f.PC-1)) }

// syscallLoop: 0 movi | 1 movi r0 2 syscall 3 addi 4 addi 5 addi 6 cmpi 7 jlt->1 | 8 halt.
// Five syscalls at index 2, each followed by a fused addi pair at 4-5.
func syscallLoop(b *asm.Builder) {
	b.Func("main")
	b.MovI(vm.R1, 0)
	b.Label("main.loop")
	b.MovI(vm.R0, 9)
	b.Syscall()
	b.AddI(vm.R1, 1)
	b.AddI(vm.R2, 3)
	b.AddI(vm.R3, 5)
	b.CmpI(vm.R1, 5)
	b.Jlt("main.loop")
	b.Halt()
}

// threeInstrs: 0 addi 1 nop 2 addi; cases patch the middle one.
func threeInstrs(b *asm.Builder) {
	b.Func("main")
	b.AddI(vm.R1, 1)
	b.Nop()
	b.AddI(vm.R1, 1)
}

func TestSingleInstructionEntries(t *testing.T) {
	const sysIdx = 2
	type outcome struct {
		stops []*vm.StopInfo // every stop but a spent budget, in order
		sys   *stubSys       // the Run side's handler
		pp    *probedPair
	}
	cases := []struct {
		name      string
		build     func(b *asm.Builder)
		patch     func(p *vm.Program)
		noHandler bool
		script    func(h *stubSys, m *vm.Machine) (vm.SyscallResult, *vm.Fault)
		check     func(t *testing.T, o outcome)
	}{
		{name: "syscalls retire", build: syscallLoop,
			check: func(t *testing.T, o outcome) {
				if len(o.stops) != 1 || o.stops[0].Reason != vm.StopHalt || o.pp.fast.PC != 8 || o.sys.calls != 5 {
					t.Errorf("stops %v, PC %d, %d syscalls; want one halt at 8 after 5", o.stops, o.pp.fast.PC, o.sys.calls)
				}
			}},
		{name: "handler fault", build: syscallLoop,
			script: func(h *stubSys, m *vm.Machine) (vm.SyscallResult, *vm.Fault) {
				if h.calls == 3 {
					return vm.SysOK, &vm.Fault{Kind: vm.FaultHeapCorruption, Addr: 0x1234, Detail: "stub abort"}
				}
				return vm.SysOK, nil
			},
			check: func(t *testing.T, o outcome) {
				f := o.stops[0].Fault
				if f == nil || f.Kind != vm.FaultHeapCorruption || f.PC != sysIdx ||
					f.PCAddr != o.pp.fast.AddrOfIndex(sysIdx) || f.Sym != "main" || f.Detail != "stub abort" {
					t.Errorf("fault %+v, want the handler's, attributed to index %d", f, sysIdx)
				}
				if !o.pp.fast.Halted() || o.pp.fast.PC != sysIdx {
					t.Errorf("halted=%v PC=%d after a syscall fault", o.pp.fast.Halted(), o.pp.fast.PC)
				}
			}},
		{name: "SysWaitInput retried from the same PC", build: syscallLoop,
			script: func(h *stubSys, m *vm.Machine) (vm.SyscallResult, *vm.Fault) {
				if h.calls%2 == 1 {
					return vm.SysWaitInput, nil
				}
				return vm.SysOK, nil
			},
			check: func(t *testing.T, o outcome) {
				if len(o.stops) != 6 || o.sys.calls != 10 {
					t.Fatalf("%d stops, %d handler calls; want 5 waits + halt, 10 calls", len(o.stops), o.sys.calls)
				}
				for _, s := range o.stops[:5] {
					if s.Reason != vm.StopWaitInput {
						t.Errorf("stop %v, want wait-input", s.Reason)
					}
				}
			}},
		{name: "SysHalt", build: syscallLoop,
			script: func(h *stubSys, m *vm.Machine) (vm.SyscallResult, *vm.Fault) {
				if h.calls == 2 {
					return vm.SysHalt, nil
				}
				return vm.SysOK, nil
			},
			check: func(t *testing.T, o outcome) {
				if len(o.stops) != 1 || o.stops[0].Reason != vm.StopHalt || o.pp.fast.PC != sysIdx || !o.pp.fast.Halted() {
					t.Errorf("stops %v PC %d, want one halt on the syscall", o.stops, o.pp.fast.PC)
				}
			}},
		{name: "no handler installed", build: syscallLoop, noHandler: true,
			check: func(t *testing.T, o outcome) {
				if f := o.stops[0].Fault; f == nil || f.Kind != vm.FaultBadSyscall || f.PC != sysIdx || f.Addr != 9 {
					t.Errorf("fault %+v, want bad syscall 9 at %d", f, sysIdx)
				}
			}},
		{name: "halt", build: threeInstrs,
			patch: func(p *vm.Program) { p.Code[1].Op = vm.OpHalt },
			check: func(t *testing.T, o outcome) {
				if o.stops[0].Reason != vm.StopHalt || o.pp.fast.PC != 1 || o.pp.fast.InstrCount() != 2 {
					t.Errorf("stop %v PC %d instrs %d, want halt at 1 counted", o.stops[0].Reason, o.pp.fast.PC, o.pp.fast.InstrCount())
				}
			}},
		{name: "illegal opcode", build: threeInstrs,
			patch: func(p *vm.Program) { p.Code[1].Op = vm.Op(200) },
			check: func(t *testing.T, o outcome) {
				f := o.stops[0].Fault
				if f == nil || f.Kind != vm.FaultBadPC || f.PC != 1 || f.Addr != o.pp.fast.AddrOfIndex(1) || f.Detail != "illegal opcode 200" {
					t.Errorf("fault %+v, want illegal opcode 200 at 1", f)
				}
			}},
		{name: "illegal opcode numbered like a fused pair", build: threeInstrs,
			patch: func(p *vm.Program) { p.Code[1].Op = vm.OpHalt + 1 },
			check: func(t *testing.T, o outcome) {
				if f := o.stops[0].Fault; f == nil || f.Kind != vm.FaultBadPC || f.PC != 1 || o.pp.fast.InstrCount() != 2 {
					t.Errorf("fault %+v after %d instrs, want illegal opcode at 1", f, o.pp.fast.InstrCount())
				}
			}},
		{name: "PC runs off the code", build: threeInstrs,
			check: func(t *testing.T, o outcome) {
				f := o.stops[0].Fault
				if f == nil || f.Kind != vm.FaultBadPC || f.PC != 3 || f.Detail != "program counter 3 outside code segment [0,3)" || o.pp.fast.InstrCount() != 3 {
					t.Errorf("fault %+v after %d instrs, want bad PC 3 after 3", f, o.pp.fast.InstrCount())
				}
			}},
		{name: "handler adds a probe", build: syscallLoop,
			script: func(h *stubSys, m *vm.Machine) (vm.SyscallResult, *vm.Fault) {
				if h.calls == 1 {
					for _, idx := range []int{sysIdx + 1, 5} {
						if err := m.AddProbe(idx, stateProbe{"late", h.probeLog, new(int), 0}); err != nil {
							panic(err)
						}
					}
				}
				return vm.SysOK, nil
			},
			check: func(t *testing.T, o outcome) {
				// In force from the instruction after the syscall that added it.
				if log := o.pp.fastLog; len(log) != 10 || log[0].idx != sysIdx+1 || log[0].instrs != 3 || log[1].idx != 5 {
					t.Errorf("probe log %+v, want 10 hits starting at %d after 3 instructions", log, sysIdx+1)
				}
			}},
		{name: "handler attaches and detaches a tool", build: syscallLoop,
			script: func(h *stubSys, m *vm.Machine) (vm.SyscallResult, *vm.Fault) {
				switch h.calls {
				case 1:
					m.AttachTool(seqInstrTool{"late", &h.late})
				case 3:
					m.DetachTool("late")
				}
				return vm.SysOK, nil
			},
			check: func(t *testing.T, o outcome) {
				// Attached by the 1st syscall, detached by the 3rd: it sees
				// exactly the 14 instructions between them, from index 3 on.
				if late := o.sys.late; len(late) != 14 || late[0].idx != sysIdx+1 || late[0].instrs != 3 || late[13].idx != sysIdx {
					t.Errorf("late tool saw %+v, want 14 instructions from index %d to the 3rd syscall", late, sysIdx+1)
				}
			}},
	}
	for _, tc := range cases {
		for _, tooled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/tooled=%v", tc.name, tooled), func(t *testing.T) {
				for chunk := uint64(0); chunk <= 4 && !t.Failed(); chunk++ {
					b := asm.New("single")
					tc.build(b)
					prog := b.MustBuild()
					if tc.patch != nil {
						tc.patch(prog)
					}
					pp := &probedPair{step: chunk == 0}
					budget := max(chunk, 1)
					var handlers []*stubSys
					pp.fast, pp.slow = loadMachinePair(t, prog, func() vm.SyscallHandler {
						if tc.noHandler {
							return nil
						}
						h := &stubSys{script: tc.script, probeLog: &pp.fastLog}
						if len(handlers) == 1 {
							h.probeLog = &pp.slowLog
						}
						handlers = append(handlers, h)
						return h
					})
					pp.fast.AttachTool(sysWatch{&pp.fastSeq})
					pp.slow.AttachTool(sysWatch{&pp.slowSeq})
					if tooled {
						pp.fast.AttachTool(seqInstrTool{"t.instr", &pp.fastSeq})
						pp.slow.AttachTool(seqInstrTool{"t.instr", &pp.slowSeq})
					}
					if pp.fast.FusedEngine() == tooled {
						t.Fatalf("tooled=%v but FusedEngine()=%v", tooled, pp.fast.FusedEngine())
					}
					o := outcome{pp: pp}
					if len(handlers) > 0 {
						o.sys = handlers[0]
					}
					for call := 0; call < 200 && !t.Failed(); call++ {
						stop := pp.run(t, fmt.Sprintf("%s chunk=%d call=%d", tc.name, chunk, call), budget)
						if stop.Reason != vm.StopInstrBudget {
							o.stops = append(o.stops, stop)
						}
						if !pp.resumable(stop) {
							// A stopped machine stays stopped, on both sides.
							if again := pp.run(t, tc.name+" after the stop", budget); again.Reason != vm.StopHalt {
								t.Errorf("Run after %v returned %v, want halt", stop.Reason, again.Reason)
							}
							break
						}
					}
					if len(o.stops) == 0 || pp.resumable(o.stops[len(o.stops)-1]) {
						t.Fatalf("chunk=%d: guest never stopped for good: %v", chunk, o.stops)
					}
					if len(handlers) == 2 {
						if handlers[0].calls != handlers[1].calls {
							t.Errorf("chunk=%d: handler calls Run=%d reference=%d", chunk, handlers[0].calls, handlers[1].calls)
						}
						diffSeq(t, "late tool", handlers[0].late, handlers[1].late)
					}
					tc.check(t, o)
				}
			})
		}
	}
}

// TestBlockDispatchCycleAccountingParity serves the same requests, then the
// exploit, to two identical processes of each application — one executed by
// Machine.Run, one by the reference interpreter — through proc's real recv,
// send, malloc and free syscalls, checkpointing between requests, and requires
// the virtual clock, instruction counts, checkpoint timestamps, outputs and
// the final stop to agree exactly. The checkpoint interval machinery derives
// everything from Machine.Cycles(), so any per-block accounting drift would
// surface here as a shifted checkpoint or a diverged virtual timestamp.
func TestBlockDispatchCycleAccountingParity(t *testing.T) {
	for _, spec := range apps.All() {
		t.Run(spec.Name, func(t *testing.T) {
			attack, err := exploit.Exploit(spec)
			if err != nil {
				t.Fatal(err)
			}
			reqs := [][]byte{exploit.Benign(spec.Name, 0), exploit.Benign(spec.Name, 1), exploit.Benign(spec.Name, 2), attack}
			type served struct {
				cycles, instrs, takenAt []uint64
				outs                    [][]byte
				last                    *vm.StopInfo
				m                       *vm.Machine
			}
			serve := func(run func(m *vm.Machine) *vm.StopInfo) served {
				proxy := netproxy.New()
				p, err := proc.New(spec.Name, spec.Image, vm.DefaultLayout(), proxy, spec.Options)
				if err != nil {
					t.Fatal(err)
				}
				s := served{m: p.Machine}
				for seq, r := range reqs {
					proxy.Submit(r, "client", false)
					s.last = run(p.Machine)
					s.cycles = append(s.cycles, p.Machine.Cycles())
					s.instrs = append(s.instrs, p.Machine.InstrCount())
					s.takenAt = append(s.takenAt, p.Snapshot(seq).TakenAtMs)
				}
				for _, o := range p.Outputs() {
					s.outs = append(s.outs, o.Data)
				}
				return s
			}
			f := serve(func(m *vm.Machine) *vm.StopInfo { return m.Run(0) })
			s := serve(func(m *vm.Machine) *vm.StopInfo { return vm.RefRun(m, 0) })
			for i := range reqs {
				if f.cycles[i] != s.cycles[i] || f.instrs[i] != s.instrs[i] || f.takenAt[i] != s.takenAt[i] {
					t.Errorf("after request %d: cycles %d/%d, instrCount %d/%d, TakenAtMs %d/%d (Run/reference)",
						i, f.cycles[i], s.cycles[i], f.instrs[i], s.instrs[i], f.takenAt[i], s.takenAt[i])
				}
			}
			if len(f.outs) < 3 || len(f.outs) != len(s.outs) {
				t.Fatalf("outputs: %d from Run, %d from the reference, want the 3 benign replies from both", len(f.outs), len(s.outs))
			}
			for i := range f.outs {
				if !bytes.Equal(f.outs[i], s.outs[i]) {
					t.Errorf("output %d diverges: %q vs %q", i, f.outs[i], s.outs[i])
				}
			}
			if f.last.Reason == vm.StopWaitInput {
				t.Errorf("the exploit was served like a benign request")
			}
			diffStop(t, "after the exploit", f.m, s.m, f.last, s.last)
		})
	}
}
