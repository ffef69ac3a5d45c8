package experiments

import (
	"fmt"
	"time"

	"sweeper/internal/asm"
	"sweeper/internal/vm"
)

// DispatchMicro holds the interpreter-dispatch micro-benchmark results: what
// one instruction costs on each of the VM's two engines. The workload is the
// ALU+stack spin loop the vm package's BenchmarkUntooledStep uses, so the JSON
// trajectory and `go test -bench` measure the same thing.
type DispatchMicro struct {
	// UntooledStepNs is ns per instruction on the fused block engine (the
	// live guest hot path).
	UntooledStepNs float64
	// TooledStepNs is ns per instruction on the hook-calling engine with one
	// no-op instruction hook attached — the monitored-guest and
	// analysis-replay configuration.
	TooledStepNs float64
}

// nopInstrTool is the cheapest possible InstrHook, so TooledStepNs measures
// dispatch overhead rather than tool work.
type nopInstrTool struct{}

func (nopInstrTool) Name() string                                     { return "experiments.nop" }
func (nopInstrTool) BeforeInstr(m *vm.Machine, idx int, in *vm.Instr) {}

// RunDispatchMicro measures per-instruction interpreter cost on the spin
// loop, for benchtables -json.
func RunDispatchMicro() (*DispatchMicro, error) {
	build := func() (*vm.Machine, error) {
		b := asm.New("spin")
		b.Func("main")
		b.MovI(vm.R1, 0)
		b.Label("main.loop")
		b.AddI(vm.R1, 1)
		b.Push(vm.R1)
		b.Pop(vm.R2)
		b.Jmp("main.loop")
		prog, err := b.Build()
		if err != nil {
			return nil, err
		}
		return vm.NewMachine(prog, vm.DefaultLayout(), nil)
	}

	const steps = 2_000_000
	perInstr := func(prep func(m *vm.Machine)) (float64, error) {
		m, err := build()
		if err != nil {
			return 0, err
		}
		prep(m)
		m.Run(100_000) // warm up: map the stack page, settle caches and branch state
		ns := bestOfRounds(5, func() float64 {
			start := time.Now()
			if stop := m.Run(steps); stop.Reason != vm.StopInstrBudget {
				return -1
			}
			return float64(time.Since(start).Nanoseconds()) / steps
		})
		if ns < 0 {
			return 0, fmt.Errorf("experiments: dispatch micro: spin loop stopped unexpectedly")
		}
		return ns, nil
	}

	res := &DispatchMicro{}
	var err error
	if res.UntooledStepNs, err = perInstr(func(m *vm.Machine) {}); err != nil {
		return nil, err
	}
	if res.TooledStepNs, err = perInstr(func(m *vm.Machine) { m.AttachTool(nopInstrTool{}) }); err != nil {
		return nil, err
	}
	return res, nil
}
