// Package monitor implements Sweeper's lightweight always-on monitoring:
// address-space randomisation (the default, near-zero-overhead detector),
// fault classification into detection events, and an optional shadow-stack
// monitor used in ablation experiments.
package monitor

import (
	"math/rand"

	"sweeper/internal/vm"
)

// DefaultEntropy is the number of random bits applied to each segment base
// (in page-sized steps). It corresponds to the 2^-12 bypass probability the
// paper's Section 6 uses for typical randomisations.
const DefaultEntropy = 12

// RandomizedLayout returns an address-space layout whose code, data, heap and
// stack bases are displaced by independent random page-aligned offsets drawn
// from a stream seeded with seed; a zero seed draws from the fixed stream
// 0x5eed5eed. Exploits carrying absolute addresses computed against
// vm.DefaultLayout() then hit unmapped memory or non-code addresses with
// probability about 1 - 2^-DefaultEntropy, turning infection attempts into
// detectable faults.
//
// The displacements span 16 MB while the default bases sit 1-2 MB apart, so
// an independent draw can drop one segment inside another (the data segment
// inside the heap region makes every heap-bounds check of a data store a
// false alarm). Such a draw is discarded and the next taken from the same
// stream, so a seed whose first draw is already disjoint keeps that layout.
func RandomizedLayout(seed int64) vm.Layout {
	if seed == 0 {
		seed = 0x5eed5eed
	}
	rng := rand.New(rand.NewSource(seed))
	slots := int64(1) << DefaultEntropy

	shift := func() uint32 {
		// Never return 0 so a randomised layout is always distinct from the
		// default one (offset in [1, slots-1] pages).
		return uint32(1+rng.Int63n(slots-1)) * vm.PageSize
	}
	for {
		l := vm.DefaultLayout()
		l.CodeBase += shift()
		l.DataBase += shift()
		l.HeapBase += shift()
		// Keep the heap below the stack; displace the stack downwards.
		l.StackBase -= shift()
		if l.Validate() == nil {
			return l
		}
	}
}

// DetectionSource says which lightweight mechanism flagged the request.
type DetectionSource uint8

// Detection sources.
const (
	SourceNone      DetectionSource = iota
	SourceFault                     // hardware fault (ASLR-induced segfault, heap corruption, ...)
	SourceViolation                 // an attached monitor/VSEF raised a violation
)

// Detection is the lightweight monitor's verdict on a stopped execution.
type Detection struct {
	Suspicious bool
	Source     DetectionSource
	Reason     string
	Fault      *vm.Fault
	Violation  *vm.Violation
}

// Classify inspects why the protected process stopped and decides whether the
// stop is a suspected attack. Faults and violations are suspicious; normal
// halts, input waits and budget stops are not.
func Classify(stop *vm.StopInfo) Detection {
	switch stop.Reason {
	case vm.StopFault:
		return Detection{
			Suspicious: true,
			Source:     SourceFault,
			Reason:     stop.Fault.Error(),
			Fault:      stop.Fault,
		}
	case vm.StopViolation:
		return Detection{
			Suspicious: true,
			Source:     SourceViolation,
			Reason:     stop.Violation.Error(),
			Violation:  stop.Violation,
		}
	default:
		return Detection{Suspicious: false}
	}
}

// ShadowStack is an optional lightweight monitor that keeps a host-side copy
// of every pushed return address and raises a violation when a return pops a
// different value (the "separate return-address stack" the paper describes as
// an alternative to stack canaries). It only hooks calls and returns, so its
// overhead is proportional to call density, not instruction count.
type ShadowStack struct {
	entries []shadowEntry
	// Smashes counts detected mismatches (for tests and reports).
	Smashes int
}

type shadowEntry struct {
	slot uint32
	addr uint32
}

// NewShadowStack returns an empty shadow-stack monitor.
func NewShadowStack() *ShadowStack { return &ShadowStack{} }

// Name implements vm.Tool.
func (s *ShadowStack) Name() string { return "monitor.shadow-stack" }

// OnCall implements vm.CallHook.
func (s *ShadowStack) OnCall(m *vm.Machine, idx, targetIdx int, retAddr, retSlot uint32) {
	s.entries = append(s.entries, shadowEntry{slot: retSlot, addr: retAddr})
}

// OnRet implements vm.CallHook.
func (s *ShadowStack) OnRet(m *vm.Machine, idx int, retAddr, retSlot uint32) {
	// Pop entries belonging to frames already unwound (longjmp-like flows).
	for len(s.entries) > 0 && s.entries[len(s.entries)-1].slot < retSlot {
		s.entries = s.entries[:len(s.entries)-1]
	}
	if len(s.entries) == 0 {
		return
	}
	top := s.entries[len(s.entries)-1]
	if top.slot != retSlot {
		return
	}
	s.entries = s.entries[:len(s.entries)-1]
	if top.addr != retAddr {
		s.Smashes++
		m.RaiseViolation(&vm.Violation{
			Kind:   vm.ViolationReturnAddress,
			Tool:   s.Name(),
			Addr:   retSlot,
			Detail: "return address does not match shadow stack",
		})
	}
}

// Depth returns the current shadow-stack depth (exported for tests).
func (s *ShadowStack) Depth() int { return len(s.entries) }

// OnRollback implements vm.RollbackHook: entries pushed by the abandoned
// execution describe frames that no longer exist after the process rolls
// back to a checkpoint; the replay re-pushes frames as it re-enters them.
func (s *ShadowStack) OnRollback(m *vm.Machine) { s.entries = s.entries[:0] }
