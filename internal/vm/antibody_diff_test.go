package vm_test

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"sweeper/internal/analysis/taint"
	"sweeper/internal/apps"
	"sweeper/internal/core"
	"sweeper/internal/exploit"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// TestRealAntibodiesDifferential puts each app's real final antibody — the
// stateful VSEF kinds included: a return guard's side stack, a taint guard's
// shadow memory — on two processes at the producer's layout and drives the
// benign mix and then an attack (the exploit, or one polymorphic variant)
// through Machine.Run on one and the reference interpreter on the other, in
// Run calls of random length. Every stop must match: StopInfo (violation
// identity included), PC, registers, InstrCount, Cycles, ProbeFires and every
// mapped guest byte, and each taint guard's shadow (its tainted-byte count
// and every byte's label). The attack must end in a VSEF's violation, so the
// probes that raise are exercised as well as the ones that pass.
func TestRealAntibodiesDifferential(t *testing.T) {
	for ai, spec := range apps.All() {
		t.Run(spec.Name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.ASLRSeed = 77 + int64(ai)
			s, err := core.New(spec.Name, spec.Image, spec.Options, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ex, err := exploit.Exploit(spec)
			if err != nil {
				t.Fatal(err)
			}
			s.Submit(ex, "worm", true)
			if _, err := s.ServeAll(); err != nil {
				t.Fatal(err)
			}
			s.WaitAnalyses()
			if len(s.Attacks()) != 1 || s.Attacks()[0].FinalAntibody == nil {
				t.Fatal("the producer made no final antibody")
			}
			final := s.Attacks()[0].FinalAntibody
			variant, err := exploit.ExploitVariant(spec, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, attack := range []struct {
				name    string
				payload []byte
			}{{"exploit", ex}, {"variant", variant}} {
				t.Run(attack.name, func(t *testing.T) {
					var m [2]*proc.Process
					var in [2]*netproxy.Proxy
					for i := range m {
						in[i] = netproxy.New()
						if m[i], err = proc.New(spec.Name, spec.Image, s.Layout(), in[i], spec.Options); err != nil {
							t.Fatal(err)
						}
						if _, err := final.Apply(m[i], nil); err != nil {
							t.Fatal(err)
						}
					}
					fast, slow := m[0].Machine, m[1].Machine
					fastGuards, slowGuards := taintGuards(fast), taintGuards(slow)
					if len(fastGuards) != len(slowGuards) {
						t.Fatalf("%d taint guards fast, %d slow", len(fastGuards), len(slowGuards))
					}
					r := rand.New(rand.NewSource(int64(len(attack.payload))))
					for i := 0; i <= 12; i++ {
						payload, malicious := exploit.Benign(spec.Name, i), false
						if i == 12 {
							payload, malicious = attack.payload, true
						}
						in[0].Submit(payload, "client", malicious)
						in[1].Submit(payload, "client", malicious)
						for call := 0; ; call++ {
							label := fmt.Sprintf("request %d call %d", i, call)
							budget := uint64(1 + r.Intn(4000))
							fs, ss := fast.Run(budget), vm.RefRun(slow, budget)
							diffStop(t, label, fast, slow, fs, ss)
							switch {
							case (fs.Violation == nil) != (ss.Violation == nil):
								t.Errorf("%s: violation presence fast=%v slow=%v", label, fs.Violation, ss.Violation)
							case fs.Violation != nil && *fs.Violation != *ss.Violation:
								t.Errorf("%s: violation fast=%+v slow=%+v", label, *fs.Violation, *ss.Violation)
							}
							diffMappedMemory(t, label, fast, slow)
							for g, f := range fastGuards {
								if s := slowGuards[g]; f.TaintedBytes() != s.TaintedBytes() || !maps.Equal(f.Shadow(), s.Shadow()) {
									t.Errorf("%s: taint guard %d: %d tainted bytes fast, %d slow, or their labels differ",
										label, g, f.TaintedBytes(), s.TaintedBytes())
								}
							}
							if t.Failed() {
								return
							}
							if fs.Reason == vm.StopInstrBudget {
								continue
							}
							if malicious && fs.Reason != vm.StopViolation {
								t.Fatalf("the %s ended in %v, not a VSEF's violation", attack.name, fs.Reason)
							}
							if !malicious && fs.Reason != vm.StopWaitInput {
								t.Fatalf("%s: benign request stopped the guest with %v", label, fs.Reason)
							}
							break
						}
					}
					t.Logf("%d instructions, %d probe fires, %d taint guards", fast.InstrCount(), fast.ProbeFires(), len(fastGuards))
					if fast.ProbeFires() == 0 {
						t.Error("no probe fired")
					}
				})
			}
		})
	}
}

// taintGuard is what the differential reads of a taint guard's probe: its
// tracker's shadow.
type taintGuard interface {
	TaintedBytes() int
	Shadow() map[uint32]taint.Label
}

// taintGuards returns the distinct taint guards among m's probes, in the
// order of the first instruction each is on.
func taintGuards(m *vm.Machine) []taintGuard {
	var out []taintGuard
	seen := map[vm.Probe]bool{}
	for idx := range m.Code() {
		for _, p := range m.ProbesAt(idx) {
			if g, ok := p.(taintGuard); ok && !seen[p] {
				seen[p] = true
				out = append(out, g)
			}
		}
	}
	return out
}

// diffMappedMemory compares every mapped page of two machines byte for byte.
func diffMappedMemory(t *testing.T, label string, fast, slow *vm.Machine) {
	t.Helper()
	fb, sb := fast.Mem.MappedPageBases(), slow.Mem.MappedPageBases()
	if fmt.Sprint(fb) != fmt.Sprint(sb) {
		t.Errorf("%s: mapped pages differ: %d fast, %d slow", label, len(fb), len(sb))
		return
	}
	for _, base := range fb {
		f, _ := fast.Mem.ReadBytes(base, vm.PageSize)
		s, _ := slow.Mem.ReadBytes(base, vm.PageSize)
		if string(f) != string(s) {
			t.Errorf("%s: page %#x differs", label, base)
			return
		}
	}
}
