package core

import (
	"bytes"
	"testing"

	"sweeper/internal/exploit"
	"sweeper/internal/vm"
)

// inertTool is a tool with no hooks: it changes nothing about execution, but
// a live machine that carries any tool makes recovery fall back to the
// serial replay, since only a serial replay can rebuild a tool's shadow state.
type inertTool struct{}

func (inertTool) Name() string { return "test.inert" }

// runRecoveryCycle drives one full attack-and-recovery cycle (benign traffic,
// exploit, more benign traffic) and returns the quiesced Sweeper for state
// inspection. Unless pipelined, the live machine carries an inertTool, which
// sends recovery down the serial path.
func runRecoveryCycle(t *testing.T, appName string, pipelined bool) *Sweeper {
	t.Helper()
	s, spec := newSweeperFor(t, appName, nil)
	if !pipelined {
		s.Process().Machine.AttachTool(inertTool{})
	}
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}
	const before, after = 8, 8
	submitBenign(s, appName, 0, before)
	if !s.Submit(payload, "worm", true) {
		t.Fatal("exploit was filtered before any antibody existed")
	}
	submitBenign(s, appName, before, after)
	if _, err := s.ServeAll(); err != nil {
		t.Fatalf("ServeAll: %v", err)
	}
	s.WaitAnalyses()
	if len(s.Attacks()) != 1 {
		t.Fatalf("handled %d attacks, want 1", len(s.Attacks()))
	}
	if !s.Attacks()[0].Recovered {
		t.Fatal("recovery did not complete")
	}
	return s
}

// guestPages dumps every mapped guest page for byte-level comparison.
func guestPages(t *testing.T, m *vm.Machine) map[uint32][]byte {
	t.Helper()
	out := make(map[uint32][]byte)
	for _, base := range m.Mem.MappedPageBases() {
		data, ok := m.Mem.ReadBytes(base, vm.PageSize)
		if !ok {
			t.Fatalf("mapped page %#x unreadable", base)
		}
		out[base] = data
	}
	return out
}

// TestPipelinedRecoveryMatchesSerialState proves the pipelined recovery path
// — the benign prefix replaying on a clone concurrently with the analyses,
// then adopted by the live process — leaves the guest in exactly the state
// the serial rollback-and-replay produces: byte-identical memory, identical
// registers and identical client-visible outputs. Virtual time is exempt by
// design (shrinking it is the point of the pipeline). Run under the race
// detector this also exercises the prefix clone racing the analysis clones
// over the shared snapshot and event log. The serial reference is reached the
// way production reaches it: a tool on the live machine.
func TestPipelinedRecoveryMatchesSerialState(t *testing.T) {
	for _, appName := range []string{"apache1", "apache2", "cvs", "squid"} {
		t.Run(appName, func(t *testing.T) {
			ser := runRecoveryCycle(t, appName, false)
			pip := runRecoveryCycle(t, appName, true)

			sr, pr := ser.Attacks()[0], pip.Attacks()[0]
			if sr.RecoveryPipelined {
				t.Fatal("a live machine carrying a tool took the pipelined recovery path")
			}
			if !pr.RecoveryPipelined {
				t.Fatal("a tool- and probe-free live machine fell back to the serial recovery path")
			}
			if sr.CulpritRequestID != pr.CulpritRequestID {
				t.Fatalf("culprit differs: serial %d, pipelined %d", sr.CulpritRequestID, pr.CulpritRequestID)
			}

			sm, pm := ser.Process().Machine, pip.Process().Machine
			sRegs, pRegs := sm.SaveRegs(), pm.SaveRegs()
			if sRegs.Regs != pRegs.Regs || sRegs.PC != pRegs.PC || sRegs.Flags != pRegs.Flags {
				t.Errorf("post-recovery registers differ:\nserial    %+v pc=%d flags=%d\npipelined %+v pc=%d flags=%d",
					sRegs.Regs, sRegs.PC, sRegs.Flags, pRegs.Regs, pRegs.PC, pRegs.Flags)
			}

			sPages, pPages := guestPages(t, sm), guestPages(t, pm)
			if len(sPages) != len(pPages) {
				t.Fatalf("mapped page count differs: serial %d, pipelined %d", len(sPages), len(pPages))
			}
			for base, want := range sPages {
				got, ok := pPages[base]
				if !ok {
					t.Errorf("page %#x mapped in serial run only", base)
					continue
				}
				if !bytes.Equal(want, got) {
					t.Errorf("page %#x differs between serial and pipelined recovery", base)
				}
			}

			// The clients must not be able to tell the paths apart.
			sOut, pOut := ser.Process().Outputs(), pip.Process().Outputs()
			if len(sOut) != len(pOut) {
				t.Fatalf("output count differs: serial %d, pipelined %d", len(sOut), len(pOut))
			}
			for i := range sOut {
				if sOut[i].RequestID != pOut[i].RequestID || !bytes.Equal(sOut[i].Data, pOut[i].Data) {
					t.Errorf("output %d differs between serial and pipelined recovery", i)
				}
			}
			if ss, ps := ser.Process().ServedRequests(), pip.Process().ServedRequests(); ss != ps {
				t.Errorf("served count differs: serial %d, pipelined %d", ss, ps)
			}

			// The pipeline must not make the client-observed recovery gap
			// worse; the prefix re-execution is off the critical path.
			if pr.RecoveryVirtualMs > sr.RecoveryVirtualMs {
				t.Errorf("pipelined recovery gap %d ms exceeds serial %d ms",
					pr.RecoveryVirtualMs, sr.RecoveryVirtualMs)
			}
		})
	}
}
