package core

import (
	"testing"

	"sweeper/internal/analysis"
	"sweeper/internal/analysis/membug"
	"sweeper/internal/analysis/slicing"
	"sweeper/internal/analysis/taint"
	"sweeper/internal/exploit"
	"sweeper/internal/vm"
)

// TestSliceRestrictedWhenCulpritIsAlone sends the squid exploit as the only
// request after the guest's first checkpoint: the window then holds the
// culprit and nothing else, so the deferred slicer must take the restricted,
// focused path (there is nothing to drop, and the replay is already the
// culprit's alone) rather than slice the whole recording, and its check must
// come out consistent.
func TestSliceRestrictedWhenCulpritIsAlone(t *testing.T) {
	s, _ := newSweeperFor(t, "squid", nil)
	if !s.Submit(exploit.SquidExploit(), "worm", true) {
		t.Fatal("exploit was filtered before any antibody existed")
	}
	if _, err := s.ServeAll(); err != nil {
		t.Fatal(err)
	}
	s.WaitAnalyses()
	if len(s.Attacks()) != 1 {
		t.Fatalf("%d attacks, want 1", len(s.Attacks()))
	}
	r := s.Attacks()[0]
	r.Wait()
	res, ok := r.FindingFor(slicing.AnalyzerName).(*slicing.Result)
	if !ok {
		t.Fatalf("no slicing result (error %q)", r.ErrorFor(slicing.AnalyzerName))
	}
	t.Logf("%s; %d nodes recorded", res.Summary(), res.Recorded)
	if !r.SliceRestricted || !res.Focused {
		t.Errorf("restricted=%v focused=%v, want both", r.SliceRestricted, res.Focused)
	}
	if !r.SliceConsistent {
		t.Errorf("slice inconsistent, missing %v", r.MissingFromSlice)
	}
}

// TestSliceRecordsFewerNodesForTheCulpritAlone replays the squid attack
// window behind 20 served benign requests on clones under a slicer that
// records control dependences. With every request but the exploit excised
// by hand, it must record fewer nodes than over the whole window. And the
// slicing analyzer itself, given a context that names the culprit and
// carries both fast-tier implications, must take the restricted path and
// record exactly the culprit-alone count: its own excision is what makes
// the restricted replay the culprit's alone.
func TestSliceRecordsFewerNodesForTheCulpritAlone(t *testing.T) {
	s, _ := newSweeperFor(t, "squid", func(c *Config) { c.ASLRSeed = 1009 })
	submitBenign(s, "squid", 0, 20)
	if res, err := s.ServeAll(); err != nil || res.AttacksHandled != 0 {
		t.Fatalf("serving the benign requests: %+v, %v", res, err)
	}
	culprit, _ := s.SubmitTracked(exploit.SquidExploit(), "worm", true)
	stop := s.Process().Run(0)
	if stop.Reason != vm.StopFault {
		t.Fatalf("the exploit stopped the guest with %v, want a fault", stop.Reason)
	}
	record := func(alone bool) int {
		clone, err := s.Process().Clone(s.Checkpoints().Latest())
		if err != nil {
			t.Fatal(err)
		}
		if alone {
			for _, id := range clone.Log.RequestsSince(clone.Log.Cursor()) {
				if id != culprit {
					clone.ExciseRequests(id)
				}
			}
		}
		sl := slicing.New(slicing.Options{IncludeControlDeps: true})
		clone.Machine.AttachTool(sl)
		if stop := clone.Run(0); stop.Reason != vm.StopFault {
			t.Fatalf("culprit alone=%v: the replay stopped with %v, want the fault", alone, stop.Reason)
		}
		if sl.Truncated() || sl.NodeCount() == 0 {
			t.Fatalf("culprit alone=%v: recorded %d nodes, truncated=%v", alone, sl.NodeCount(), sl.Truncated())
		}
		return sl.NodeCount()
	}
	alone, full := record(true), record(false)
	t.Logf("%d nodes recorded for the culprit alone, %d for the whole window", alone, full)
	if alone >= full {
		t.Errorf("the exploit's request alone recorded %d nodes, the whole window %d", alone, full)
	}

	clone, err := s.Process().Clone(s.Checkpoints().Latest())
	if err != nil {
		t.Fatal(err)
	}
	ctx := analysis.NewContext()
	ctx.SetCulprit(culprit)
	ctx.Implicate(membug.AnalyzerName, stop.Fault.PC)
	ctx.Implicate(taint.AnalyzerName, stop.Fault.PC)
	f, err := slicing.Analyzer{}.Run(ctx, analysis.NewSandbox(clone, s.cfg.ReplayBudget, nil))
	if err != nil {
		t.Fatal(err)
	}
	res := f.(*slicing.Result)
	t.Logf("the analyzer: %s; %d nodes recorded", res.Summary(), res.Recorded)
	if !res.Restricted || res.Recorded != alone {
		t.Errorf("the analyzer recorded %d nodes, restricted=%v; want the culprit alone's %d, restricted", res.Recorded, res.Restricted, alone)
	}
}
