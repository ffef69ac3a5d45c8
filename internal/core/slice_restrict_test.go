package core

import (
	"testing"

	"sweeper/internal/analysis/slicing"
	"sweeper/internal/exploit"
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
