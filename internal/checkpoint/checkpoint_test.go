package checkpoint_test

import (
	"runtime"
	"testing"
	"time"

	"sweeper/internal/apps"
	"sweeper/internal/checkpoint"
	"sweeper/internal/exploit"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

func newCVSProcess(t *testing.T, nRequests int) *proc.Process {
	t.Helper()
	spec, err := apps.ByName("cvs")
	if err != nil {
		t.Fatal(err)
	}
	proxy := netproxy.New()
	for i := 0; i < nRequests; i++ {
		proxy.Submit(exploit.CVSBenign(i), "client", false)
	}
	p, err := proc.New(spec.Name, spec.Image, vm.DefaultLayout(), proxy, spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDefaultPolicy(t *testing.T) {
	pol := checkpoint.DefaultPolicy()
	if pol.IntervalMs != 200 || pol.MaxKept != 20 {
		t.Errorf("default policy %+v", pol)
	}
	m := checkpoint.NewManager(checkpoint.Policy{})
	if m.Policy().IntervalMs != 200 || m.Policy().MaxKept != 20 {
		t.Errorf("zero policy should fall back to defaults: %+v", m.Policy())
	}
}

func TestCheckpointRingEviction(t *testing.T) {
	p := newCVSProcess(t, 0)
	m := checkpoint.NewManager(checkpoint.Policy{IntervalMs: 1, MaxKept: 3})
	for i := 0; i < 5; i++ {
		m.Checkpoint(p)
	}
	if m.Count() != 3 {
		t.Errorf("ring holds %d, want 3", m.Count())
	}
	if m.Taken() != 5 {
		t.Errorf("taken = %d", m.Taken())
	}
	if m.Oldest().SeqNo != 3 || m.Latest().SeqNo != 5 {
		t.Errorf("oldest/latest seq = %d/%d", m.Oldest().SeqNo, m.Latest().SeqNo)
	}
	if got := m.Snapshots(); len(got) != 3 || got[0].SeqNo != 3 {
		t.Errorf("snapshots = %v", got)
	}
}

func TestMaybeCheckpointRespectsInterval(t *testing.T) {
	p := newCVSProcess(t, 30)
	m := checkpoint.NewManager(checkpoint.Policy{IntervalMs: 50, MaxKept: 10})
	first := m.MaybeCheckpoint(p)
	if first == nil {
		t.Fatal("first MaybeCheckpoint should always take one")
	}
	// Immediately asking again must not take another (no virtual time passed).
	if m.MaybeCheckpoint(p) != nil {
		t.Error("checkpoint taken before the interval elapsed")
	}
	// Serve the whole workload; tens of requests advance the virtual clock
	// well past the 50 ms interval.
	if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
		t.Fatalf("serving failed: %v", stop.Reason)
	}
	if p.Machine.NowMillis() <= first.TakenAtMs+50 {
		t.Fatalf("workload too short to advance the virtual clock (%d ms)", p.Machine.NowMillis())
	}
	second := m.MaybeCheckpoint(p)
	if second == nil {
		t.Fatal("second checkpoint never taken despite elapsed virtual time")
	}
	if second.TakenAtMs <= first.TakenAtMs || second.LogLen <= first.LogLen {
		t.Errorf("second checkpoint does not advance: %+v vs %+v", second, first)
	}
}

func TestLatestAndOldestEmpty(t *testing.T) {
	m := checkpoint.NewManager(checkpoint.DefaultPolicy())
	if m.Latest() != nil || m.Oldest() != nil || m.Count() != 0 {
		t.Error("empty manager should have no snapshots")
	}
	if _, err := m.BeforeLogIndex(0); err == nil {
		t.Error("BeforeLogIndex on empty manager should error")
	}
}

func TestBeforeLogIndex(t *testing.T) {
	p := newCVSProcess(t, 6)
	m := checkpoint.NewManager(checkpoint.Policy{IntervalMs: 1, MaxKept: 10})
	m.Checkpoint(p) // LogLen 0
	// Serve two requests, checkpoint, serve the rest.
	for p.ServedRequests() < 2 {
		if stop := p.Run(10_000); stop.Reason == vm.StopWaitInput {
			break
		}
	}
	mid := m.Checkpoint(p)
	p.Run(0)

	snap, err := m.BeforeLogIndex(mid.LogLen)
	if err != nil {
		t.Fatal(err)
	}
	if snap.LogLen > mid.LogLen {
		t.Errorf("BeforeLogIndex returned a later snapshot (%d > %d)", snap.LogLen, mid.LogLen)
	}
	if snap.SeqNo != mid.SeqNo {
		t.Errorf("expected the most recent qualifying snapshot, got seq %d", snap.SeqNo)
	}
	if first, err := m.BeforeLogIndex(0); err != nil || first.LogLen != 0 {
		t.Errorf("BeforeLogIndex(0) = %+v, %v", first, err)
	}
}

func TestSnapshotIsUsableForRollback(t *testing.T) {
	p := newCVSProcess(t, 4)
	m := checkpoint.NewManager(checkpoint.Policy{IntervalMs: 1, MaxKept: 5})
	snap := m.Checkpoint(p)
	if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
		t.Fatalf("serving failed: %v", stop.Reason)
	}
	served := p.ServedRequests()
	p.Rollback(snap, proc.ModeReplay, false)
	if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
		t.Fatalf("replay failed: %v", stop.Reason)
	}
	if p.ServedRequests() != served {
		t.Errorf("replay served %d, want %d", p.ServedRequests(), served)
	}
}

// TestIncrementalCheckpointPageStats checks that steady-state checkpoints
// capture only dirty pages: each serving interval dirties a handful of
// pages, so the cumulative captured count must stay far below what full
// scans would have walked. The first checkpoint of an untouched process is
// free: the clean image is the shared base-image snapshot itself.
func TestIncrementalCheckpointPageStats(t *testing.T) {
	p := newCVSProcess(t, 12)
	m := checkpoint.NewManager(checkpoint.Policy{IntervalMs: 1, MaxKept: 50})

	first := m.Checkpoint(p)
	if first.DirtyPages != 0 {
		t.Errorf("first checkpoint of an untouched process captured %d pages, want 0 (shared base image)", first.DirtyPages)
	}
	if first.Mem.Pages() == 0 {
		t.Error("first checkpoint covers no pages; base image missing")
	}
	for i := 0; i < 6; i++ {
		if stop := p.Run(20_000); stop.Reason != vm.StopWaitInput && stop.Reason != vm.StopInstrBudget {
			t.Fatalf("run stopped: %v", stop.Reason)
		}
		s := m.Checkpoint(p)
		if s.DirtyPages >= s.Mem.Pages() && s.DirtyPages > 0 && i > 0 {
			t.Errorf("steady checkpoint %d captured %d of %d pages; expected an incremental delta", i, s.DirtyPages, s.Mem.Pages())
		}
	}
	captured, full := m.ByteStats()
	if captured >= full {
		t.Errorf("cumulative captured bytes %d not below full-scan byte walks %d", captured, full)
	}
	if m.Taken() != 7 {
		t.Errorf("Taken = %d, want 7", m.Taken())
	}
	// Every retained checkpoint must still be fully restorable.
	snaps := m.Snapshots()
	last := snaps[len(snaps)-1]
	p.Rollback(last, proc.ModeReplay, false)
	if p.Machine.Mem.MappedPages() != last.Mem.Pages() {
		t.Errorf("rollback mapped %d pages, snapshot had %d", p.Machine.Mem.MappedPages(), last.Mem.Pages())
	}
}

// TestEvictionReleasesTheSnapshotAndItsHistory: the snapshot the ring drops
// is not kept reachable by the ring's array, and with it the process drops
// the events and outputs logged before the new oldest snapshot.
func TestEvictionReleasesTheSnapshotAndItsHistory(t *testing.T) {
	p := newCVSProcess(t, 40)
	m := checkpoint.NewManager(checkpoint.Policy{IntervalMs: 1, MaxKept: 3})
	collected := make(chan struct{})
	runtime.SetFinalizer(m.Checkpoint(p), func(*proc.Snapshot) { close(collected) })
	p.OnRequestBoundary = func() { m.MaybeCheckpoint(p) }
	if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
		t.Fatalf("serving failed: %v", stop.Reason)
	}
	if m.Taken() <= 3 {
		t.Fatalf("%d checkpoints taken, the ring of 3 never evicted", m.Taken())
	}
	oldest := m.Oldest()
	if oldest.LogLen == 0 || p.Log.Base() != oldest.LogLen || p.OutputCount()-len(p.Outputs()) != oldest.OutputCount {
		t.Errorf("history starts at event %d and output %d, the oldest checkpoint at %d and %d",
			p.Log.Base(), p.OutputCount()-len(p.Outputs()), oldest.LogLen, oldest.OutputCount)
	}
	if events := p.Log.Events(); len(events) != p.Log.Len()-oldest.LogLen {
		t.Errorf("%d events retained, %d logged since the oldest checkpoint", len(events), p.Log.Len()-oldest.LogLen)
	}
	// Every retained checkpoint still replays to the live state's outputs.
	for _, snap := range m.Snapshots() {
		clone, err := p.Clone(snap)
		if err != nil {
			t.Fatal(err)
		}
		if stop := clone.Run(0); stop.Reason != vm.StopWaitInput {
			t.Fatalf("replay from checkpoint %d stopped with %v", snap.SeqNo, stop.Reason)
		}
		if diverged, why := clone.Diverged(); diverged || clone.ServedRequests() != p.ServedRequests() {
			t.Errorf("replay from checkpoint %d: diverged %v (%s), served %d of %d", snap.SeqNo, diverged, why, clone.ServedRequests(), p.ServedRequests())
		}
	}
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("the evicted snapshot is still reachable from the manager")
}
