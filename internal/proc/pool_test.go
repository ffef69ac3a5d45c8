package proc

import (
	"fmt"
	"testing"

	"sweeper/internal/netproxy"
	"sweeper/internal/vm"
)

// probeStub is a dummy probe/tool a previous sandbox user might leave behind.
type probeStub struct{ name string }

func (p probeStub) Name() string                                 { return p.name }
func (p probeStub) OnProbe(m *vm.Machine, idx int, in *vm.Instr) {}

// poolTestProcess builds a served-up process with a snapshot covering a
// replay window of n requests.
func poolTestProcess(t *testing.T, n int) (*Process, *Snapshot) {
	t.Helper()
	p, proxy := newCloneTestProcess(t)
	snap := p.Snapshot(1)
	for i := 0; i < n; i++ {
		proxy.Submit([]byte(fmt.Sprintf("req-%d....", i)), "client", false)
	}
	if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
		t.Fatalf("live run stopped with %v", stop.Reason)
	}
	return p, snap
}

// TestClonePoolReusesShells checks the pool actually reuses shells and that a
// reused shell replays exactly like a fresh clone.
func TestClonePoolReusesShells(t *testing.T) {
	p, snap := poolTestProcess(t, 6)
	pool := NewClonePool(p)

	first, err := pool.Get(snap)
	if err != nil {
		t.Fatal(err)
	}
	first.Run(0)
	pool.Put(first)

	second, err := pool.Get(snap)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("pool built a fresh clone while an idle shell was available")
	}
	if created, reused := pool.Stats(); created != 1 || reused != 1 {
		t.Fatalf("pool stats = created %d / reused %d, want 1/1", created, reused)
	}

	fresh, err := p.Clone(snap)
	if err != nil {
		t.Fatal(err)
	}
	stopPooled := second.Run(0)
	stopFresh := fresh.Run(0)
	if stopPooled.Reason != stopFresh.Reason {
		t.Errorf("stop reason: pooled %v, fresh %v", stopPooled.Reason, stopFresh.Reason)
	}
	if second.ServedRequests() != fresh.ServedRequests() {
		t.Errorf("served: pooled %d, fresh %d", second.ServedRequests(), fresh.ServedRequests())
	}
	if second.Machine.InstrCount() != fresh.Machine.InstrCount() {
		t.Errorf("instructions: pooled %d, fresh %d", second.Machine.InstrCount(), fresh.Machine.InstrCount())
	}
	if second.Machine.Cycles() != fresh.Machine.Cycles() {
		t.Errorf("virtual clock: pooled %d, fresh %d", second.Machine.Cycles(), fresh.Machine.Cycles())
	}
	if d, detail := second.Diverged(); d {
		t.Errorf("pooled replay diverged: %s", detail)
	}
}

// TestClonePoolResetIsolation is the dirty-shell test: a returned sandbox
// carrying leftover tools, probes, dropped requests, a replay stop point,
// trashed memory and registers must not leak any of it into the next
// analyzer run.
func TestClonePoolResetIsolation(t *testing.T) {
	p, snap := poolTestProcess(t, 6)
	pool := NewClonePool(p)

	dirty, err := pool.Get(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty it the way a worst-case analyzer would.
	dirty.Machine.AttachTool(probeStub{name: "leftover.tool"})
	if err := dirty.Machine.AddProbe(0, probeStub{name: "leftover.probe"}); err != nil {
		t.Fatal(err)
	}
	dirty.ExciseRequests(1, 2, 3)
	dirty.SetReplayStopBefore(p.Log.RequestsSince(snap.LogLen)[3])
	dirty.Run(2000) // partial replay: mid-request machine state
	dirty.Machine.Mem.WriteBytes(p.Machine.Layout().DataBase, []byte{0xde, 0xad, 0xbe, 0xef})
	dirty.Machine.Regs[vm.R3] = 0xdeadbeef
	pool.Put(dirty)

	clean, err := pool.Get(snap)
	if err != nil {
		t.Fatal(err)
	}
	if clean != dirty {
		t.Fatal("expected the dirty shell back")
	}
	if tools := clean.Machine.Tools(); len(tools) != 0 {
		t.Errorf("reset shell still carries tools: %v", tools)
	}
	if n := clean.Machine.ProbeCount(); n != 0 {
		t.Errorf("reset shell still carries %d probes", n)
	}
	if len(clean.excised) != 0 {
		t.Errorf("reset shell still skips requests: %v", clean.excised)
	}

	fresh, err := p.Clone(snap)
	if err != nil {
		t.Fatal(err)
	}
	clean.Run(0)
	fresh.Run(0)
	if clean.ServedRequests() != fresh.ServedRequests() {
		t.Errorf("served: reused %d, fresh %d (dropped requests or the stop point leaked?)", clean.ServedRequests(), fresh.ServedRequests())
	}
	if clean.Machine.InstrCount() != fresh.Machine.InstrCount() {
		t.Errorf("instructions: reused %d, fresh %d (state leaked)", clean.Machine.InstrCount(), fresh.Machine.InstrCount())
	}
	if d, detail := clean.Diverged(); d {
		t.Errorf("reused replay diverged: %s", detail)
	}
	// The trashed data page must have been restored from the snapshot.
	base := p.Machine.Layout().DataBase
	got, _ := clean.Machine.Mem.ReadBytes(base, 4)
	want, _ := fresh.Machine.Mem.ReadBytes(base, 4)
	if string(got) != string(want) {
		t.Errorf("data page differs after reset: % x vs fresh % x", got, want)
	}
}

// TestClonePoolIdleCap checks shells beyond the idle cap are dropped rather
// than retained forever.
func TestClonePoolIdleCap(t *testing.T) {
	p, snap := poolTestProcess(t, 1)
	pool := NewClonePool(p)
	var shells []*Process
	for i := 0; i < defaultMaxIdle+3; i++ {
		c, err := pool.Get(snap)
		if err != nil {
			t.Fatal(err)
		}
		shells = append(shells, c)
	}
	for _, c := range shells {
		pool.Put(c)
	}
	if len(pool.idle) != defaultMaxIdle {
		t.Fatalf("idle shells = %d, want cap %d", len(pool.idle), defaultMaxIdle)
	}
}

// benchProcess builds a process whose snapshot covers a small replay window,
// for the clone-setup-cost micro benchmarks.
func benchProcess(b *testing.B) (*Process, *Snapshot) {
	b.Helper()
	proxy := netproxy.New()
	p, err := New("clone-bench", cloneTestServer(), vm.DefaultLayout(), proxy, Options{})
	if err != nil {
		b.Fatal(err)
	}
	snap := p.Snapshot(1)
	for i := 0; i < 8; i++ {
		proxy.Submit([]byte(fmt.Sprintf("req-%d....", i)), "client", false)
	}
	if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
		b.Fatalf("live run stopped with %v", stop.Reason)
	}
	return p, snap
}

// BenchmarkCloneFresh measures per-analysis sandbox setup cost without the
// pool: a new Machine plus page-map copy per clone.
func BenchmarkCloneFresh(b *testing.B) {
	p, snap := benchProcess(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Clone(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClonePooled measures the same setup served from the pool: an idle
// shell reset via snapshot restore.
func BenchmarkClonePooled(b *testing.B) {
	p, snap := benchProcess(b)
	pool := NewClonePool(p)
	warm, err := pool.Get(snap)
	if err != nil {
		b.Fatal(err)
	}
	pool.Put(warm)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := pool.Get(snap)
		if err != nil {
			b.Fatal(err)
		}
		pool.Put(c)
	}
}
