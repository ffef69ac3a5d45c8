package core

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"sync/atomic"
	"testing"

	"sweeper/internal/analysis"
	"sweeper/internal/analysis/membug"
	"sweeper/internal/analysis/slicing"
	"sweeper/internal/analysis/taint"
	"sweeper/internal/antibody"
	"sweeper/internal/checkpoint"
	"sweeper/internal/exploit"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/replay"
	"sweeper/internal/vm"
)

// serveSmall offers requests [from, from+n) of the small mix to s, a hundred
// at a time, and serves them.
func serveSmall(t *testing.T, s *Sweeper, mix [][]byte, from, n int) {
	t.Helper()
	for i := from; i < from+n; {
		for end := min(i+100, from+n); i < end; i++ {
			if !s.Submit(mix[i%len(mix)], "client", false) {
				t.Fatalf("benign request %d filtered", i)
			}
		}
		if _, err := s.ServeAll(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.Attacks()); n != 0 {
		t.Fatalf("%d attacks handled on benign traffic", n)
	}
}

// liveHeap is the heap still reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // finalizers run after the first; what they release goes with the second
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// memoryDigest hashes the machine's registers and every mapped page.
func memoryDigest(t *testing.T, m *vm.Machine) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	regs := m.SaveRegs()
	for _, r := range regs.Regs {
		h.Write([]byte{byte(r), byte(r >> 8), byte(r >> 16), byte(r >> 24)})
	}
	h.Write([]byte{byte(regs.PC), byte(regs.PC >> 8), byte(regs.PC >> 16), byte(regs.PC >> 24), byte(regs.Flags)})
	for _, base := range m.Mem.MappedPageBases() {
		data, ok := m.Mem.ReadBytes(base, vm.PageSize)
		if !ok {
			t.Fatalf("mapped page %#x unreadable", base)
		}
		h.Write([]byte{byte(base), byte(base >> 8), byte(base >> 16), byte(base >> 24)})
		h.Write(data)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// retainedWindowIsTheRing fails unless the process holds exactly the events
// (its outputs among them) logged since its oldest retained checkpoint.
func retainedWindowIsTheRing(t *testing.T, s *Sweeper, served int) {
	t.Helper()
	p, oldest := s.Process(), s.Checkpoints().Oldest()
	if got := p.Log.Base(); got != oldest.LogLen {
		t.Fatalf("after %d requests the log starts at event %d, the oldest checkpoint at %d", served, got, oldest.LogLen)
	}
	if got := p.Log.Len() - p.Log.Base(); got != len(p.Log.Events()) {
		t.Fatalf("after %d requests Len-Base = %d, but %d events are retained", served, got, len(p.Log.Events()))
	}
}

// TestHistoryIsBounded: what a guest holds is flat in the requests it has
// served. Its log, outputs included, reaches back to its oldest checkpoint and
// no further, and its live heap after five times the traffic is what it was.
func TestHistoryIsBounded(t *testing.T) {
	first, total := 20_000, 100_000
	if testing.Short() {
		first, total = 4_000, 20_000
	}
	s, _ := newSweeperFor(t, "squid", nil)
	mix := smallMix(512)
	serveSmall(t, s, mix, 0, first)
	retainedWindowIsTheRing(t, s, first)
	window := s.Process().Log.Len() - s.Process().Log.Base()
	before := liveHeap()
	for served := first; served < total; served += first {
		serveSmall(t, s, mix, served, first)
		retainedWindowIsTheRing(t, s, served+first)
		// Every checkpoint spans the same traffic, give or take a request.
		if got := s.Process().Log.Len() - s.Process().Log.Base(); got > window+window/10 {
			t.Fatalf("after %d requests %d events are retained, %d after %d", served+first, got, window, first)
		}
	}
	after := liveHeap()
	t.Logf("live heap: %d KiB after %d requests, %d KiB after %d; %d events retained",
		before>>10, first, after>>10, total, window)
	if after > before+before/10 {
		t.Errorf("live heap grew from %d to %d bytes between %d and %d requests, want within 10%%", before, after, first, total)
	}
	runtime.KeepAlive(s)
}

// TestEveryRetainedCheckpointReplays: long after the log began discarding,
// a rollback to any checkpoint still in the ring replays to the state serial
// execution reached, outputs included; a position older than the ring gets
// an error, never some other snapshot.
func TestEveryRetainedCheckpointReplays(t *testing.T) {
	requests := 20_000
	if testing.Short() {
		requests = 3_000
	}
	s, _ := newSweeperFor(t, "squid", nil)
	p := s.Process()
	genesis := s.Checkpoints().Oldest()
	serveSmall(t, s, smallMix(512), 0, requests)
	snaps := s.Checkpoints().Snapshots()
	if len(snaps) != checkpoint.DefaultPolicy().MaxKept || snaps[0] == genesis {
		t.Fatalf("%d checkpoints retained, the first still there: %v; the ring never wrapped", len(snaps), snaps[0] == genesis)
	}

	want := memoryDigest(t, p.Machine)
	outputs := p.Outputs()
	served := p.ServedRequests()
	for _, snap := range snaps {
		p.Rollback(snap, proc.ModeReplay, false)
		if stop := p.Run(s.Config().ReplayBudget); stop.Reason != vm.StopWaitInput {
			t.Fatalf("replay from checkpoint %d stopped with %v", snap.SeqNo, stop.Reason)
		}
		if diverged, why := p.Diverged(); diverged {
			t.Errorf("replay from checkpoint %d diverged: %s", snap.SeqNo, why)
		}
		if got := memoryDigest(t, p.Machine); got != want {
			t.Errorf("replay from checkpoint %d (log index %d) ends in different memory", snap.SeqNo, snap.LogLen)
		}
		if p.ServedRequests() != served {
			t.Errorf("replay from checkpoint %d ends at %d requests served, want %d", snap.SeqNo, p.ServedRequests(), served)
		}
		got := p.Outputs()
		if len(got) != len(outputs) {
			t.Fatalf("replay from checkpoint %d changed the output stream: %d records, were %d", snap.SeqNo, len(got), len(outputs))
		}
		for i := range got {
			if got[i].RequestID != outputs[i].RequestID || !bytes.Equal(got[i].Data, outputs[i].Data) {
				t.Fatalf("replay from checkpoint %d changed output record %d", snap.SeqNo, i)
			}
		}
	}
	p.SetMode(proc.ModeLive)

	for _, at := range []int{0, genesis.LogLen, snaps[0].LogLen - 1} {
		if snap, err := s.Checkpoints().BeforeLogIndex(at); err == nil {
			t.Errorf("BeforeLogIndex(%d) returned checkpoint %d (log index %d); the ring starts at %d", at, snap.SeqNo, snap.LogLen, snaps[0].LogLen)
		}
	}
	if _, err := p.Clone(genesis); err == nil {
		t.Error("Clone of an evicted checkpoint succeeded; its events are gone")
	}
	pool := proc.NewClonePool(p)
	shell, err := pool.Get(snaps[0])
	if err != nil {
		t.Fatalf("pooled clone of the oldest retained checkpoint: %v", err)
	}
	pool.Put(shell)
	if _, err := pool.Get(genesis); err == nil {
		t.Error("a pooled shell was reset to an evicted checkpoint")
	}
}

// finalizedSlicing runs the stock slicing analyzer and counts, through a
// finalizer, when the dependence tracker it attached becomes unreachable.
type finalizedSlicing struct {
	slicing.Analyzer
	attached, collected *atomic.Int32
}

func (a finalizedSlicing) Run(ctx *analysis.Context, sb *analysis.Sandbox) (analysis.Finding, error) {
	f, err := a.Analyzer.Run(ctx, sb)
	for _, name := range sb.Machine().Tools() {
		a.attached.Add(1)
		runtime.SetFinalizer(sb.Machine().FindTool(name), func(any) { a.collected.Add(1) })
	}
	return f, err
}

// TestIdlePoolShellsReleaseTheirLastUser: a sandbox back in the clone pool is
// kept for its Machine; the slicer's recording of the attack (megabytes) does
// not stay reachable from it for the life of the daemon.
func TestIdlePoolShellsReleaseTheirLastUser(t *testing.T) {
	var attached, collected atomic.Int32
	reg := analysis.NewRegistry()
	for _, a := range []analysis.Analyzer{membug.Analyzer{}, taint.Analyzer{}, finalizedSlicing{attached: &attached, collected: &collected}} {
		if err := reg.Register(a); err != nil {
			t.Fatal(err)
		}
	}
	s, spec := newSweeperFor(t, "squid", func(c *Config) { c.Registry = reg })
	attack := func(round int) {
		t.Helper()
		payload, err := exploit.ExploitVariant(spec, round)
		if err != nil {
			t.Fatal(err)
		}
		submitBenign(s, "squid", 16*round, 8)
		s.Submit(payload, "worm", true)
		submitBenign(s, "squid", 16*round+8, 8)
		if _, err := s.ServeAll(); err != nil {
			t.Fatal(err)
		}
		s.WaitAnalyses()
	}
	attack(0)
	if len(s.Attacks()) != 1 || !s.Attacks()[0].Recovered {
		t.Fatalf("attacks %d, want one, recovered", len(s.Attacks()))
	}
	if attached.Load() == 0 {
		t.Fatal("the slicing analyzer left no tool on its sandbox to watch")
	}
	liveHeap()
	if got, want := collected.Load(), attached.Load(); got != want {
		t.Errorf("%d of %d slicing tools collected while their sandbox sits idle in the pool", got, want)
	}

	// The scrubbed shells still serve: the next attack reuses them.
	_, reusedBefore := s.ClonePoolStats()
	attack(1)
	if len(s.Attacks()) != 2 || !s.Attacks()[1].Recovered {
		t.Fatalf("second attack not handled: %d reports", len(s.Attacks()))
	}
	if _, reused := s.ClonePoolStats(); reused <= reusedBefore {
		t.Errorf("pool reuse count stayed at %d across an attack", reused)
	}
	runtime.KeepAlive(s)
}

// attackOverTCP drives a listener-fronted squid guest with warm benign
// requests, each reply checked against want, then the exploit, and returns
// the attack's report.
func attackOverTCP(t *testing.T, warm int, mix [][]byte, want map[string][]byte) *AttackReport {
	t.Helper()
	f, spec := newFleetWith(t, "squid", 1)
	g, _ := f.Guest("squid-0")
	if err := g.AttachListener("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()
	c, err := netproxy.Dial(g.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	benign := func(from, n int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			payload := mix[i%len(mix)]
			status, resp, err := c.Do(payload)
			if err != nil || status != netproxy.StatusOK {
				t.Fatalf("request %d: status %s, err %v", i, netproxy.StatusName(status), err)
			}
			if !bytes.Equal(resp, want[string(payload)]) {
				t.Fatalf("request %d: reply %q, want %q", i, resp, want[string(payload)])
			}
		}
	}
	benign(0, warm)
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if status, _, err := c.Do(payload); err != nil || status != netproxy.StatusAbsorbed {
		t.Fatalf("exploit after %d requests: status %s, err %v, want absorbed", warm, netproxy.StatusName(status), err)
	}
	benign(warm, 64)
	if status, _, err := c.Do(payload); err != nil || status != netproxy.StatusFiltered {
		t.Fatalf("repeat exploit: status %s, err %v, want filtered", netproxy.StatusName(status), err)
	}
	f.Drain()
	reports := g.Sweeper().Attacks()
	if len(reports) != 1 {
		t.Fatalf("%d attacks handled, want 1", len(reports))
	}
	return reports[0]
}

// TestFrontEndAttackAfterLongUptime: an attack on a guest that has long since
// begun discarding history is handled like one on a fresh guest — culprit
// found, attacker answered StatusAbsorbed, every benign reply byte-exact
// before and after — and yields the same final antibody.
func TestFrontEndAttackAfterLongUptime(t *testing.T) {
	if testing.Short() {
		t.Skip("socket test: run without -short")
	}
	mix := smallMix(512)
	// What the guest answers is a function of the request alone: take the
	// expected replies from an in-process guest, one request at a time.
	ref, _ := newSweeperFor(t, "squid", nil)
	want := make(map[string][]byte, len(mix))
	for _, payload := range mix {
		before := ref.Process().Log.Len()
		ref.Submit(payload, "client", false)
		if _, err := ref.ServeAll(); err != nil {
			t.Fatal(err)
		}
		var reply []byte
		for _, e := range ref.Process().Log.View(before) {
			if e.Kind == replay.EventOutput {
				reply = append(reply, e.Data...)
			}
		}
		want[string(payload)] = reply
	}

	// The antibody with what the socket's timing decides taken out: when it
	// was made, and the taint guard's instruction list, which covers the
	// benign requests that share the replay window with the exploit — as many
	// as were served since the last checkpoint, whose place among them moves
	// with each wait for input the guest's clock is charged for.
	final := func(r *AttackReport) string {
		t.Helper()
		if !r.Recovered || r.CulpritRequestID < 0 || r.FinalAntibody == nil {
			t.Fatalf("attack report: recovered %v, culprit %d, final antibody %v", r.Recovered, r.CulpritRequestID, r.FinalAntibody != nil)
		}
		a := *r.FinalAntibody
		a.CreatedAtMs = 0
		a.VSEFs = nil
		for _, v := range r.FinalAntibody.VSEFs {
			c := *v
			if len(c.TaintInstrs) == 0 != (c.Kind != antibody.VSEFTaint) {
				t.Errorf("VSEF %s of kind %s lists %d taint instructions", c.Name, c.Kind, len(c.TaintInstrs))
			}
			c.TaintInstrs = nil
			a.VSEFs = append(a.VSEFs, &c)
		}
		return marshalAll(t, []*antibody.Antibody{&a})[0]
	}
	young := attackOverTCP(t, 200, mix, want)
	old := attackOverTCP(t, 50_000, mix, want)
	if young.CulpritRequestID != 201 || old.CulpritRequestID != 50_001 {
		t.Errorf("culprits %d and %d, want requests 201 and 50001", young.CulpritRequestID, old.CulpritRequestID)
	}
	if y, o := final(young), final(old); y != o {
		t.Errorf("final antibody after 50000 requests (%d bytes) differs from the one after 200 (%d bytes)", len(o), len(y))
	}
}
