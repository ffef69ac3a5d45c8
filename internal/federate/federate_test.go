package federate

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sweeper/internal/antibody"
	"sweeper/internal/apps"
	"sweeper/internal/core"
	"sweeper/internal/exploit"
	"sweeper/internal/metrics"
)

// daemon is one simulated sweeperd for transport tests: a store, its
// peer-facing server, a node, and a notification counter that records how
// often each antibody ID reached the store's subscribers.
type daemon struct {
	store *antibody.Store
	rec   *metrics.FederationRecorder
	srv   *httptest.Server
	node  *Node

	mu       sync.Mutex
	notified map[string]int
}

func newDaemon(t *testing.T, name string) *daemon {
	t.Helper()
	d := &daemon{
		store:    antibody.NewStore(),
		rec:      metrics.NewFederationRecorder(),
		notified: make(map[string]int),
	}
	d.store.Subscribe(func(a *antibody.Antibody) {
		d.mu.Lock()
		d.notified[a.ID]++
		d.mu.Unlock()
	})
	d.srv = httptest.NewServer(NewServer(d.store, d.rec))
	t.Cleanup(d.srv.Close)
	d.node = NewNode(d.store, d.rec, Config{Name: name, PollInterval: 5 * time.Millisecond})
	t.Cleanup(d.node.Close)
	return d
}

func (d *daemon) notifyCount(id string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.notified[id]
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func ab(id, program string) *antibody.Antibody {
	return &antibody.Antibody{ID: id, Program: program, Stage: antibody.StageFinal}
}

// TestJoinReplaysFullStore: a node joining a populated peer receives the
// peer's whole store synchronously from AddPeer (the replay-on-join path).
func TestJoinReplaysFullStore(t *testing.T) {
	seeded := newDaemon(t, "seeded")
	for i := 0; i < 5; i++ {
		seeded.store.Publish(ab(fmt.Sprintf("seed-%d", i), "squid"))
	}
	joiner := newDaemon(t, "joiner")
	if err := joiner.node.AddPeer(seeded.srv.URL); err != nil {
		t.Fatal(err)
	}
	if got := joiner.store.Len(); got != 5 {
		t.Fatalf("joiner store holds %d antibodies after join, want 5", got)
	}
	if got := joiner.rec.Snapshot().Received; got != 5 {
		t.Errorf("joiner Received = %d, want 5", got)
	}
}

// squidFinalAntibody is the final antibody a squid guest publishes after
// absorbing the exploit: its VSEFs, its exact-bytes signature and the
// exploit itself.
func squidFinalAntibody(t *testing.T) *antibody.Antibody {
	t.Helper()
	spec := apps.Squid()
	s, err := core.New(spec.Name, spec.Image, spec.Options, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.Submit(exploit.Benign(spec.Name, i), "client", false)
	}
	s.Submit(exploit.SquidExploit(), "worm", true)
	if _, err := s.ServeAll(); err != nil {
		t.Fatal(err)
	}
	s.WaitAnalyses()
	if len(s.Attacks()) != 1 || s.Attacks()[0].FinalAntibody == nil {
		t.Fatal("squid published no final antibody")
	}
	return s.Attacks()[0].FinalAntibody
}

// TestJoinStoreLargerThanOneReply: a store whose encoding is larger than
// what a peer reads of one reply (3 000 antibodies the size of squid's final
// one) still replays whole to a joiner over HTTP. When the server answered a
// pull with the whole store, the joiner read a truncated page, failed to
// decode it and held nothing.
func TestJoinStoreLargerThanOneReply(t *testing.T) {
	const n = 3000
	final := squidFinalAntibody(t)
	enc, err := final.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if n*len(enc) <= maxBodyBytes {
		t.Fatalf("%d antibodies of %d bytes fit in one %d-byte reply: the test no longer tests paging", n, len(enc), maxBodyBytes)
	}
	seeded := newDaemon(t, "seeded")
	for i := 0; i < n; i++ {
		a := *final
		a.ID = fmt.Sprintf("%s-%d", final.ID, i)
		seeded.store.Publish(&a)
	}
	joiner := newDaemon(t, "joiner")
	if err := joiner.node.AddPeer(seeded.srv.URL); err != nil {
		t.Fatal(err)
	}
	if got := joiner.store.Len(); got != n {
		t.Fatalf("joiner holds %d antibodies after join, want %d", got, n)
	}
	if got := joiner.rec.Snapshot().Received; got != n {
		t.Errorf("joiner received %d antibodies, want %d", got, n)
	}
}

// TestPushReachesPeerImmediately: a publish after peering arrives by push,
// and the duplicate bounce-back is absorbed without re-notification.
func TestPushReachesPeerImmediately(t *testing.T) {
	a := newDaemon(t, "a")
	b := newDaemon(t, "b")
	if err := a.node.AddPeer(b.srv.URL); err != nil {
		t.Fatal(err)
	}
	if err := b.node.AddPeer(a.srv.URL); err != nil {
		t.Fatal(err)
	}
	a.store.Publish(ab("fresh", "squid"))
	waitFor(t, 5*time.Second, "push to reach b", func() bool { return b.store.Len() == 1 })
	// Give the bounce (b pushing back to a) time to be deduplicated.
	time.Sleep(30 * time.Millisecond)
	if got := a.notifyCount("fresh"); got != 1 {
		t.Errorf("a notified %d times for one antibody, want 1", got)
	}
	if got := b.notifyCount("fresh"); got != 1 {
		t.Errorf("b notified %d times for one antibody, want 1", got)
	}
}

// TestFederationSoakThreeDaemonConvergence is the soak test: three daemons in
// a one-directional peering ring (each reaches two of the others only
// transitively), every daemon publishing its own batch of antibodies
// concurrently. All three stores must converge on the full union, every
// subscriber must be notified exactly once per antibody, and gossip must
// terminate (run under -race in CI).
func TestFederationSoakThreeDaemonConvergence(t *testing.T) {
	perDaemon := 40
	if testing.Short() {
		perDaemon = 8
	}
	daemons := []*daemon{newDaemon(t, "d0"), newDaemon(t, "d1"), newDaemon(t, "d2")}
	for i, d := range daemons {
		// Ring: d0 -> d1 -> d2 -> d0.
		if err := d.node.AddPeer(daemons[(i+1)%len(daemons)].srv.URL); err != nil {
			t.Fatal(err)
		}
	}

	total := perDaemon * len(daemons)
	var wg sync.WaitGroup
	for i, d := range daemons {
		wg.Add(1)
		go func(i int, d *daemon) {
			defer wg.Done()
			for j := 0; j < perDaemon; j++ {
				d.store.Publish(ab(fmt.Sprintf("d%d-attack%d-final", i, j), "squid"))
			}
		}(i, d)
	}
	wg.Wait()

	waitFor(t, 30*time.Second, "store convergence", func() bool {
		for _, d := range daemons {
			if d.store.Len() != total {
				return false
			}
		}
		return true
	})
	// Quiesce: no poll may add anything further once converged.
	time.Sleep(50 * time.Millisecond)

	for i, d := range daemons {
		if got := d.store.Len(); got != total {
			t.Errorf("daemon %d store holds %d antibodies, want %d", i, got, total)
		}
		for j := 0; j < len(daemons); j++ {
			for k := 0; k < perDaemon; k++ {
				id := fmt.Sprintf("d%d-attack%d-final", j, k)
				if _, ok := d.store.Get(id); !ok {
					t.Errorf("daemon %d is missing %s", i, id)
				}
				if got := d.notifyCount(id); got != 1 {
					t.Errorf("daemon %d notified %d times for %s, want exactly 1", i, got, id)
				}
			}
		}
		fs := d.rec.Snapshot()
		if fs.Received != total-perDaemon {
			t.Errorf("daemon %d Received = %d, want %d", i, fs.Received, total-perDaemon)
		}
	}
}

// TestServerRejectsMalformedTraffic covers the wire-level negative paths.
func TestServerRejectsMalformedTraffic(t *testing.T) {
	d := newDaemon(t, "srv")
	peer := NewPeer(d.srv.URL, time.Second)

	if _, err := peer.Push("rogue", []*antibody.Antibody{{ID: "", Program: "squid"}}); err == nil {
		t.Error("push of an antibody without an ID was accepted")
	}
	if _, err := peer.Push("rogue", []*antibody.Antibody{{ID: "x", Program: ""}}); err == nil {
		t.Error("push of an antibody without a program was accepted")
	}
	if d.store.Len() != 0 {
		t.Errorf("malformed pushes reached the store (%d entries)", d.store.Len())
	}
	if err := peer.Health(); err != nil {
		t.Errorf("health check failed: %v", err)
	}
	// Bad cursor.
	resp, err := d.srv.Client().Get(d.srv.URL + "/v1/antibodies?since=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad since cursor answered %d, want 400", resp.StatusCode)
	}
}

// TestMalformedAntibodyBatchRefused: an antibody carrying a nil VSEF or a
// nil signature would panic whichever guest applied or verified it, so a
// batch holding one is refused whole and counted over both transports, and
// nothing of it reaches the store.
func TestMalformedAntibodyBatchRefused(t *testing.T) {
	var batch []*antibody.Antibody
	for _, raw := range []string{
		`{"id":"p-attack1-initial","program":"squid","vsefs":[null]}`,
		`{"id":"p-attack1-final","program":"squid","signatures":[null],"exploit_input":"QUFBQQ=="}`,
	} {
		a, err := antibody.Unmarshal([]byte(raw))
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, a)
	}

	d := newDaemon(t, "srv")
	hub := NewHub()
	defer hub.Close()
	e := newInprocDaemon(t, hub, "hub", "")
	transports := []struct {
		name  string
		tr    Transport
		store *antibody.Store
		rec   *metrics.FederationRecorder
	}{
		{"http", NewPeer(d.srv.URL, time.Second), d.store, d.rec},
		{"hub", dialInproc(t, hub, "hub", ""), e.store, e.rec},
	}
	for _, x := range transports {
		for _, a := range batch {
			if _, err := x.tr.Push("rogue", []*antibody.Antibody{ab("fine", "squid"), a}); err == nil {
				t.Errorf("%s: push of %s was accepted", x.name, a.ID)
			}
		}
		if x.store.Len() != 0 {
			t.Errorf("%s: store holds %d antibodies from refused batches", x.name, x.store.Len())
		}
		if got := x.rec.Snapshot().Rejected; got != len(batch) {
			t.Errorf("%s: Rejected = %d, want %d", x.name, got, len(batch))
		}
	}
}

// TestPeerPullPaginatesWithCursor: cursor pulls see exactly the antibodies
// published after the cursor was handed out.
func TestPeerPullPaginatesWithCursor(t *testing.T) {
	d := newDaemon(t, "srv")
	peer := NewPeer(d.srv.URL, time.Second)

	d.store.Publish(ab("one", "squid"))
	page, err := peer.Pull(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Antibodies) != 1 || page.Antibodies[0].ID != "one" {
		t.Fatalf("first pull = %+v", page)
	}
	d.store.Publish(ab("two", "squid"))
	page2, err := peer.Pull(page.Next)
	if err != nil {
		t.Fatal(err)
	}
	if len(page2.Antibodies) != 1 || page2.Antibodies[0].ID != "two" {
		t.Fatalf("incremental pull = %+v", page2)
	}
	page3, err := peer.Pull(page2.Next)
	if err != nil {
		t.Fatal(err)
	}
	if len(page3.Antibodies) != 0 {
		t.Fatalf("up-to-date pull returned %d antibodies, want 0", len(page3.Antibodies))
	}
}
