package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sweeper/internal/exploit"
	"sweeper/internal/netproxy"
)

// responsesTimed returns how many responses the guest's front end has timed,
// once that reaches want (or after a second). The listener records a
// response's sojourn time after flushing it to the socket, so the client can
// hold the last response a moment before its sample is counted.
func responsesTimed(g *Guest, want int) int {
	for deadline := time.Now().Add(time.Second); g.FrontLatency().Count() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return g.FrontLatency().Count()
}

// TestFrontEndServesOverTCP drives a protected guest through its real TCP
// front end: framed benign requests over a loopback socket must come back
// StatusOK carrying the guest's actual output, with every response timed
// into the listener's latency recorder.
func TestFrontEndServesOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("socket test: run without -short")
	}
	f, _ := newFleetWith(t, "cvs", 1)
	g, _ := f.Guest("cvs-0")
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
	const requests = 16
	for i := 0; i < requests; i++ {
		status, resp, err := c.Do(exploit.Benign("cvs", i))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if status != netproxy.StatusOK {
			t.Fatalf("request %d: status %s, want ok", i, netproxy.StatusName(status))
		}
		if len(resp) == 0 {
			t.Fatalf("request %d: empty response payload", i)
		}
	}
	if got := responsesTimed(g, requests); got != requests {
		t.Errorf("latency recorder saw %d responses, want %d", got, requests)
	}
	if p50 := g.FrontLatency().Quantile(0.5); p50 <= 0 {
		t.Errorf("p50 sojourn = %v, want > 0", p50)
	}
}

// TestFrontEndAbsorbsAttackOverTCP sends a real exploit through the socket:
// the attacking connection must get StatusAbsorbed (its request was excised
// during recovery, the service survived), benign traffic afterwards must be
// served normally, and a repeat of the same exploit must bounce off the
// generated input-signature antibody as StatusFiltered.
func TestFrontEndAbsorbsAttackOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("socket test: run without -short")
	}
	f, spec := newFleetWith(t, "cvs", 1)
	g, _ := f.Guest("cvs-0")
	if err := g.AttachListener("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}

	benign := func(tag string, c *netproxy.Client, n, seq int) {
		t.Helper()
		for i := 0; i < n; i++ {
			status, resp, err := c.Do(exploit.Benign("cvs", seq+i))
			if err != nil {
				t.Fatalf("%s request %d: %v", tag, i, err)
			}
			if status != netproxy.StatusOK || len(resp) == 0 {
				t.Fatalf("%s request %d: status %s, %d payload bytes", tag, i, netproxy.StatusName(status), len(resp))
			}
		}
	}
	c, err := netproxy.Dial(g.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	benign("before", c, 8, 0)

	attacker, err := netproxy.Dial(g.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()
	status, _, err := attacker.Do(payload)
	if err != nil {
		t.Fatalf("exploit request: %v", err)
	}
	if status != netproxy.StatusAbsorbed {
		t.Fatalf("exploit got status %s, want absorbed", netproxy.StatusName(status))
	}

	benign("after", c, 8, 8)

	// The same worm again: the input-signature antibody generated during
	// recovery must now drop it at the proxy.
	status, _, err = attacker.Do(payload)
	if err != nil {
		t.Fatalf("repeat exploit request: %v", err)
	}
	if status != netproxy.StatusFiltered {
		t.Errorf("repeat exploit got status %s, want filtered", netproxy.StatusName(status))
	}

	f.Drain()
	g0 := g.Sweeper()
	if got := len(g0.Attacks()); got != 1 {
		t.Fatalf("attacks handled = %d, want 1", got)
	}
	if !g0.Attacks()[0].Recovered {
		t.Error("the attack was not recovered from")
	}
	if g0.Halted() {
		t.Error("guest halted")
	}
	// 16 benign ok + 1 absorbed + 1 filtered responses were all timed.
	if got := responsesTimed(g, 18); got != 18 {
		t.Errorf("latency recorder saw %d responses, want 18", got)
	}
}

// TestFrontEndConcurrentClientsDuringAttack hammers the front end from many
// connections while one of them fires the exploit mid-storm: every benign
// request must be answered ok, the exploit absorbed or filtered, and no
// connection left hanging.
func TestFrontEndConcurrentClientsDuringAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("socket test: run without -short")
	}
	f, spec := newFleetWith(t, "squid", 1)
	g, _ := f.Guest("squid-0")
	if err := g.AttachListener("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 6, 20
	var wg sync.WaitGroup
	errs := make(chan error, clients+1)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := netproxy.Dial(g.ListenAddr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < perClient; j++ {
				status, _, err := c.Do(exploit.Benign("squid", i*perClient+j))
				if err != nil {
					errs <- fmt.Errorf("client %d request %d: %w", i, j, err)
					return
				}
				if status != netproxy.StatusOK {
					errs <- fmt.Errorf("client %d request %d: status %s", i, j, netproxy.StatusName(status))
					return
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := netproxy.Dial(g.ListenAddr())
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		status, _, err := c.Do(payload)
		if err != nil {
			errs <- fmt.Errorf("exploit request: %w", err)
			return
		}
		if status != netproxy.StatusAbsorbed && status != netproxy.StatusFiltered {
			errs <- fmt.Errorf("exploit got status %s, want absorbed or filtered", netproxy.StatusName(status))
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	f.Drain()
	if g.Sweeper().Halted() {
		t.Error("guest halted under concurrent socket load")
	}
	if got := responsesTimed(g, clients*perClient+1); got != clients*perClient+1 {
		t.Errorf("latency recorder saw %d responses, want %d", got, clients*perClient+1)
	}
}

// TestFrontEndAnswersRequestThatTrippedAWrongVSEF: a wrong VSEF (the rogue
// double-free guard, adopted from the shared store) fires on a benign request
// that came in over the socket. Recovery uninstalls the probe and re-executes
// that request in replay mode, where its reply never reaches the connection;
// the request is not the excised culprit, so it must be answered
// StatusUnavailable rather than left hanging, and the next benign request
// must be served.
func TestFrontEndAnswersRequestThatTrippedAWrongVSEF(t *testing.T) {
	if testing.Short() {
		t.Skip("socket test: run without -short")
	}
	f, _ := newFleetWith(t, "squid", 1)
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
	c.SetTimeout(3 * time.Second)
	// A request served before the rogue antibody arrives puts a second
	// candidate in the replay window, so request isolation replays both and
	// blames neither: the culprit is -1, as for any wrong VSEF.
	if status, _, err := c.Do(exploit.Benign("squid", 0)); err != nil || status != netproxy.StatusOK {
		t.Fatalf("benign request before the rogue antibody: status %s, err %v", netproxy.StatusName(status), err)
	}
	if !f.Store().Publish(rogueDoubleFreeAntibody(t)) {
		t.Fatal("store rejected the rogue antibody")
	}
	f.Drain()

	status, _, err := c.Do(exploit.Benign("squid", 1))
	if err != nil {
		t.Fatalf("request that tripped the wrong VSEF: %v", err)
	}
	if status != netproxy.StatusUnavailable {
		t.Errorf("request that tripped the wrong VSEF: status %s, want unavailable", netproxy.StatusName(status))
	}
	status, resp, err := c.Do(exploit.Benign("squid", 2))
	if err != nil {
		t.Fatalf("next benign request: %v", err)
	}
	if status != netproxy.StatusOK || len(resp) == 0 {
		t.Errorf("next benign request: status %s, %d payload bytes, want ok", netproxy.StatusName(status), len(resp))
	}

	f.Drain()
	attacks := g.Sweeper().Attacks()
	if len(attacks) != 1 {
		t.Fatalf("attacks handled = %d, want 1", len(attacks))
	}
	if r := attacks[0]; !r.Recovered || r.CulpritRequestID >= 0 ||
		len(r.BadProbesRemoved) != 1 || r.BadProbesRemoved[0] != "rogue-dos-vsef" {
		t.Errorf("report: recovered=%v culprit=%d bad probes removed=%v, want true/-1/[rogue-dos-vsef]",
			r.Recovered, r.CulpritRequestID, r.BadProbesRemoved)
	}
}

// TestFrontEndStopFlushesWithClientConnected: a daemon told to stop while a
// client still holds its connection open must hang up on the client, not wait
// for it — the final checkpoint persist and the WAL fsync sit behind the
// listener's Close. The next generation restarting warm is the proof that the
// flush was reached.
func TestFrontEndStopFlushesWithClientConnected(t *testing.T) {
	if testing.Short() {
		t.Skip("socket test: run without -short")
	}
	dir := t.TempDir()
	f, _ := newDurableFleetWith(t, dir, "cvs", 1)
	g, _ := f.Guest("cvs-0")
	if err := g.AttachListener("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	f.Start()
	c, err := netproxy.Dial(g.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() // after Stop: the connection is open, and idle, throughout
	if status, _, err := c.Do(exploit.Benign("cvs", 0)); err != nil || status != netproxy.StatusOK {
		t.Fatalf("benign request: status %s, err %v", netproxy.StatusName(status), err)
	}
	stopped := make(chan struct{})
	go func() { f.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(time.Second):
		t.Fatal("Fleet.Stop still blocked after 1 s with an idle client connected")
	}
	f2, _ := newDurableFleetWith(t, dir, "cvs", 1)
	defer f2.Stop()
	if d := f2.Durability(); d.WarmRestarts != 1 || d.Warnings != 0 {
		t.Errorf("restart after Stop: %+v, want one warm restart from the flushed checkpoint", d)
	}
}
