package core

import (
	"runtime"
	"testing"

	"sweeper/internal/exploit"
	"sweeper/internal/netproxy"
)

// The serve path's allocation budget, in heap bytes per benign small squid
// request (exploit.Benign, ~50-byte payloads), steady state. Byte counts are
// exact and repeat from run to run, so they gate where wall-clock cannot.
const (
	// maxServeBytesPerRequest bounds Submit + ServeAll on a listener-less
	// guest. Measured 394 (1384 before the log, the output stream and the
	// completion times were bounded and flatten reused its pages): the proxy's
	// Request and its copy of the payload 133, the log's two events 171 (80
	// of events, the rest the array doubling), the reply read out of guest
	// memory 47, the stop record of each Run 24, a checkpoint every ~50
	// requests ~20.
	maxServeBytesPerRequest = 450
	// maxFrontBytesPerRequest bounds one request through the TCP front end,
	// client side included. Measured 450 (1752 before), 474 under the race
	// detector: the above plus the reply frame netproxy.Client.Do reads 47
	// and its length prefix 8; the listener itself adds nothing per request.
	maxFrontBytesPerRequest = 520
)

// smallMix is the benchmark's small benign mix, prebuilt so that measuring
// does not count building it.
func smallMix(n int) [][]byte {
	mix := make([][]byte, n)
	for i := range mix {
		mix[i] = exploit.Benign("squid", i)
	}
	return mix
}

// bytesPerCall is the heap bytes allocated per call of fn, over n calls.
func bytesPerCall(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestServeAllocationBudget fails when serving a small request allocates
// more than the stated bytes, on the in-process path.
func TestServeAllocationBudget(t *testing.T) {
	s, _ := newSweeperFor(t, "squid", nil)
	mix := smallMix(512)
	serve := func(i int) {
		s.Submit(mix[i%len(mix)], "client", false)
		if _, err := s.ServeAll(); err != nil {
			t.Fatal(err)
		}
	}
	const warm, measured = 3000, 4000
	for i := 0; i < warm; i++ {
		serve(i)
	}
	got := bytesPerCall(measured, serve)
	t.Logf("Submit+ServeAll: %.0f B/request (bound %d)", got, maxServeBytesPerRequest)
	if got > maxServeBytesPerRequest {
		t.Errorf("serving a small request allocates %.0f B, want <= %d", got, maxServeBytesPerRequest)
	}
	if n := len(s.Attacks()); n != 0 {
		t.Fatalf("%d attacks handled on benign traffic", n)
	}
}

// TestFrontEndAllocationBudget is the same gate through the guest's TCP front
// end, one closed-loop client on a loopback socket.
func TestFrontEndAllocationBudget(t *testing.T) {
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
	mix := smallMix(512)
	do := func(i int) {
		status, resp, err := c.Do(mix[i%len(mix)])
		if err != nil || status != netproxy.StatusOK || len(resp) == 0 {
			t.Fatalf("request %d: status %s, %d reply bytes, err %v", i, netproxy.StatusName(status), len(resp), err)
		}
	}
	const warm, measured = 3000, 4000
	for i := 0; i < warm; i++ {
		do(i)
	}
	got := bytesPerCall(measured, do)
	t.Logf("Client.Do through the listener: %.0f B/request (bound %d)", got, maxFrontBytesPerRequest)
	if got > maxFrontBytesPerRequest {
		t.Errorf("a small request through the front end allocates %.0f B, want <= %d", got, maxFrontBytesPerRequest)
	}
}
