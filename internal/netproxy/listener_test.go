package netproxy

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), []byte("hello world"), bytes.Repeat([]byte{0xAB}, 70000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(p), err)
		}
	}
	for _, p := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("round trip of %d bytes differs", len(p))
		}
	}
}

func TestFrameOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrameBytes+1)); err == nil {
		t.Error("WriteFrame accepted an oversized frame")
	}
	// A poisoned length prefix must be rejected before any allocation.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("ReadFrame accepted a poisoned length prefix")
	}
}

// echoBackend is a minimal in-test guest: it accepts every submission (or
// filters payloads with a marker) and serves each accepted request from its
// own goroutine by echoing the payload back through Resolve.
type echoBackend struct {
	mu     sync.Mutex
	nextID int
	l      *Listener
}

func (b *echoBackend) submit(payload []byte, src string) (int, byte) {
	b.mu.Lock()
	b.nextID++
	id := b.nextID
	b.mu.Unlock()
	if bytes.Contains(payload, []byte("FILTERME")) {
		return id, StatusFiltered
	}
	if bytes.Contains(payload, []byte("HALTED")) {
		return id, StatusUnavailable
	}
	go b.l.Resolve(id, StatusOK, append([]byte("echo:"), payload...))
	return id, StatusOK
}

func newEchoListener(t *testing.T) (*Listener, *echoBackend) {
	t.Helper()
	b := &echoBackend{}
	l, err := NewListener("127.0.0.1:0", b.submit)
	if err != nil {
		t.Fatalf("NewListener: %v", err)
	}
	b.l = l
	t.Cleanup(func() { l.Close() })
	return l, b
}

// responsesTimed returns how many responses the listener has timed, once that
// reaches want (or after a second). A response's sojourn time is recorded
// after it is flushed to the socket, so the client can hold the last response
// a moment before its sample is counted.
func responsesTimed(l *Listener, want int) int {
	for deadline := time.Now().Add(time.Second); l.Latency().Count() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return l.Latency().Count()
}

func TestListenerEcho(t *testing.T) {
	if testing.Short() {
		t.Skip("socket test: run without -short")
	}
	l, _ := newEchoListener(t)
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		req := []byte(fmt.Sprintf("request-%d", i))
		status, resp, err := c.Do(req)
		if err != nil {
			t.Fatalf("Do(%d): %v", i, err)
		}
		if status != StatusOK {
			t.Fatalf("Do(%d) status = %s, want ok", i, StatusName(status))
		}
		if want := "echo:" + string(req); string(resp) != want {
			t.Fatalf("Do(%d) = %q, want %q", i, resp, want)
		}
	}
	if got := responsesTimed(l, 50); got != 50 {
		t.Errorf("latency recorder saw %d responses, want 50", got)
	}
	if l.Latency().Quantile(0.5) <= 0 {
		t.Errorf("latency p50 = %v, want > 0", l.Latency().Quantile(0.5))
	}
}

func TestListenerFiltered(t *testing.T) {
	if testing.Short() {
		t.Skip("socket test: run without -short")
	}
	l, _ := newEchoListener(t)
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	status, resp, err := c.Do([]byte("please FILTERME now"))
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if status != StatusFiltered || len(resp) != 0 {
		t.Errorf("filtered request got status %s payload %q", StatusName(status), resp)
	}
	// The connection must survive a filtered request.
	if status, _, err := c.Do([]byte("clean")); err != nil || status != StatusOK {
		t.Errorf("request after filtered one: status %s, err %v", StatusName(status), err)
	}
}

func TestListenerConcurrentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("socket test: run without -short")
	}
	l, _ := newEchoListener(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	const clients, perClient = 8, 40
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(l.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < perClient; j++ {
				req := []byte(fmt.Sprintf("c%d-r%d", i, j))
				status, resp, err := c.Do(req)
				if err != nil || status != StatusOK || string(resp) != "echo:"+string(req) {
					errs <- fmt.Errorf("client %d req %d: status %s resp %q err %v", i, j, StatusName(status), resp, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := responsesTimed(l, clients*perClient); got != clients*perClient {
		t.Errorf("latency recorder saw %d responses, want %d", got, clients*perClient)
	}
}

func TestListenerCloseFailsWaiters(t *testing.T) {
	if testing.Short() {
		t.Skip("socket test: run without -short")
	}
	// A backend that never resolves: Close must fail the hung waiter.
	var nextID int
	var mu sync.Mutex
	l, err := NewListener("127.0.0.1:0", func(payload []byte, src string) (int, byte) {
		mu.Lock()
		defer mu.Unlock()
		nextID++
		return nextID, StatusOK
	})
	if err != nil {
		t.Fatalf("NewListener: %v", err)
	}
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		status, _, err := c.Do([]byte("stuck"))
		if err == nil && status != StatusError {
			err = fmt.Errorf("status %s, want error", StatusName(status))
		} else {
			// Either outcome is a correct way to fail the waiter: an explicit
			// StatusError frame, or the connection torn down by Close.
			err = nil
		}
		done <- err
	}()
	l.Close()
	if err := <-done; err != nil {
		t.Error(err)
	}
}

// TestListenerCloseDoesNotWaitForClients: Close returns while clients still
// hold their connections open — idle after an answered request, waiting on a
// request the guest never completes (answered StatusError first), or stopped
// halfway through a frame. A daemon's shutdown flush sits behind this call.
func TestListenerCloseDoesNotWaitForClients(t *testing.T) {
	if testing.Short() {
		t.Skip("socket test: run without -short")
	}
	closeWithin := func(t *testing.T, l *Listener) {
		t.Helper()
		closed := make(chan struct{})
		go func() { l.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(time.Second):
			t.Fatal("Close still blocked after 1 s with a client connection open")
		}
	}
	t.Run("idle", func(t *testing.T) {
		l, _ := newEchoListener(t)
		c, err := Dial(l.Addr())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer c.Close()
		if status, _, err := c.Do([]byte("hello")); err != nil || status != StatusOK {
			t.Fatalf("Do: status %s, err %v", StatusName(status), err)
		}
		closeWithin(t, l)
		if status, _, err := c.Do([]byte("after close")); err == nil && status != StatusError {
			t.Errorf("request after Close answered %s", StatusName(status))
		}
	})
	t.Run("mid-request", func(t *testing.T) {
		submitted := make(chan struct{})
		l, err := NewListener("127.0.0.1:0", func(payload []byte, src string) (int, byte) {
			close(submitted)
			return 1, StatusOK // and never resolved
		})
		if err != nil {
			t.Fatalf("NewListener: %v", err)
		}
		c, err := Dial(l.Addr())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer c.Close()
		type reply struct {
			status byte
			err    error
		}
		done := make(chan reply, 1)
		go func() {
			status, _, err := c.Do([]byte("stuck"))
			done <- reply{status, err}
		}()
		// The waiter is registered in the critical section that called
		// submit, and Close takes that lock first.
		<-submitted
		closeWithin(t, l)
		if r := <-done; r.err != nil || r.status != StatusError {
			t.Errorf("registered waiter got status %s, err %v; want an error status", StatusName(r.status), r.err)
		}
	})
	t.Run("mid-frame", func(t *testing.T) {
		l, _ := newEchoListener(t)
		conn, err := net.Dial("tcp", l.Addr())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte{0, 0, 0, 9, 'h', 'a'}); err != nil {
			t.Fatal(err)
		}
		closeWithin(t, l)
	})
}

func TestListenerUnavailableSubmit(t *testing.T) {
	if testing.Short() {
		t.Skip("socket test: run without -short")
	}
	// A submission the guest cannot take (halted) is answered immediately
	// with StatusUnavailable — no waiter, no hang — and the connection
	// stays usable for when the guest comes back.
	l, _ := newEchoListener(t)
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	status, resp, err := c.Do([]byte("HALTED guest"))
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if status != StatusUnavailable || len(resp) != 0 {
		t.Errorf("unavailable submit got status %s payload %q, want unavailable", StatusName(status), resp)
	}
	if status, _, err := c.Do([]byte("clean")); err != nil || status != StatusOK {
		t.Errorf("request after unavailable one: status %s, err %v", StatusName(status), err)
	}
}

func TestClientDoTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("socket test: run without -short")
	}
	// A wedged daemon: accepts the request, registers the waiter, never
	// resolves it. Without a timeout Do would hang forever; with one it
	// must fail with an explicit deadline error.
	var nextID int
	var mu sync.Mutex
	l, err := NewListener("127.0.0.1:0", func(payload []byte, src string) (int, byte) {
		mu.Lock()
		defer mu.Unlock()
		nextID++
		return nextID, StatusOK
	})
	if err != nil {
		t.Fatalf("NewListener: %v", err)
	}
	defer l.Close()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	c.SetTimeout(50 * time.Millisecond)
	start := time.Now()
	_, _, err = c.Do([]byte("never answered"))
	if err == nil {
		t.Fatal("Do returned without a response from a wedged daemon")
	}
	if !strings.Contains(err.Error(), "did not answer") {
		t.Errorf("Do error %q does not name the timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Do took %v to time out; the 50ms deadline did not apply", elapsed)
	}
}

func TestClientUnreachable(t *testing.T) {
	if testing.Short() {
		t.Skip("socket test: run without -short")
	}
	// Grab a port and close it so nothing listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	_, err = Dial(addr)
	if err == nil {
		t.Fatal("Dial succeeded against a closed port")
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("Dial error %q does not name the daemon unreachable", err)
	}
}

func TestClientClosedMidRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("socket test: run without -short")
	}
	// A raw listener that accepts one connection, reads the request and
	// slams the connection shut without responding.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		ReadFrame(conn)
		conn.Close()
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	_, _, err = c.Do([]byte("doomed"))
	if err == nil {
		t.Fatal("Do succeeded on a connection closed mid-request")
	}
	if !strings.Contains(err.Error(), "mid-request") {
		t.Errorf("Do error %q does not name the mid-request close", err)
	}
}
