package netproxy

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"sweeper/internal/metrics"
)

// Wire protocol of the TCP front end. A request frame is a 4-byte big-endian
// payload length followed by the payload; the response frame on the same
// connection is a 4-byte big-endian length followed by one status byte and
// the response payload (the concatenated guest sends for that request).
// Connections are serial — one outstanding request per connection — which is
// exactly the per-client view the paper's Figure 5 measures.
const (
	// StatusOK: the guest served the request; the payload is its output.
	StatusOK = 0x00
	// StatusFiltered: an input-signature antibody dropped the request at the
	// proxy, before it reached the guest.
	StatusFiltered = 0x01
	// StatusAbsorbed: the request was identified as an attack input and
	// excised during recovery; the service survived, the request got nothing.
	StatusAbsorbed = 0x02
	// StatusError: the service cannot answer (daemon shutting down,
	// connection-level failure).
	StatusError = 0x03
	// StatusUnavailable: the guest cannot take the request right now — it
	// halted, or the submission failed before reaching the queue. Distinct
	// from StatusError so clients can tell "this daemon is going away" from
	// "this guest is down, the daemon may restart it warm".
	StatusUnavailable = 0x04

	// MaxFrameBytes bounds a request or response frame; larger length
	// prefixes poison the connection.
	MaxFrameBytes = 1 << 20
)

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("netproxy: frame of %d bytes exceeds the %d-byte limit", len(payload), MaxFrameBytes)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame into a buffer of its own.
func ReadFrame(r io.Reader) ([]byte, error) { return readFrameInto(r, nil) }

// readFrameInto reads one length-prefixed frame into buf, which it replaces
// when the frame does not fit; the length prefix passes through buf too. The
// returned payload is buf's array: the caller keeps it for the next frame.
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("netproxy: frame of %d bytes exceeds the %d-byte limit", n, MaxFrameBytes)
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(r, buf[:n]); err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// SubmitFunc offers one framed request payload to a protected guest and
// returns the proxy-assigned request ID plus a status byte: StatusOK means
// the request was accepted into the queue and will be resolved later;
// anything else (StatusFiltered for a signature match, StatusUnavailable
// for a halted guest or failed submission) is answered to the client
// immediately. The Listener calls it with its own mutex held, atomically
// with waiter registration, so a completion for the returned ID can never
// arrive before the waiter exists. The payload is the connection's read
// buffer, overwritten by the next frame: what outlives the call is a copy
// (Proxy.Submit makes one).
type SubmitFunc func(payload []byte, src string) (reqID int, status byte)

type tcpOutcome struct {
	status  byte
	payload []byte
}

// Listener is the TCP front end of one protected guest: it accepts
// connections, reads length-prefixed request frames, submits them through
// the guest's filtering proxy, and writes the response frame back on the
// same connection when the guest completes (or the defence absorbs) the
// request. Every response is timed arrival→write-back into a
// metrics.LatencyRecorder — the client-observed sojourn time.
type Listener struct {
	ln     net.Listener
	submit SubmitFunc
	lat    *metrics.LatencyRecorder

	mu      sync.Mutex
	waiters map[int]chan tcpOutcome
	// conns holds every connection a serveConn goroutine is reading, so
	// Close can end the read of one whose client neither sends nor hangs up.
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewListener starts a TCP front end on addr (e.g. "127.0.0.1:0") feeding
// submit. The returned listener is already accepting.
func NewListener(addr string, submit SubmitFunc) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netproxy: listen %s: %w", addr, err)
	}
	l := &Listener{
		ln:      ln,
		submit:  submit,
		lat:     metrics.NewLatencyRecorder(),
		waiters: make(map[int]chan tcpOutcome),
		conns:   make(map[net.Conn]struct{}),
	}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the listener's bound address ("host:port").
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Latency returns the recorder of client-observed sojourn times.
func (l *Listener) Latency() *metrics.LatencyRecorder { return l.lat }

func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // Close shut the listener down
		}
		// Registered under the lock Close takes to set closed: a connection
		// is either in conns when Close walks it or refused here.
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			continue
		}
		l.conns[conn] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go l.serveConn(conn)
	}
}

func (l *Listener) serveConn(conn net.Conn) {
	defer l.wg.Done()
	defer func() {
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
		conn.Close()
	}()
	src := conn.RemoteAddr().String()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	// A connection has one request outstanding, so one read buffer and one
	// outcome channel serve all of them: every registered waiter is sent to
	// exactly once (Resolve and ResolveAll unregister before sending) and
	// received from below before the next is registered.
	var payload []byte
	ch := make(chan tcpOutcome, 1)
	for {
		var err error
		if payload, err = readFrameInto(br, payload[:cap(payload)]); err != nil {
			return // client went away (or sent garbage); drop the connection
		}
		start := time.Now()

		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			l.respond(bw, start, StatusError, nil)
			return
		}
		id, st := l.submit(payload, src)
		if st == StatusOK {
			// Registered under the same critical section as the submit: the
			// guest cannot complete the request before the waiter exists.
			l.waiters[id] = ch
		}
		l.mu.Unlock()

		if st != StatusOK {
			// Rejected before queueing (filtered, or the guest is down):
			// answer immediately with the submit status.
			if !l.respond(bw, start, st, nil) {
				return
			}
			continue
		}
		out := <-ch
		if !l.respond(bw, start, out.status, out.payload) {
			return
		}
	}
}

// respond writes one response frame and records the sojourn time. It reports
// whether the connection is still usable.
func (l *Listener) respond(bw *bufio.Writer, start time.Time, status byte, payload []byte) bool {
	if 1+len(payload) > MaxFrameBytes {
		return false
	}
	// Length prefix and status go into the writer's own buffer and the
	// payload after them: the frame is never assembled anywhere else. The
	// writer keeps its first error; Flush reports it.
	head := binary.BigEndian.AppendUint32(bw.AvailableBuffer(), uint32(1+len(payload)))
	bw.Write(append(head, status))
	bw.Write(payload)
	if err := bw.Flush(); err != nil {
		return false
	}
	l.lat.Record(time.Since(start))
	return true
}

// Resolve delivers the outcome for one submitted request to its waiting
// connection, unblocking the response write. It reports whether a waiter was
// found; a missing waiter (client disconnected, or a replayed completion of
// a request answered before a rollback) is harmless.
func (l *Listener) Resolve(reqID int, status byte, payload []byte) bool {
	l.mu.Lock()
	ch, ok := l.waiters[reqID]
	if ok {
		delete(l.waiters, reqID)
	}
	l.mu.Unlock()
	if !ok {
		return false
	}
	ch <- tcpOutcome{status: status, payload: payload}
	return true
}

// ResolveAll fails every outstanding waiter with the given status. Used when
// the guest halts or the daemon shuts down.
func (l *Listener) ResolveAll(status byte) {
	l.mu.Lock()
	waiters := l.waiters
	l.waiters = make(map[int]chan tcpOutcome)
	l.mu.Unlock()
	for _, ch := range waiters {
		ch <- tcpOutcome{status: status}
	}
}

// Close stops accepting, fails outstanding waiters with StatusError, ends
// the read of every open connection and waits for the connection goroutines
// to drain. It does not wait for clients: one that holds its connection open,
// idle or mid-frame, is hung up on. A waiter's goroutine writes its
// StatusError first and meets the expired read after.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	err := l.ln.Close()
	l.ResolveAll(StatusError)
	now := time.Now()
	l.mu.Lock()
	for conn := range l.conns {
		conn.SetReadDeadline(now)
	}
	l.mu.Unlock()
	l.wg.Wait()
	return err
}

// Client is a framed-protocol client for the TCP front end: one connection,
// serial request/response. wormsim and the client-latency experiments drive
// guests through it.
type Client struct {
	addr    string
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	timeout time.Duration
}

// Dial connects to a front-end listener. The error distinguishes an
// unreachable daemon clearly (connection refused, timeout) so callers can
// exit non-zero with a useful diagnostic.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("netproxy: daemon unreachable at %s: %w", addr, err)
	}
	return &Client{
		addr: addr,
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
	}, nil
}

// Addr returns the address the client dialed.
func (c *Client) Addr() string { return c.addr }

// SetTimeout bounds every subsequent Do call: a daemon that accepts the
// request but never answers (wedged, crashed mid-request) fails the call
// with a deadline error after d instead of hanging the client forever. Zero
// restores the unbounded default.
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// Do sends one request payload and blocks for its response frame, returning
// the status byte and response payload. A connection torn down mid-request
// is reported as an explicit error rather than a bare EOF; with SetTimeout
// configured, a response that does not arrive in time is an explicit
// timeout error (and the connection is no longer usable — a late response
// frame would desynchronise the stream).
func (c *Client) Do(payload []byte) (status byte, resp []byte, err error) {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := WriteFrame(c.bw, payload); err != nil {
		return 0, nil, fmt.Errorf("netproxy: sending request to %s: %w", c.addr, err)
	}
	if err := c.bw.Flush(); err != nil {
		return 0, nil, fmt.Errorf("netproxy: sending request to %s: %w", c.addr, err)
	}
	frame, err := ReadFrame(c.br)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("netproxy: daemon at %s closed the connection mid-request", c.addr)
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return 0, nil, fmt.Errorf("netproxy: daemon at %s did not answer within %v: %w", c.addr, c.timeout, err)
		}
		return 0, nil, fmt.Errorf("netproxy: reading response from %s: %w", c.addr, err)
	}
	if len(frame) < 1 {
		return 0, nil, fmt.Errorf("netproxy: daemon at %s sent an empty response frame", c.addr)
	}
	return frame[0], frame[1:], nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// StatusName returns the human-readable name of a response status byte.
func StatusName(status byte) string {
	switch status {
	case StatusOK:
		return "ok"
	case StatusFiltered:
		return "filtered"
	case StatusAbsorbed:
		return "absorbed"
	case StatusError:
		return "error"
	case StatusUnavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("status-%d", status)
	}
}
