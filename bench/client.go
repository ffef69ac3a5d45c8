//go:build linux

package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"sweeper/internal/netproxy"
)

// client is one connection speaking the front end's framed protocol. Unlike
// netproxy.Client it reuses one reply buffer and writes pre-built frames, so
// a timed phase allocates nothing on the generator's side.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dialing %s: %w", addr, err)
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 16<<10), buf: make([]byte, 16<<10)}, nil
}

func (c *client) close() { c.conn.Close() }

// deadline bounds every later round trip on the connection: a daemon that
// stops answering fails the run instead of hanging it. It is set once per
// phase or trial, not per request.
func (c *client) deadline(t time.Time) { c.conn.SetDeadline(t) }

// do sends one pre-built frame and reads the reply into the client's buffer;
// body is valid until the next call.
func (c *client) do(frame []byte) (status byte, body []byte, err error) {
	if _, err = c.conn.Write(frame); err != nil {
		return 0, nil, err
	}
	return c.readReply()
}

// readReply reads one reply frame into the client's buffer.
func (c *client) readReply() (status byte, body []byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n < 1 || n > netproxy.MaxFrameBytes {
		return 0, nil, fmt.Errorf("reply frame of %d bytes", n)
	}
	if n > len(c.buf) {
		c.buf = make([]byte, n)
	}
	if _, err = io.ReadFull(c.br, c.buf[:n]); err != nil {
		return 0, nil, err
	}
	return c.buf[0], c.buf[1:n], nil
}

// roundTrip sends the request and reports whether the reply was the expected
// one: the expected status and, for a served request, exactly the bytes the
// guest must produce. A transport error is returned, not counted: it means
// the checks could not run.
func (c *client) roundTrip(r *request) (ok bool, err error) {
	status, body, err := c.do(r.frame)
	if err != nil {
		return false, err
	}
	return status == r.status && (r.body == nil || bytes.Equal(body, r.body)), nil
}
