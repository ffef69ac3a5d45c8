package federate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"sweeper/internal/antibody"
)

// maxBodyBytes bounds how much of a peer's response (or request, on the
// server side) is read; antibodies are small, so anything bigger is abuse.
const maxBodyBytes = 32 << 20

// AuthHeader is the HTTP header carrying the federation shared-secret token
// (see Config.AuthToken).
const AuthHeader = "X-Sweeper-Token"

// Peer is an HTTP client for one remote federation server.
type Peer struct {
	base   string
	token  string
	client *http.Client
}

// NewPeer returns a client for the peer at addr. A bare "host:port" is
// promoted to an http:// URL.
func NewPeer(addr string, timeout time.Duration) *Peer {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Peer{
		base:   strings.TrimRight(addr, "/"),
		client: &http.Client{Timeout: timeout},
	}
}

// WithAuthToken sets the shared-secret token attached to every request and
// returns the peer for chaining. An empty token sends no header.
func (p *Peer) WithAuthToken(token string) *Peer {
	p.token = token
	return p
}

// URL returns the peer's base URL.
func (p *Peer) URL() string { return p.base }

// do issues one request with the auth token attached.
func (p *Peer) do(method, url string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if p.token != "" {
		req.Header.Set(AuthHeader, p.token)
	}
	return p.client.Do(req)
}

// Push delivers antibodies to the peer's store and returns how many the peer
// had not seen before.
func (p *Peer) Push(from string, abs []*antibody.Antibody) (accepted int, err error) {
	body, err := antibody.EncodePush(&antibody.PushEnvelope{From: from, Antibodies: abs})
	if err != nil {
		return 0, fmt.Errorf("federate: encoding push to %s: %w", p.base, err)
	}
	resp, err := p.do(http.MethodPost, p.base+"/v1/antibodies", body)
	if err != nil {
		return 0, fmt.Errorf("federate: push to %s: %w", p.base, err)
	}
	defer resp.Body.Close()
	data, err := readAll(resp)
	if err != nil {
		return 0, fmt.Errorf("federate: push to %s: %w", p.base, err)
	}
	var res antibody.PushResult
	if err := json.Unmarshal(data, &res); err != nil {
		return 0, fmt.Errorf("federate: push response from %s: %w", p.base, err)
	}
	return res.Accepted, nil
}

// Pull fetches one page of the peer's store from the given publication cursor
// onward; the server bounds the page and its Next says where it stopped.
func (p *Peer) Pull(cursor int) (*antibody.PullPage, error) {
	resp, err := p.do(http.MethodGet, fmt.Sprintf("%s/v1/antibodies?since=%d", p.base, cursor), nil)
	if err != nil {
		return nil, fmt.Errorf("federate: pull from %s: %w", p.base, err)
	}
	defer resp.Body.Close()
	data, err := readAll(resp)
	if err != nil {
		return nil, fmt.Errorf("federate: pull from %s: %w", p.base, err)
	}
	page, err := antibody.DecodePull(data)
	if err != nil {
		return nil, fmt.Errorf("federate: pull page from %s: %w", p.base, err)
	}
	return page, nil
}

// Health checks that the peer answers.
func (p *Peer) Health() error {
	resp, err := p.do(http.MethodGet, p.base+"/v1/health", nil)
	if err != nil {
		return fmt.Errorf("federate: health check of %s: %w", p.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("federate: health check of %s: status %d", p.base, resp.StatusCode)
	}
	return nil
}

func readAll(resp *http.Response) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		detail := strings.TrimSpace(string(data))
		if len(detail) > 120 {
			detail = detail[:120]
		}
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, detail)
	}
	return data, nil
}
