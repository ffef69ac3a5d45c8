// Package netproxy implements the network proxy process of the Sweeper
// runtime module: it queues incoming requests for the protected server, logs
// every accepted request so that execution can be replayed from a checkpoint,
// and applies signature-based input filtering (one of the two antibody
// forms) before requests ever reach the server.
package netproxy

import (
	"fmt"
	"sync"
)

// Request is one client request as seen by the proxy.
type Request struct {
	ID      int
	Payload []byte
	Src     string // source host identifier (used by community-defence experiments)

	// Malicious is ground truth used only by experiments and tests to
	// compute false positives/negatives; the defence never reads it.
	Malicious bool
}

// Clone returns a deep copy of the request.
func (r *Request) Clone() *Request {
	cp := *r
	cp.Payload = append([]byte(nil), r.Payload...)
	return &cp
}

// String summarises the request for logs.
func (r *Request) String() string {
	n := len(r.Payload)
	if n > 24 {
		n = 24
	}
	return fmt.Sprintf("req#%d (%d bytes) %q", r.ID, len(r.Payload), string(r.Payload[:n]))
}

// Filter is an input-signature filter applied to request payloads.
type Filter interface {
	Name() string
	Match(payload []byte) bool
}

// FilterDecision records a request dropped by a filter.
type FilterDecision struct {
	Request *Request
	Filter  string
}

// filteredLogSize is how many of the most recent filter decisions the proxy
// keeps (with their payloads) for inspection. A worm hammering an inoculated
// host is dropped at line rate, so the log must not grow with the drops; the
// total is kept as a counter.
const filteredLogSize = 64

// Stats summarises the proxy's activity.
type Stats struct {
	Submitted int
	Filtered  int
	Delivered int
	Pending   int
}

// Proxy is a logging, filtering request queue. It is safe for concurrent use:
// workload generators submit requests from their own goroutines while the
// protected process consumes them.
type Proxy struct {
	mu       sync.Mutex
	nextID   int
	queue    []*Request
	filters  []Filter
	filtered [filteredLogSize]FilterDecision // ring; slot of drop n is n % filteredLogSize

	submitted int
	dropped   int
	delivered int
}

// New returns an empty proxy with no filters installed.
func New() *Proxy {
	return &Proxy{nextID: 1}
}

// AddFilter installs an input-signature filter. Subsequent submissions whose
// payload matches any installed filter are dropped before reaching the server.
func (p *Proxy) AddFilter(f Filter) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.filters = append(p.filters, f)
}

// RemoveFilter removes the named filter and reports whether it was installed.
func (p *Proxy) RemoveFilter(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, f := range p.filters {
		if f.Name() == name {
			p.filters = append(p.filters[:i], p.filters[i+1:]...)
			return true
		}
	}
	return false
}

// Filters returns the names of the installed filters.
func (p *Proxy) Filters() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, len(p.filters))
	for i, f := range p.filters {
		names[i] = f.Name()
	}
	return names
}

// Submit offers a request payload to the proxy. If an installed filter
// matches, the request is dropped and accepted=false is returned; otherwise
// the request is queued for delivery.
func (p *Proxy) Submit(payload []byte, src string, malicious bool) (req *Request, accepted bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.submitted++
	var matched Filter
	for _, f := range p.filters {
		if f.Match(payload) {
			matched = f
			break
		}
	}
	req = &Request{ID: p.nextID, Payload: append([]byte(nil), payload...), Src: src, Malicious: malicious}
	p.nextID++
	if matched != nil {
		p.filtered[p.dropped%filteredLogSize] = FilterDecision{Request: req, Filter: matched.Name()}
		p.dropped++
		return req, false
	}
	p.queue = append(p.queue, req)
	return req, true
}

// Next pops the next queued request, if any.
func (p *Proxy) Next() (*Request, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.queue) == 0 {
		return nil, false
	}
	req := p.queue[0]
	p.queue[0] = nil // or the array keeps the delivered request reachable
	p.queue = p.queue[1:]
	p.delivered++
	return req, true
}

// Pending returns the number of queued requests.
func (p *Proxy) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// FilteredRequests returns the most recent requests dropped by filters,
// oldest first: at most filteredLogSize of them (Stats().Filtered counts all).
func (p *Proxy) FilteredRequests() []FilterDecision {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := min(p.dropped, filteredLogSize)
	out := make([]FilterDecision, 0, n)
	for i := p.dropped - n; i < p.dropped; i++ {
		out = append(out, p.filtered[i%filteredLogSize])
	}
	return out
}

// Stats returns a snapshot of the proxy's counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Submitted: p.submitted,
		Filtered:  p.dropped,
		Delivered: p.delivered,
		Pending:   len(p.queue),
	}
}
