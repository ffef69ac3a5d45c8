package federate

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sweeper/internal/antibody"
	"sweeper/internal/metrics"
)

// Hub is an in-process federation fabric: a registry of named endpoints,
// each the in-process equivalent of one daemon's HTTP Server. Dialing an
// endpoint yields a Transport with the HTTP peer's exact semantics — push
// with per-antibody accept counts, cursor-paged pulls, structural
// validation, auth-token rejection — so one process can host hundreds of
// sweeperd-equivalent daemons without sockets. Antibodies cross the hub by
// reference; they are immutable once published, as everywhere else.
type Hub struct {
	mu  sync.Mutex
	eps map[string]*Endpoint
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{eps: make(map[string]*Endpoint)}
}

// Register creates and serves the named endpoint around the store. The
// token, when non-empty, must be presented by every dialer (mirroring
// Server.SetAuthToken). Registering a taken name fails.
func (h *Hub) Register(name string, store *antibody.Store, rec *metrics.FederationRecorder, token string) (*Endpoint, error) {
	if name == "" {
		return nil, fmt.Errorf("federate: inproc endpoint needs a name")
	}
	ep := &Endpoint{name: name, store: store, rec: rec, token: token}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, taken := h.eps[name]; taken {
		return nil, fmt.Errorf("federate: inproc endpoint %q already registered", name)
	}
	h.eps[name] = ep
	return ep, nil
}

// Unregister removes and closes the named endpoint, as a crashing daemon
// would tear down its HTTP server. The name becomes free for a restarted
// daemon to re-register; peers holding Transports to it fail their calls
// (connection refused) until then, after which the same Transport reaches
// the new endpoint — transports bind to the name, not the instance.
func (h *Hub) Unregister(name string) {
	h.mu.Lock()
	ep := h.eps[name]
	delete(h.eps, name)
	h.mu.Unlock()
	if ep != nil {
		ep.Close()
	}
}

// Dial returns a Transport to the named endpoint, presenting the given
// token. The name must currently be registered; a bad token fails at the
// first push or pull, like HTTP. The returned transport resolves the name
// on every call, so it survives the endpoint being unregistered and
// re-registered (a daemon restart).
func (h *Hub) Dial(name, token string) (Transport, error) {
	if h.lookup(name) == nil {
		return nil, fmt.Errorf("federate: inproc endpoint %q not registered", name)
	}
	return h.Transport(name, token), nil
}

// Transport returns a Transport bound to the name whether or not the
// endpoint is registered yet — the in-process analogue of an HTTP peer URL
// whose server has not started. Calls fail until the name is registered;
// pair it with Node.AddTransportLazy for peers that boot (or come back)
// late.
func (h *Hub) Transport(name, token string) Transport {
	return &inprocPeer{hub: h, name: name, token: token}
}

// lookup resolves the current endpoint for a name, or nil.
func (h *Hub) lookup(name string) *Endpoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.eps[name]
}

// Close shuts down every endpoint.
func (h *Hub) Close() {
	h.mu.Lock()
	eps := make([]*Endpoint, 0, len(h.eps))
	for _, ep := range h.eps {
		eps = append(eps, ep)
	}
	h.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
}

// Endpoint is one daemon's in-process federation server. Like net/http it
// serves its callers concurrently, on their own goroutines, over the same
// goroutine-safe store and recorder as Server.
type Endpoint struct {
	name  string
	store *antibody.Store
	rec   *metrics.FederationRecorder
	token string

	closed atomic.Bool
}

// Close stops the endpoint; in-flight and future requests fail like a
// connection refused, which the poll loops absorb.
func (ep *Endpoint) Close() { ep.closed.Store(true) }

// closedErr is the error a request to a closed endpoint fails with.
func (ep *Endpoint) closedErr() error {
	if ep.closed.Load() {
		return fmt.Errorf("federate: inproc %s: endpoint closed", ep.name)
	}
	return nil
}

// inprocPeer is the dialer side: a Transport that resolves its hub name to
// the current Endpoint on every call, so a re-registered endpoint (daemon
// restart) is reachable through transports dialed before the crash.
type inprocPeer struct {
	hub   *Hub
	name  string
	token string
}

// URL identifies the peer as inproc://name.
func (p *inprocPeer) URL() string { return "inproc://" + p.name }

// dial resolves the name to its current endpoint and presents the token. An
// unregistered name or a closed endpoint fails like a refused connection.
func (p *inprocPeer) dial() (*Endpoint, error) {
	ep := p.hub.lookup(p.name)
	if ep == nil {
		return nil, fmt.Errorf("federate: inproc %s: endpoint not registered", p.name)
	}
	if err := ep.closedErr(); err != nil {
		return nil, err
	}
	if !authorized(ep.rec, ep.token, p.token) {
		return nil, fmt.Errorf("federate: inproc %s: bad or missing auth token", p.name)
	}
	return ep, nil
}

// Push delivers antibodies to the endpoint's store and returns how many it
// had not seen before. An endpoint that closes while the push is in flight
// fails it like a torn connection, whatever reached the store.
func (p *inprocPeer) Push(from string, abs []*antibody.Antibody) (int, error) {
	ep, err := p.dial()
	if err != nil {
		return 0, err
	}
	accepted, err := accept(ep.store, ep.rec, abs, nil)
	if err != nil {
		return 0, fmt.Errorf("federate: inproc %s: %w", p.name, err)
	}
	return accepted, ep.closedErr()
}

// Pull fetches the endpoint's store from the cursor onward, all of it in one
// page.
func (p *inprocPeer) Pull(cursor int) (*antibody.PullPage, error) {
	ep, err := p.dial()
	if err != nil {
		return nil, err
	}
	abs, next := ep.store.Since(cursor)
	if err := ep.closedErr(); err != nil {
		return nil, err
	}
	return &antibody.PullPage{Next: next, Antibodies: abs}, nil
}
