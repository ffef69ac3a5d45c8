// Package federate peers antibody stores across sweeperd daemons over
// HTTP+JSON, turning the single-process fleet into the paper's community of
// untrusting hosts (Section 6). Each daemon runs a Server that exposes its
// store to peers and a Node that gossips with them: freshly published
// antibodies are pushed to every peer, a poll loop pulls what pushes missed,
// and a joining node first replays the peer's full store, page by page. Stores
// deduplicate by antibody ID, so gossip loops terminate after one bounce.
//
// Federation moves antibodies between daemons but deliberately does not vouch
// for them: a receiving daemon's guests re-verify each antibody by replaying
// its attached exploit input in a sandbox before adoption (see
// core.Config.VerifyAdoption), exactly because peers are untrusted.
package federate

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sweeper/internal/antibody"
	"sweeper/internal/metrics"
)

// Config controls a federation node.
type Config struct {
	// Name identifies this daemon in push envelopes (diagnostics only).
	Name string
	// PollInterval is how often each peer is polled for antibodies that a
	// push did not deliver (default 25ms).
	PollInterval time.Duration
	// AuthToken, when set, is attached to every push and poll this node
	// sends (HTTP peers carry it in the X-Sweeper-Token header). Servers
	// configured with a token reject requests that do not present it.
	AuthToken string
	// MaxPushFanout, when positive, bounds how many peers each push batch
	// is delivered to: batches go to a rotating window of MaxPushFanout
	// peers, and the remaining peers' poll loops recover the antibodies.
	// Zero pushes to every peer (the small-community default).
	MaxPushFanout int
}

func (c *Config) defaults() {
	if c.PollInterval <= 0 {
		c.PollInterval = 25 * time.Millisecond
	}
}

// requestTimeout bounds every HTTP call to a peer.
const requestTimeout = 5 * time.Second

// maxPollBackoff caps the exponential backoff a poll loop applies to an
// unreachable peer: each consecutive failure doubles the poll delay from
// PollInterval up to the smaller of 64×PollInterval and 2s.
func (c *Config) maxPollBackoff() time.Duration {
	return min(64*c.PollInterval, 2*time.Second)
}

// Node connects a local antibody store to a set of peers. It subscribes to
// the store (so locally generated antibodies — and antibodies imported from
// one peer — are pushed to all the others) and runs one poll loop per peer as
// the reliable catch-up path.
type Node struct {
	cfg   Config
	store *antibody.Store
	rec   *metrics.FederationRecorder

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*antibody.Antibody
	peers    []Transport
	fromPeer map[string]Transport // antibody ID -> peer it arrived from
	fanout   int                  // rotating fan-out window cursor
	closed   bool

	done chan struct{}
	wg   sync.WaitGroup
}

// NewNode returns a node gossiping the given store. The store subscription is
// taken immediately, so antibodies already stored are offered to every peer
// added later.
func NewNode(store *antibody.Store, rec *metrics.FederationRecorder, cfg Config) *Node {
	cfg.defaults()
	n := &Node{
		cfg:      cfg,
		store:    store,
		rec:      rec,
		fromPeer: make(map[string]Transport),
		done:     make(chan struct{}),
	}
	n.cond = sync.NewCond(&n.mu)
	store.Subscribe(n.enqueue)
	n.wg.Add(1)
	go n.pushLoop()
	return n
}

// AddPeer connects to the HTTP peer at addr ("host:port" or a full URL),
// carrying the node's auth token if one is configured.
func (n *Node) AddPeer(addr string) error {
	return n.AddTransport(NewPeer(addr, requestTimeout).WithAuthToken(n.cfg.AuthToken))
}

// AddTransport connects to a peer over any Transport (an HTTP Peer or an
// in-process hub endpoint). The full-store replay a joining daemon performs
// happens synchronously, so the caller learns immediately whether the peer
// is reachable: when it is not, the error is returned and the peer is not
// registered. The poll loop then keeps the stores converged.
func (n *Node) AddTransport(t Transport) error {
	if err := n.join(t, false); err != nil {
		return fmt.Errorf("federate: joining peer %s: %w", t.URL(), err)
	}
	return nil
}

// AddTransportLazy connects to a peer that may not be reachable yet: a
// daemon that crashed and has not restarted, or one that simply boots later.
// Unlike AddTransport it never fails — an unreachable peer is recorded as
// down (FederationStats.PeerDown) and its poll loop keeps retrying with
// capped exponential backoff from cursor 0, so the full-store replay starts
// at the first successful poll after the peer appears.
func (n *Node) AddTransportLazy(t Transport) { n.join(t, true) }

// join is the one way a peer is added: replay, register, poll. The replay
// pulls page after page from cursor 0 until one brings nothing (or does not
// move the cursor on), so the node holds the peer's whole store however many
// pages it takes. A failed pull is returned unless lazy, in which case the
// peer is registered down and polled from where the replay got to.
func (n *Node) join(t Transport, lazy bool) error {
	cursor := 0
	var err error
	for {
		var page *antibody.PullPage
		if page, err = t.Pull(cursor); err != nil {
			break
		}
		n.importFrom(t, page.Antibodies)
		last := len(page.Antibodies) == 0 || page.Next <= cursor
		cursor = page.Next
		if last {
			break
		}
	}
	if err != nil && !lazy {
		return err
	}
	down := err != nil
	n.mu.Lock()
	n.peers = append(n.peers, t)
	peerCount := len(n.peers)
	n.mu.Unlock()
	n.rec.Update(func(s *metrics.FederationStats) {
		s.Peers = peerCount
		if down {
			s.PeerDown++
		}
	})
	n.wg.Add(1)
	go n.pollLoop(t, cursor, down)
	return nil
}

// Peers returns the URLs of the connected peers.
func (n *Node) Peers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	urls := make([]string, len(n.peers))
	for i, p := range n.peers {
		urls[i] = p.URL()
	}
	return urls
}

// Close stops the push and poll loops after flushing queued pushes.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	close(n.done)
	n.cond.Broadcast()
	n.mu.Unlock()
	n.wg.Wait()
}

// enqueue is the store-subscription callback: every antibody entering the
// local store (generated locally or imported from a peer) is queued for push.
func (n *Node) enqueue(a *antibody.Antibody) {
	n.mu.Lock()
	if !n.closed {
		n.queue = append(n.queue, a)
		n.cond.Broadcast()
	}
	n.mu.Unlock()
}

// authorized is the token check of both servers: a server configured with a
// token refuses, and counts, a request that does not present it.
func authorized(rec *metrics.FederationRecorder, want, got string) bool {
	if want == "" || got == want {
		return true
	}
	rec.Update(func(st *metrics.FederationStats) { st.Rejected++ })
	return false
}

// accept is the one way antibodies from a peer enter a store, whether pushed
// to the HTTP server or a hub endpoint or pulled by a node. A batch holding
// an antibody that fails Validate (no ID, no program, a nil VSEF or
// signature) is refused whole and counted Rejected; otherwise every antibody
// is published, counted Received when the store had not seen it (accepted
// counts these) and Duplicates when it had — the dedup that terminates
// gossip loops. Nothing is verified here beyond that shape: whether the
// antibody is right is decided on the adopting guests, not at the network
// boundary. tag, when non-nil, is told of each antibody before it is
// published and again when the store refuses it as a duplicate.
func accept(store *antibody.Store, rec *metrics.FederationRecorder, abs []*antibody.Antibody, tag func(id string, arriving bool)) (accepted int, err error) {
	for _, a := range abs {
		if err := a.Validate(); err != nil {
			rec.Update(func(st *metrics.FederationStats) { st.Rejected++ })
			return 0, err
		}
	}
	for _, a := range abs {
		if tag != nil {
			tag(a.ID, true)
		}
		if store.Publish(a) {
			accepted++
		} else if tag != nil {
			tag(a.ID, false)
		}
	}
	rec.Update(func(st *metrics.FederationStats) {
		st.Received += accepted
		st.Duplicates += len(abs) - accepted
	})
	return accepted, nil
}

// importFrom accepts antibodies pulled from a peer into the local store.
// Each is tagged with its source peer before it is published, so the push
// loop — which the store's subscription wakes from inside Publish — does not
// echo it straight back. A duplicate fires no subscriber, so the push loop
// will never consume (or clear) its tag: it is dropped here (this ends the
// gossip loop). A malformed page is refused whole, like a malformed push.
func (n *Node) importFrom(p Transport, abs []*antibody.Antibody) {
	accept(n.store, n.rec, abs, func(id string, arriving bool) {
		n.mu.Lock()
		if arriving {
			n.fromPeer[id] = p
		} else {
			delete(n.fromPeer, id)
		}
		n.mu.Unlock()
	})
}

// pushLoop drains the publish queue, pushing each batch to every peer in the
// fan-out window except an antibody's own source. Push failures are only
// counted: the receiving side's poll loop recovers anything a push missed.
// Source tags are consumed with the batch — an ID is pushed at most once
// (store dedup prevents re-notification), so keeping tags longer would only
// leak memory.
func (n *Node) pushLoop() {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		for !n.closed && len(n.queue) == 0 {
			n.cond.Wait()
		}
		if len(n.queue) == 0 && n.closed {
			n.mu.Unlock()
			return
		}
		batch := n.queue
		n.queue = nil
		peers := n.fanoutWindow()
		sources := make(map[string]Transport, len(batch))
		for _, a := range batch {
			if p, ok := n.fromPeer[a.ID]; ok {
				sources[a.ID] = p
				delete(n.fromPeer, a.ID)
			}
		}
		n.mu.Unlock()

		for _, p := range peers {
			var outgoing []*antibody.Antibody
			for _, a := range batch {
				if sources[a.ID] != p {
					outgoing = append(outgoing, a)
				}
			}
			if len(outgoing) == 0 {
				continue
			}
			if _, err := p.Push(n.cfg.Name, outgoing); err != nil {
				n.rec.Update(func(s *metrics.FederationStats) { s.PushErrors++ })
			} else {
				n.rec.Update(func(s *metrics.FederationStats) { s.Pushed += len(outgoing) })
			}
		}
	}
}

// fanoutWindow returns the peers the next push batch goes to: all of them,
// or — when MaxPushFanout bounds the gossip — a rotating window of that many
// peers, advanced per batch so every peer is pushed to eventually. Caller
// holds n.mu.
func (n *Node) fanoutWindow() []Transport {
	k := n.cfg.MaxPushFanout
	if k <= 0 || len(n.peers) <= k {
		return append([]Transport(nil), n.peers...)
	}
	window := make([]Transport, 0, k)
	for i := 0; i < k; i++ {
		window = append(window, n.peers[(n.fanout+i)%len(n.peers)])
	}
	n.fanout = (n.fanout + k) % len(n.peers)
	return window
}

// pollLoop periodically pulls the peer's store from the given cursor onward.
// A healthy peer is polled every PollInterval; consecutive failures double
// the delay up to maxPollBackoff with ±25% jitter (so a whole community does
// not retry a recovering peer in lockstep), and the up/down transitions are
// counted as PeerDown/PeerRecovered. down says whether the peer was already
// unreachable when the loop started (the AddTransportLazy path).
func (n *Node) pollLoop(p Transport, cursor int, down bool) {
	defer n.wg.Done()
	delay := n.cfg.PollInterval
	timer := time.NewTimer(delay)
	defer timer.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-timer.C:
		}
		page, err := p.Pull(cursor)
		if err != nil {
			if !down {
				down = true
				n.rec.Update(func(s *metrics.FederationStats) { s.PeerDown++ })
			}
			delay = min(2*delay, n.cfg.maxPollBackoff())
		} else {
			if down {
				down = false
				n.rec.Update(func(s *metrics.FederationStats) { s.PeerRecovered++ })
			}
			delay = n.cfg.PollInterval
			cursor = page.Next
			n.importFrom(p, page.Antibodies)
			n.rec.Update(func(s *metrics.FederationStats) { s.Polls++ })
		}
		// ±25% jitter around the chosen delay (the global rand source is
		// concurrency-safe and randomly seeded).
		d := delay + time.Duration(rand.Int63n(int64(delay)/2+1)) - delay/4
		timer.Reset(d)
	}
}
