package federate

import "sweeper/internal/antibody"

// Transport is one reachable federation peer: the push/poll surface a Node
// gossips through. The HTTP client (Peer) is the production implementation;
// the in-process hub (Hub/Endpoint) provides the same semantics — push
// delivery with per-antibody accept counts, cursor-paged pulls that a join
// follows from cursor 0 to the store's end, structural validation and auth-token
// rejection — by direct call, so one process can host hundreds of
// sweeperd-equivalent daemons without sockets.
type Transport interface {
	// URL identifies the peer for diagnostics ("http://host:port" or
	// "inproc://name").
	URL() string
	// Push delivers antibodies to the peer's store and returns how many the
	// peer had not seen before.
	Push(from string, abs []*antibody.Antibody) (accepted int, err error)
	// Pull fetches a page of the peer's store from the given publication
	// cursor onward: the antibodies published from there, perhaps not all
	// of them, and the cursor to pull with next. A page with no antibodies
	// means the caller is up to date.
	Pull(cursor int) (*antibody.PullPage, error)
}
