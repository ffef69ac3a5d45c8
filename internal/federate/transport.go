package federate

import "sweeper/internal/antibody"

// Transport is one reachable federation peer: the push/poll surface a Node
// gossips through. The HTTP client (Peer) is the production implementation;
// the in-process hub (Hub/Endpoint) provides the same semantics — push
// delivery with per-antibody accept counts, cursor-paged pulls whose Pull(0)
// replays the peer's full store, structural validation and auth-token
// rejection — by direct call, so one process can host hundreds of
// sweeperd-equivalent daemons without sockets.
type Transport interface {
	// URL identifies the peer for diagnostics ("http://host:port" or
	// "inproc://name").
	URL() string
	// Push delivers antibodies to the peer's store and returns how many the
	// peer had not seen before.
	Push(from string, abs []*antibody.Antibody) (accepted int, err error)
	// Pull fetches the peer's store from the given publication cursor
	// onward. Pull(0) is the full-store replay performed on join.
	Pull(cursor int) (*antibody.PullPage, error)
}
