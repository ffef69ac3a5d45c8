package core

import (
	"fmt"

	"sweeper/internal/metrics"
	"sweeper/internal/netproxy"
)

// AttachListener puts a real TCP front end in front of the guest: a
// netproxy.Listener accepting framed requests on addr, feeding the guest's
// filtering proxy, and writing each request's response (the concatenated
// guest sends) back on the submitting connection when the request completes.
// A request excised as an attack input during recovery is answered with
// StatusAbsorbed; if the guest halts, outstanding and future requests are
// answered with StatusUnavailable (daemon shutdown answers with
// StatusError).
//
// Attach before Fleet.Start (or any Submit traffic): the completion hooks it
// installs run on the serving goroutine and must not race its launch. The
// listener is closed by Fleet.Stop.
func (g *Guest) AttachListener(addr string) error {
	if g.listener != nil {
		return fmt.Errorf("core: guest %s already has a TCP front end on %s", g.name, g.listener.Addr())
	}
	started := func() bool {
		g.fleet.mu.Lock()
		defer g.fleet.mu.Unlock()
		return g.fleet.started
	}()
	if started {
		return fmt.Errorf("core: guest %s: attach the TCP front end before the fleet starts", g.name)
	}
	submit := func(payload []byte, src string) (int, byte) {
		// A halted guest answers immediately instead of queueing a request
		// no serving loop will ever complete. halted is mirrored under g.mu
		// by the serving loop, so this connection-goroutine read is safe.
		g.mu.Lock()
		halted := g.halted
		g.mu.Unlock()
		if halted {
			return 0, netproxy.StatusUnavailable
		}
		id, accepted := g.s.SubmitTracked(payload, src, false)
		if !accepted {
			// A filtered request never wakes the serving loop, whose
			// updateMetrics publishes the count for accepted ones.
			g.fleet.rec.Update(g.name, func(st *metrics.GuestStats) {
				st.FilteredInputs = g.s.Proxy().Stats().Filtered
			})
			return id, netproxy.StatusFiltered
		}
		g.mu.Lock()
		g.pending = true
		g.cond.Broadcast()
		g.mu.Unlock()
		return id, netproxy.StatusOK
	}
	ln, err := netproxy.NewListener(addr, submit)
	if err != nil {
		return fmt.Errorf("core: guest %s: %w", g.name, err)
	}
	g.listener = ln
	// Both hooks run on the serving goroutine (inside ServeAll), so the
	// output cursor needs no locking.
	g.s.Process().OnRequestServed = g.respondServed
	g.s.OnAttack = g.respondAttack
	return nil
}

// ListenAddr returns the bound address of the guest's TCP front end ("" when
// none is attached).
func (g *Guest) ListenAddr() string {
	if g.listener == nil {
		return ""
	}
	return g.listener.Addr()
}

// FrontLatency returns the recorder of client-observed sojourn times of the
// guest's TCP front end (nil when none is attached).
func (g *Guest) FrontLatency() *metrics.LatencyRecorder {
	if g.listener == nil {
		return nil
	}
	return g.listener.Latency()
}

// respondServed routes a completed request's output back to its connection.
// The process's output stream is append-only (rollback keeps already-sent
// outputs, replayed sends never re-append), so a cursor over it yields each
// live request's outputs exactly once; stale partial outputs of an excised
// attack request are skipped by the request-ID match. Runs on the serving
// goroutine at the request's live-mode boundary — before the checkpoint that
// boundary may take, so the cursor is never behind what the process retains.
func (g *Guest) respondServed(reqID int) {
	p := g.s.Process()
	var resp []byte
	for _, o := range p.OutputsSince(g.outCursor) {
		if o.RequestID != reqID {
			continue
		}
		// A request answered by one send — the usual case — is answered with
		// that record's bytes, which nothing writes again; only several sends
		// need joining (the clamped capacity makes the join copy).
		if resp == nil {
			resp = o.Data
		} else {
			resp = append(resp[:len(resp):len(resp)], o.Data...)
		}
	}
	g.outCursor = p.OutputCount()
	g.listener.Resolve(reqID, netproxy.StatusOK, resp)
}

// respondAttack answers the excised culprit request's connection: the
// defence absorbed the attack, the attacker gets StatusAbsorbed instead of a
// hung connection. Runs on the serving goroutine as soon as the report is
// recorded, before queued benign requests resume service. A failed recovery
// means the guest is going down: every in-flight waiter is failed with
// StatusUnavailable here, at the point the halt is discovered, not left for
// the serve-loop sweep.
func (g *Guest) respondAttack(report *AttackReport) {
	if report.CulpritRequestID >= 0 {
		g.listener.Resolve(report.CulpritRequestID, netproxy.StatusAbsorbed, nil)
	}
	if !report.Recovered {
		g.listener.ResolveAll(netproxy.StatusUnavailable)
	}
}
