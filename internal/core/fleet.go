package core

import (
	"fmt"
	"sync"

	"sweeper/internal/antibody"
	"sweeper/internal/checkpoint"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// Fleet protects many guest server processes at once, one goroutine per
// guest, around a shared antibody store: an antibody generated for one guest
// inoculates every other guest running the same program, without that guest
// ever being attacked — the paper's community-defence flow inside a single
// daemon.
type Fleet struct {
	store *antibody.Store

	// ckptStore is the durability layer's checkpoint half (see durable.go),
	// set once at construction; nil for in-memory fleets.
	ckptStore *checkpoint.DiskStore

	mu         sync.Mutex
	guests     map[string]*Guest
	order      []*Guest
	started    bool
	durability DurabilityStats
	wg         sync.WaitGroup
}

// Guest is one protected process inside a Fleet. Its Sweeper is owned by the
// guest's serving goroutine while the fleet runs; use the accessors other
// than Stats only after Drain or Stop.
type Guest struct {
	name    string
	program string
	fleet   *Fleet
	s       *Sweeper

	mu      sync.Mutex
	cond    *sync.Cond
	inbox   []*antibody.Antibody
	pending bool
	busy    bool
	stopped bool
	// halted mirrors s.Halted() under mu: the Sweeper field belongs to the
	// serving goroutine, but the TCP front end's submit path (connection
	// goroutines) must see the halt to answer StatusUnavailable.
	halted bool
	// counts holds what only the guest counts (see Stats), under mu: the
	// adoption and generation counters, WarmRestarted, and RequestsServed,
	// mirrored at the end of each serving pass like halted.
	counts GuestStats

	// adopted holds the IDs of the antibodies the guest has taken up or
	// generated itself; what is installed is the Sweeper's (Sweeper.install).
	adopted map[string]bool
	// verifyRetries counts re-runs of verifications whose sandbox failed
	// transiently; after the bounded retries the rejection becomes final.
	verifyRetries map[string]int
	// regenerating counts adoptions whose regeneration half is with the
	// Sweeper's deferred worker; regenerated holds the ones whose findings
	// came back and wait for the serving goroutine to install their end
	// state (see adopt). Both are guarded by mu; an adoption leaves the count
	// when the serving loop takes it off the list.
	regenerating int
	regenerated  []*regeneration

	// listener is the guest's optional TCP front end (see front.go);
	// outCursor is the position in the process's append-only event log up to
	// which responses have been written back. Both are touched only on the serving
	// goroutine once the fleet has started.
	listener  *netproxy.Listener
	outCursor int

	// lastPersistSeq is the SeqNo of the newest checkpoint written to the
	// fleet's disk store (see maybePersist in durable.go). Touched only on
	// the serving goroutine, and by Stop after the goroutines exit.
	lastPersistSeq int

	serveErr error
}

// Store returns the shared antibody store.
func (f *Fleet) Store() *antibody.Store { return f.store }

// AddGuest creates a Sweeper-protected guest named guestName running the
// given program and registers it with the fleet. Antibodies already in the
// shared store for the same program are queued for application, so a
// late-joining guest starts out inoculated. If the fleet is already started
// the guest's serving goroutine launches immediately.
func (f *Fleet) AddGuest(guestName, program string, image *vm.Program, opts proc.Options, cfg Config) (*Guest, error) {
	cfg.InstanceID = guestName
	s, err := New(program, image, opts, cfg)
	if err != nil {
		return nil, fmt.Errorf("fleet: guest %s: %w", guestName, err)
	}
	g := &Guest{
		name:          guestName,
		program:       program,
		fleet:         f,
		s:             s,
		counts:        GuestStats{Guest: guestName, Program: program},
		adopted:       make(map[string]bool),
		verifyRetries: make(map[string]int),
	}
	g.cond = sync.NewCond(&g.mu)
	// Publications happen on g's goroutine during attack handling; the fleet
	// forwards them to the store and from there to all other guests.
	s.OnAntibody = func(a *antibody.Antibody) { f.publishFrom(g, a) }

	f.mu.Lock()
	if _, dup := f.guests[guestName]; dup {
		f.mu.Unlock()
		return nil, fmt.Errorf("fleet: duplicate guest name %q", guestName)
	}
	f.guests[guestName] = g
	f.order = append(f.order, g)
	started := f.started
	f.mu.Unlock()

	// Warm restart: hand the guest its persisted checkpoint before any
	// serving goroutine can exist. The store replay below then queues every
	// known antibody for the program, and the serving loop applies its inbox
	// before serving — so a restarted guest has its filters and probes
	// reinstalled before it takes traffic.
	f.tryWarmRestore(g)
	for _, a := range f.store.ForProgram(program) {
		g.enqueueAntibody(a)
	}
	if started {
		f.wg.Add(1)
		go g.loop()
	} else {
		// No serving goroutine exists yet, so apply the queued (replayed)
		// antibodies synchronously: input-signature filters act at Submit
		// time, and a warm-restarted guest must reject the old exploit at
		// the proxy even when a Submit races Start().
		g.mu.Lock()
		inbox := g.inbox
		g.inbox = nil
		g.mu.Unlock()
		for _, a := range inbox {
			g.adopt(a, false)
		}
	}
	return g, nil
}

// Guest returns the named guest.
func (f *Fleet) Guest(name string) (*Guest, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	g, ok := f.guests[name]
	return g, ok
}

// Guests returns the guests in the order they were added.
func (f *Fleet) Guests() []*Guest {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*Guest(nil), f.order...)
}

// Start launches the serving goroutines. It is idempotent.
func (f *Fleet) Start() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return
	}
	f.started = true
	for _, g := range f.order {
		f.wg.Add(1)
		go g.loop()
	}
}

// Submit offers a request to the named guest through its filtering proxy and
// wakes the guest's serving goroutine. It reports whether the request was
// accepted (false when an input-signature antibody filtered it out, or the
// guest does not exist).
func (f *Fleet) Submit(guest string, payload []byte, src string, malicious bool) bool {
	g, ok := f.Guest(guest)
	if !ok {
		return false
	}
	_, accepted := g.submit(payload, src, malicious)
	return accepted
}

// submit offers a request to the guest's filtering proxy, for Fleet.Submit
// and the TCP front end alike. A filtered request never wakes the serving
// loop.
func (g *Guest) submit(payload []byte, src string, malicious bool) (reqID int, accepted bool) {
	reqID, accepted = g.s.SubmitTracked(payload, src, malicious)
	if !accepted {
		return reqID, false
	}
	g.mu.Lock()
	g.pending = true
	g.cond.Broadcast()
	g.mu.Unlock()
	return reqID, true
}

// Drain blocks until every guest is quiescent: no queued requests, no
// pending antibody applications, no attack analysis in flight — including
// the deferred analysis tier, which completes after a guest has already
// resumed service — and no adoption still waiting for its regeneration.
// It must not race with Submit calls.
func (f *Fleet) Drain() {
	for {
		waited := false
		for _, g := range f.Guests() {
			g.mu.Lock()
			for !g.stopped && (g.busy || g.pending || len(g.inbox) > 0 || g.regenerating > 0) {
				waited = true
				g.cond.Wait()
			}
			g.mu.Unlock()
			g.s.WaitAnalyses()
		}
		if !waited {
			return
		}
	}
}

// Stop drains outstanding work, terminates every guest goroutine, waits for
// them to exit and closes any attached TCP front ends (failing their
// still-open connections with StatusError). A durable fleet then persists
// each guest's final checkpoint, flushes and fsyncs the antibody WAL
// (detaching it) and fsyncs the checkpoint store: a clean shutdown never
// loses the last published antibody, and the next daemon on the same data
// directory restarts warm.
func (f *Fleet) Stop() {
	f.Drain()
	for _, g := range f.Guests() {
		g.mu.Lock()
		g.stopped = true
		g.cond.Broadcast()
		g.mu.Unlock()
	}
	f.wg.Wait()
	for _, g := range f.Guests() {
		if g.listener != nil {
			g.listener.Close()
		}
	}
	if f.ckptStore != nil {
		for _, g := range f.Guests() {
			// The goroutines have exited; we own every Sweeper. Capture the
			// quiescent state (a halted guest keeps its last pre-halt
			// persisted checkpoint instead).
			if !g.s.Halted() {
				g.s.ckpt.Checkpoint(g.s.proc)
			}
			g.maybePersist()
		}
	}
	if err := f.store.Close(); err != nil {
		f.durabilityWarning()
	}
	if f.ckptStore != nil {
		if err := f.ckptStore.Sync(); err != nil {
			f.durabilityWarning()
		}
	}
}

// publishFrom records a guest-generated antibody in the shared store; the
// store subscription (distribute) fans it out from there. The origin marks
// the antibody as its own first, so the fan-out does not re-apply what the
// guest's recovery path already installed.
func (f *Fleet) publishFrom(origin *Guest, a *antibody.Antibody) {
	origin.markOwn(a.ID)
	if !f.store.Publish(a) {
		return
	}
	origin.count(func(st *GuestStats) { st.AntibodiesGenerated++ })
}

// distribute is the store-subscription callback: it queues a newly stored
// antibody on every guest running the antibody's program. Guests that have
// already seen the ID (including the generating guest itself) skip it in
// adopt, so double delivery — e.g. the late-joiner replay racing a concurrent
// publish — is harmless.
func (f *Fleet) distribute(a *antibody.Antibody) {
	for _, g := range f.Guests() {
		if g.program != a.Program {
			continue
		}
		g.enqueueAntibody(a)
	}
}

// Name returns the guest's fleet-unique name.
func (g *Guest) Name() string { return g.name }

// Program returns the name of the program the guest runs.
func (g *Guest) Program() string { return g.program }

// Sweeper returns the guest's Sweeper. Only use it while the fleet is
// drained or stopped; the serving goroutine owns it otherwise.
func (g *Guest) Sweeper() *Sweeper { return g.s }

// ServeError returns the last error the serving loop encountered (e.g. a
// failed recovery).
func (g *Guest) ServeError() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.serveErr
}

func (g *Guest) enqueueAntibody(a *antibody.Antibody) {
	g.mu.Lock()
	g.inbox = append(g.inbox, a)
	g.cond.Broadcast()
	g.mu.Unlock()
}

// markOwn records an antibody ID as generated by this guest, so the
// store-driven fan-out does not re-adopt (or re-verify) what the guest's own
// recovery path installs. Runs on the guest's goroutine, like adopt: both are
// reached only from the serving loop.
func (g *Guest) markOwn(id string) { g.adopted[id] = true }

// adopt installs a received antibody on the guest: VSEF probes on the
// process, input signatures on the proxy. A more refined stage of the same
// attack's antibody replaces the earlier one (see Sweeper.install).
//
// With cfg.VerifyAdoption set, the antibody is first re-verified by replaying
// its attached exploit input on a clone sandbox (see Sweeper.VerifyAntibody)
// and rejected — counted, never installed — if the exploit does not reproduce
// a violation here. Once the gate passes, the verified antibody is installed
// as received: each of its signatures is the exploit's exact bytes, and its
// VSEFs only add checking (a faulty one is uninstalled by recovery). The
// guest is immune to the exploit after that one replay. When regeneration is
// configured, its replays run on the Sweeper's deferred worker, off the
// serving goroutine, and finishAdoption replaces the installed antibody with
// the locally regenerated one when their findings come back, or leaves it
// installed when they yield no VSEF. With mayDefer false (no serving loop
// exists yet to finish the adoption), or when the deferred queue is full,
// regeneration runs inline: it is never skipped. Runs on the guest's
// goroutine.
func (g *Guest) adopt(a *antibody.Antibody, mayDefer bool) {
	if g.adopted[a.ID] {
		return
	}
	g.adopted[a.ID] = true
	if g.s.outranked(a) {
		// Not worth a verification sandbox run either.
		return
	}
	if !g.s.cfg.VerifyAdoption {
		g.installAdopted(a)
		return
	}
	const maxVerifyRetries = 3
	dec, rep := g.s.verifyGate(a)
	if dec.Transient && g.verifyRetries[a.ID] < maxVerifyRetries {
		// The sandbox failed, proving nothing about the antibody:
		// forget the ID and requeue it so the serving loop retries the
		// verification. After the bounded retries the rejection below
		// becomes final (and counted) instead of silently dropping an
		// antibody the store still holds.
		g.verifyRetries[a.ID]++
		delete(g.adopted, a.ID)
		g.enqueueAntibody(a)
		return
	}
	g.count(func(st *GuestStats) {
		if dec.Reproduced {
			st.AntibodiesVerified++
		}
		if !dec.Adoptable {
			st.AntibodiesRejected++
		}
	})
	if !dec.Adoptable {
		return
	}
	if rep == nil {
		// Nothing to regenerate from (VSEF-only, or regeneration is not
		// configured): the verified sender antibody is the end state.
		g.installAdopted(a)
		return
	}
	r := &regeneration{received: a, dec: dec, installed: g.s.install(a)}
	if r.installed == nil {
		// A sender VSEF that does not apply here must not cost the guest
		// its immunity: the verified signatures alone always install.
		sigs := *a
		sigs.VSEFs = nil
		r.installed = g.s.install(&sigs)
	}
	g.count(func(st *GuestStats) { st.ProvisionalInstalls++ })
	if mayDefer && g.s.enqueueDeferred(func() {
		r.dec.Regenerated = rep.regenerate(deferredYieldInstrs)
		g.mu.Lock()
		g.regenerated = append(g.regenerated, r)
		g.cond.Broadcast()
		g.mu.Unlock()
	}) {
		// Counted after the hand-over, which may already have come back:
		// only this goroutine takes adoptions off the list and the count,
		// and Drain sees the loop busy until it has.
		g.mu.Lock()
		g.regenerating++
		g.mu.Unlock()
		return
	}
	r.dec.Regenerated = rep.regenerate(0)
	g.finishAdoption(r)
}

// regeneration is an adoption between its two halves: the gate passed, the
// verified antibody is installed, its regeneration has not landed.
type regeneration struct {
	received *antibody.Antibody
	// dec is the gate's decision; Regenerated is filled in by the
	// regeneration half before the serving goroutine sees it again.
	dec VerifyDecision
	// installed is the family's handle installed at the gate. If it is no
	// longer the installed one when the findings land, a more refined stage
	// took the family over and the end state must not displace it.
	installed *antibody.AppliedAntibody
}

// finishAdoption settles a verified adoption once its findings are in: the
// antibody regenerated from them replaces the one installed at the gate
// (nothing of the received probe or filter definitions survives, only
// evidence this host re-derived itself); when they yield no VSEF, the
// antibody installed at the gate, less any VSEF recovery removed as faulty
// meanwhile, is the end state. Runs on the guest's goroutine —
// RegenerateAntibody reads the live clock.
func (g *Guest) finishAdoption(r *regeneration) {
	g.count(func(st *GuestStats) { st.FindingsRegenerated += len(r.dec.Regenerated) })
	if i := g.s.stageOf(antibodyFamily(r.received.ID)); i < 0 || g.s.installed[i] != r.installed {
		return
	}
	regen := g.s.RegenerateAntibody(r.received, r.dec)
	regenerated := regen != nil && g.s.install(regen) != nil
	g.count(func(st *GuestStats) {
		st.AntibodiesAdopted++
		if regenerated {
			st.AntibodiesRegenerated++
		}
	})
}

// installAdopted installs an adoption's end state (Sweeper.install), which is
// what AntibodiesAdopted counts.
func (g *Guest) installAdopted(a *antibody.Antibody) bool {
	if g.s.install(a) == nil {
		return false
	}
	g.count(func(st *GuestStats) { st.AntibodiesAdopted++ })
	return true
}

// loop is the guest's serving goroutine. It has three sources of work —
// adoptions whose regeneration came back, the antibody inbox, and requests
// pending at the proxy — and takes them in that order: finish adoptions,
// apply queued antibodies, serve queued requests (handling any attacks
// inline), repeat.
func (g *Guest) loop() {
	defer g.fleet.wg.Done()
	for {
		g.mu.Lock()
		for !g.stopped && !g.pending && len(g.inbox) == 0 && len(g.regenerated) == 0 {
			g.cond.Wait()
		}
		if g.stopped {
			g.mu.Unlock()
			return
		}
		inbox := g.inbox
		g.inbox = nil
		regenerated := g.regenerated
		g.regenerated = nil
		g.regenerating -= len(regenerated)
		serve := g.pending
		g.pending = false
		g.busy = true
		g.mu.Unlock()

		for _, r := range regenerated {
			g.finishAdoption(r)
		}
		for _, a := range inbox {
			g.adopt(a, true)
		}
		if serve && !g.s.Halted() {
			_, err := g.s.ServeAll()
			if err != nil {
				g.mu.Lock()
				g.serveErr = err
				g.mu.Unlock()
			}
		}
		halted := g.s.Halted()
		if g.listener != nil && halted {
			// The guest is gone; connections waiting on queued requests would
			// otherwise block forever. StatusUnavailable tells the client the
			// guest is down (the daemon may restart it warm), as opposed to
			// the StatusError a daemon shutdown sends.
			g.listener.ResolveAll(netproxy.StatusUnavailable)
		}
		g.maybePersist()

		g.mu.Lock()
		g.halted = halted
		g.counts.RequestsServed = g.s.Process().ServedRequests()
		g.busy = false
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// GuestStats are a guest's counters: how much traffic it served, what it
// survived, and how the shared antibody store protected it.
type GuestStats struct {
	Guest   string
	Program string

	// RequestsServed counts requests that completed service, as of the end
	// of the guest's last serving pass.
	RequestsServed int
	// AttacksHandled counts attacks detected and analysed on this guest.
	AttacksHandled int
	// Recovered counts attacks from which the guest recovered in place.
	Recovered int
	// AntibodiesGenerated counts antibodies this guest produced itself.
	AntibodiesGenerated int
	// AntibodiesAdopted counts antibodies received from the shared store
	// (generated by other guests) and applied to this guest.
	AntibodiesAdopted int
	// AntibodiesVerified counts received antibodies whose attached exploit
	// input was replayed in a sandbox and reproduced a violation
	// (verify-before-adopt successes).
	AntibodiesVerified int
	// AntibodiesRejected counts received antibodies refused by
	// verify-before-adopt: the exploit replay did not reproduce a violation,
	// or the antibody carried input signatures it could not justify.
	AntibodiesRejected int
	// FindingsRegenerated counts the analysis findings the guest re-derived
	// locally while verifying received antibodies (the fast tier re-run
	// against the reproduced exploit in the verification sandbox).
	FindingsRegenerated int
	// AntibodiesRegenerated counts adoptions that installed a locally
	// regenerated antibody — VSEFs and signatures synthesised from the
	// guest's own verification findings — instead of the sender's contents.
	AntibodiesRegenerated int
	// ProvisionalInstalls counts adoptions that made the guest immune the
	// moment the exploit reproduced in its sandbox, by installing the
	// verified antibody before regeneration finished.
	ProvisionalInstalls int
	// FilteredInputs counts requests dropped by input-signature filters at
	// this guest's proxy.
	FilteredInputs int
	// Halted records that the guest's server exited.
	Halted bool
	// WarmRestarted records that the guest's state was restored from a
	// persisted checkpoint at construction instead of the cold program image.
	WarmRestarted bool
}

// Stats returns the guest's counters, each read from what owns it: the
// attack reports from the Sweeper, the filtered count from the proxy, the
// rest from the guest. Safe to call at any time, from any goroutine.
func (g *Guest) Stats() GuestStats {
	g.mu.Lock()
	st := g.counts
	st.Halted = g.halted
	g.mu.Unlock()
	for _, r := range g.s.Attacks() {
		st.AttacksHandled++
		if r.Recovered {
			st.Recovered++
		}
	}
	st.FilteredInputs = g.s.Proxy().Stats().Filtered
	return st
}

// count applies fn to the guest's own counters under mu.
func (g *Guest) count(fn func(*GuestStats)) {
	g.mu.Lock()
	fn(&g.counts)
	g.mu.Unlock()
}
