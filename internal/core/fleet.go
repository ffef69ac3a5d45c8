package core

import (
	"fmt"
	"strings"
	"sync"

	"sweeper/internal/antibody"
	"sweeper/internal/checkpoint"
	"sweeper/internal/metrics"
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
	rec   *metrics.FleetRecorder

	// dataDir and ckptStore are the durability layer (see durable.go); both
	// are set once at construction. ckptStore is nil for in-memory fleets.
	dataDir   string
	ckptStore *checkpoint.DiskStore

	mu         sync.Mutex
	guests     map[string]*Guest
	order      []*Guest
	started    bool
	durability DurabilityStats
	wg         sync.WaitGroup
}

// Guest is one protected process inside a Fleet. Its Sweeper is owned by the
// guest's serving goroutine while the fleet runs; use the accessors only
// after Drain or Stop.
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

	// gen is the guest's optional open-loop workload generator (see
	// workload.go). genDone mirrors its completion under mu so Drain and the
	// serving loop agree; genStats is the latest snapshot of its counters.
	gen      *workloadGen
	genDone  bool
	genStats WorkloadStats

	// applied maps an antibody family (owner-attackN) to the currently
	// installed refinement stage, so a refined antibody replaces the initial
	// one instead of stacking probes; appliedRank remembers how refined the
	// installed stage is, so an earlier stage delivered late (store
	// notifications from concurrent publishers may arrive out of order) can
	// never displace a more refined one.
	applied     map[string]*antibody.AppliedAntibody
	appliedRank map[string]int
	adopted     map[string]bool
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
	// outCursor tracks how far into the process's append-only output stream
	// responses have been written back. Both are touched only on the serving
	// goroutine once the fleet has started.
	listener  *netproxy.Listener
	outCursor int

	// lastPersistSeq is the SeqNo of the newest checkpoint written to the
	// fleet's disk store (see maybePersist in durable.go). Touched only on
	// the serving goroutine, and by Stop after the goroutines exit.
	lastPersistSeq int

	serveErr error
}

// NewFleet returns an empty fleet with a fresh shared antibody store. The
// fleet subscribes to its own store: every antibody entering the store — from
// a guest's analysis pipeline or published by an external actor such as the
// federation layer — is fanned out to every guest running that program.
func NewFleet() *Fleet {
	f := &Fleet{
		store:  antibody.NewStore(),
		rec:    metrics.NewFleetRecorder(),
		guests: make(map[string]*Guest),
	}
	f.store.Subscribe(f.distribute)
	return f
}

// Store returns the shared antibody store.
func (f *Fleet) Store() *antibody.Store { return f.store }

// Metrics returns the per-guest counters.
func (f *Fleet) Metrics() *metrics.FleetRecorder { return f.rec }

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
		applied:       make(map[string]*antibody.AppliedAntibody),
		appliedRank:   make(map[string]int),
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

	f.rec.Register(guestName, program)
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
	accepted := g.s.Submit(payload, src, malicious)
	f.rec.Update(g.name, func(st *metrics.GuestStats) {
		st.FilteredInputs = g.s.Proxy().Stats().Filtered
	})
	if accepted {
		g.mu.Lock()
		g.pending = true
		g.cond.Broadcast()
		g.mu.Unlock()
	}
	return accepted
}

// Drain blocks until every guest is quiescent: no queued requests, no
// pending antibody applications, no running workload generator, no attack
// analysis in flight — including the deferred analysis tier, which completes
// after a guest has already resumed service — and no adoption still holding
// its provisional antibody. It must not race with Submit calls.
func (f *Fleet) Drain() {
	for {
		waited := false
		for _, g := range f.Guests() {
			g.mu.Lock()
			for !g.stopped && (g.busy || g.pending || len(g.inbox) > 0 || g.regenerating > 0 || g.workloadRunnable()) {
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

// workloadRunnable reports whether the guest's workload generator still has
// load to offer. Callers hold g.mu.
func (g *Guest) workloadRunnable() bool {
	return g.gen != nil && !g.genDone && g.serveErr == nil
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
	f.rec.Update(origin.name, func(st *metrics.GuestStats) { st.AntibodiesGenerated++ })
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

// antibodyFamily groups the piecemeal stages of one attack's antibody
// (initial, refined, final share the "owner-attackN" ID prefix).
func antibodyFamily(id string) string {
	if i := strings.LastIndex(id, "-"); i >= 0 {
		return id[:i]
	}
	return id
}

// stageRank orders the piecemeal refinement stages; an unknown stage ranks
// lowest so it can never displace anything.
func stageRank(s antibody.Stage) int {
	switch s {
	case antibody.StageRefined:
		return 1
	case antibody.StageFinal:
		return 2
	default:
		return 0
	}
}

// installedAntibodies returns every antibody currently protecting the guest:
// the ones it adopted from the store and the ones its own recovery path
// applied. Verification sandboxes re-apply their VSEF probes so exploits only
// those probes can detect still reproduce. Runs on the guest's goroutine.
func (g *Guest) installedAntibodies() []*antibody.Antibody {
	out := make([]*antibody.Antibody, 0, len(g.applied)+len(g.s.applied))
	for _, ap := range g.applied {
		out = append(out, ap.Antibody())
	}
	for _, ap := range g.s.applied {
		out = append(out, ap.Antibody())
	}
	return out
}

// markOwn records an antibody ID as generated by this guest, so the
// store-driven fan-out does not re-adopt (or re-verify) what the guest's own
// recovery path installs. Runs on the guest's goroutine, like adopt: both are
// reached only from the serving loop.
func (g *Guest) markOwn(id string) { g.adopted[id] = true }

// adopt installs a received antibody on the guest: VSEF probes on the
// process, input signatures on the proxy. A more refined stage of the same
// attack's antibody replaces the earlier one (see install).
//
// With cfg.VerifyAdoption set, the antibody is first re-verified by replaying
// its attached exploit input on a clone sandbox (see Sweeper.VerifyAntibody)
// and rejected — counted, never installed — if the exploit does not reproduce
// a violation here. That gate is all that stands between the guest and the
// worm, so when it passes and regeneration is configured the adoption is
// piecemeal, like antibody generation itself: the guest at once installs a
// provisional antibody of its own making (see provisionalAntibody) and is
// immune to the exploit after one replay; the regeneration replays run on the
// Sweeper's deferred worker, off the serving goroutine, and finishAdoption
// installs the end state when their findings come back — the locally
// regenerated antibody, or the sender's verified one when the findings yield
// no VSEF. With mayDefer false (no serving loop exists yet to finish the
// adoption), or when the deferred queue is full, regeneration runs inline:
// it is never skipped. Runs on the guest's goroutine.
func (g *Guest) adopt(a *antibody.Antibody, mayDefer bool) {
	if g.adopted[a.ID] {
		return
	}
	g.adopted[a.ID] = true
	family := antibodyFamily(a.ID)
	rank := stageRank(a.Stage)
	if _, replacing := g.applied[family]; replacing && rank < g.appliedRank[family] {
		// A more refined stage of this attack's antibody is already
		// installed; an earlier stage delivered late must not strip it (and
		// is not worth a verification sandbox run).
		return
	}
	if !g.s.cfg.VerifyAdoption {
		g.installAdopted(family, rank, a)
		return
	}
	const maxVerifyRetries = 3
	dec, rep := g.s.verifyGate(a, g.installedAntibodies())
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
	g.fleet.rec.Update(g.name, func(st *metrics.GuestStats) {
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
		g.installAdopted(family, rank, a)
		return
	}
	prov := g.s.provisionalAntibody(a)
	if !g.install(family, rank, prov) {
		// A sender VSEF that does not apply here must not cost the guest
		// its immunity: the exact filter alone always installs.
		prov.VSEFs = nil
		g.install(family, rank, prov)
	}
	g.fleet.rec.Update(g.name, func(st *metrics.GuestStats) { st.ProvisionalInstalls++ })
	r := &regeneration{received: a, dec: dec, provisional: g.applied[family]}
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
// provisional antibody is installed, the end state is not.
type regeneration struct {
	received *antibody.Antibody
	// dec is the gate's decision; Regenerated is filled in by the
	// regeneration half before the serving goroutine sees it again.
	dec VerifyDecision
	// provisional is the family's installed handle at hand-over. If it is
	// no longer the installed one when the findings land, a more refined
	// stage took the family over and the end state must not displace it.
	provisional *antibody.AppliedAntibody
}

// finishAdoption installs the end state of a verified adoption once its
// findings are in: the antibody regenerated from them (nothing of the
// received probe or filter definitions survives, only evidence this host
// re-derived itself), or the sender's verified antibody when they yield no
// VSEF. Runs on the guest's goroutine — RegenerateAntibody reads the live
// clock.
func (g *Guest) finishAdoption(r *regeneration) {
	g.fleet.rec.Update(g.name, func(st *metrics.GuestStats) {
		st.FindingsRegenerated += len(r.dec.Regenerated)
	})
	family := antibodyFamily(r.received.ID)
	if g.applied[family] != r.provisional {
		return
	}
	rank := stageRank(r.received.Stage)
	if regen := g.s.RegenerateAntibody(r.received, r.dec); regen != nil {
		if g.installAdopted(family, rank, regen) {
			g.fleet.rec.Update(g.name, func(st *metrics.GuestStats) { st.AntibodiesRegenerated++ })
		}
		return
	}
	g.installAdopted(family, rank, r.received)
}

// install applies an antibody as the family's installed stage. The new stage
// is applied first and the one it replaces removed only on success, so a
// failed application never leaves the guest less protected than before.
func (g *Guest) install(family string, rank int, a *antibody.Antibody) bool {
	ap, err := a.Apply(g.s.Process(), g.s.Proxy())
	if err != nil {
		return false
	}
	if prev, replacing := g.applied[family]; replacing {
		prev.Remove()
	}
	g.applied[family] = ap
	g.appliedRank[family] = rank
	return true
}

// installAdopted is install for an adoption's end state, which is what
// AntibodiesAdopted counts.
func (g *Guest) installAdopted(family string, rank int, a *antibody.Antibody) bool {
	if !g.install(family, rank, a) {
		return false
	}
	g.fleet.rec.Update(g.name, func(st *metrics.GuestStats) { st.AntibodiesAdopted++ })
	return true
}

// loop is the guest's serving goroutine: apply queued antibodies, serve
// queued requests (handling any attacks inline), publish metrics, repeat.
func (g *Guest) loop() {
	defer g.fleet.wg.Done()
	for {
		g.mu.Lock()
		for !g.stopped && !g.pending && len(g.inbox) == 0 && len(g.regenerated) == 0 && !g.workloadRunnable() {
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
		var gen *workloadGen
		if g.workloadRunnable() {
			gen = g.gen
		}
		g.busy = true
		g.mu.Unlock()

		for _, r := range regenerated {
			g.finishAdoption(r)
		}
		for _, a := range inbox {
			g.adopt(a, true)
		}
		if gen != nil {
			if g.s.Halted() {
				// The guest halted outside the workload slice (e.g. an
				// externally submitted request took it down in the serve
				// branch below): retire the generator, or workloadRunnable
				// would keep the loop spinning and Drain waiting forever.
				g.mu.Lock()
				g.genDone = true
				g.mu.Unlock()
			} else {
				done, err := g.runWorkloadSlice(gen)
				g.mu.Lock()
				if done {
					g.genDone = true
				}
				if err != nil {
					g.serveErr = err
				}
				g.mu.Unlock()
			}
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
		g.updateMetrics()

		g.mu.Lock()
		g.halted = halted
		g.busy = false
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// updateMetrics publishes the guest's absolute counters to the recorder.
// Runs on the guest's serving goroutine.
func (g *Guest) updateMetrics() {
	recovered := 0
	for _, r := range g.s.Attacks() {
		if r.Recovered {
			recovered++
		}
	}
	served := g.s.Process().ServedRequests()
	g.mu.Lock()
	gen, done := g.gen, g.genDone
	g.mu.Unlock()
	var wl WorkloadStats
	if gen != nil {
		wl = gen.stats(g.s.Process().Machine.NowMicros(), served, done)
		g.mu.Lock()
		g.genStats = wl
		g.mu.Unlock()
	}
	g.fleet.rec.Update(g.name, func(st *metrics.GuestStats) {
		st.RequestsServed = served
		st.AttacksHandled = len(g.s.Attacks())
		st.Recovered = recovered
		st.FilteredInputs = g.s.Proxy().Stats().Filtered
		st.DeferredBacklog = g.s.DeferredBacklog()
		st.DeferredDropped = g.s.DeferredDropped()
		st.Halted = g.s.Halted()
		if gen != nil {
			st.WorkloadOffered = wl.Offered
			st.WorkloadAttacks = wl.Attacks
			st.WorkloadRejected = wl.Rejected
			st.OfferedReqPerSec = wl.OfferedPerSec()
			st.CompletedReqPerSec = wl.CompletedPerSec()
		}
	})
}
