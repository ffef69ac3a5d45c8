package metrics

import (
	"sort"
	"sync"
)

// GuestStats are the per-guest counters of a fleet daemon: how much traffic
// the guest served, what it survived, and how the shared antibody store
// protected it.
type GuestStats struct {
	Guest   string
	Program string

	// RequestsServed counts requests that completed service.
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
	// moment the exploit reproduced in its sandbox, with a provisional
	// antibody of the guest's own making, before regeneration finished.
	ProvisionalInstalls int
	// FilteredInputs counts requests dropped by input-signature filters at
	// this guest's proxy.
	FilteredInputs int
	// DeferredBacklog is the current depth of the guest's bounded
	// deferred-analysis queue (attacks whose deferred tier is queued or in
	// flight).
	DeferredBacklog int
	// DeferredDropped counts attacks whose deferred analyses were dropped
	// because the bounded queue was full (attack-storm backpressure).
	DeferredDropped int
	// Halted records that the guest's server exited.
	Halted bool
	// WarmRestarted records that the guest's state was restored from a
	// persisted checkpoint at construction instead of the cold program image.
	WarmRestarted bool
}

// FleetRecorder aggregates per-guest statistics for a multi-guest fleet. It
// is safe for concurrent use by the goroutine-per-guest serving loops.
type FleetRecorder struct {
	mu     sync.Mutex
	guests map[string]*GuestStats
}

// NewFleetRecorder returns an empty recorder.
func NewFleetRecorder() *FleetRecorder {
	return &FleetRecorder{guests: make(map[string]*GuestStats)}
}

// Register creates the counter row for a guest (idempotent).
func (r *FleetRecorder) Register(guest, program string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.guests[guest]; !ok {
		r.guests[guest] = &GuestStats{Guest: guest, Program: program}
	}
}

// Update applies fn to the named guest's counters under the recorder lock.
func (r *FleetRecorder) Update(guest string, fn func(*GuestStats)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.guests[guest]
	if !ok {
		g = &GuestStats{Guest: guest}
		r.guests[guest] = g
	}
	fn(g)
}

// Guest returns a copy of the named guest's counters.
func (r *FleetRecorder) Guest(guest string) (GuestStats, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.guests[guest]
	if !ok {
		return GuestStats{}, false
	}
	return *g, true
}

// All returns a copy of every guest's counters, sorted by guest name.
func (r *FleetRecorder) All() []GuestStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GuestStats, 0, len(r.guests))
	for _, g := range r.guests {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Guest < out[j].Guest })
	return out
}

// Totals sums the counters across all guests (Halted becomes "any halted").
func (r *FleetRecorder) Totals() GuestStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := GuestStats{Guest: "fleet"}
	for _, g := range r.guests {
		total.RequestsServed += g.RequestsServed
		total.AttacksHandled += g.AttacksHandled
		total.Recovered += g.Recovered
		total.AntibodiesGenerated += g.AntibodiesGenerated
		total.AntibodiesAdopted += g.AntibodiesAdopted
		total.AntibodiesVerified += g.AntibodiesVerified
		total.AntibodiesRejected += g.AntibodiesRejected
		total.FindingsRegenerated += g.FindingsRegenerated
		total.AntibodiesRegenerated += g.AntibodiesRegenerated
		total.ProvisionalInstalls += g.ProvisionalInstalls
		total.FilteredInputs += g.FilteredInputs
		total.DeferredBacklog += g.DeferredBacklog
		total.DeferredDropped += g.DeferredDropped
		total.Halted = total.Halted || g.Halted
	}
	return total
}
