package antibody

import "sync"

// Store is a thread-safe, deduplicating registry of antibodies shared by a
// fleet of protected guests. A guest that generates an antibody publishes it
// here; every subscriber (typically the fleet's distribution loop) is told
// about each antibody exactly once, so an antibody generated for one guest
// can inoculate all others — the paper's community-defence flow inside one
// daemon.
//
// One mutex guards everything but the WAL: the store's traffic is one
// program and three publishes per attack. An antibody's index in recs is its
// publication index, which is the federation path's Since cursor. Publish
// inserts and copies the subscriber list under the lock; Subscribe appends
// itself and snapshots the store under the same lock. That serialisation is
// what gives each subscriber every antibody exactly once.
//
// mu and walMu are never held together: mu is released before a WAL append
// takes walMu.
type Store struct {
	mu   sync.Mutex
	recs []*Antibody // publication order
	byID map[string]*Antibody
	// byProgram indexes the antibodies by target program, in publication
	// order, so the per-program lookup every joining guest performs stays
	// O(matches) instead of rescanning a fleet-sized store.
	byProgram map[string][]*Antibody
	subs      []func(*Antibody)

	// walMu serialises WAL appends.
	walMu sync.Mutex
	wal   *wal
}

// NewStore returns an empty in-memory store.
func NewStore() *Store {
	return &Store{
		byID:      make(map[string]*Antibody),
		byProgram: make(map[string][]*Antibody),
	}
}

// Publish adds the antibody to the store and notifies subscribers. It
// reports whether the antibody was new; an already-known ID is ignored, so
// guests may republish received antibodies without causing loops.
func (st *Store) Publish(a *Antibody) bool {
	st.mu.Lock()
	if _, dup := st.byID[a.ID]; dup {
		st.mu.Unlock()
		return false
	}
	index := len(st.recs)
	st.byID[a.ID] = a
	st.recs = append(st.recs, a)
	st.byProgram[a.Program] = append(st.byProgram[a.Program], a)
	// subs and recs only ever grow by append, so the elements below len are
	// never written again and a slice header taken under the lock can be
	// read after the unlock.
	subs := st.subs
	st.mu.Unlock()
	st.walAppend(index, a)
	// Notify outside the lock so subscribers may publish or query freely.
	for _, fn := range subs {
		fn(a)
	}
	return true
}

// Subscribe registers fn to be called for every subsequently published
// antibody, and immediately replays every antibody already stored (so a
// late-joining guest is inoculated against everything the fleet has learned).
func (st *Store) Subscribe(fn func(*Antibody)) {
	st.mu.Lock()
	st.subs = append(st.subs, fn)
	replay := st.recs
	st.mu.Unlock()
	for _, a := range replay {
		fn(a)
	}
}

// Get returns the stored antibody with the given ID.
func (st *Store) Get(id string) (*Antibody, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	a, ok := st.byID[id]
	return a, ok
}

// All returns every stored antibody in publication order.
func (st *Store) All() []*Antibody {
	out, _ := st.Since(0)
	return out
}

// Since returns the antibodies published at or after the given publication
// cursor, plus the cursor to pass next time. A federated peer polls with the
// returned cursor to stream the store incrementally: Since(0) is the
// full-store replay a joining peer performs, and an up-to-date peer gets an
// empty slice back. A cursor outside the store clamps to its nearer end.
func (st *Store) Since(cursor int) ([]*Antibody, int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	total := len(st.recs)
	if cursor < 0 {
		cursor = 0
	} else if cursor > total {
		cursor = total
	}
	return append(make([]*Antibody, 0, total-cursor), st.recs[cursor:]...), total
}

// ForProgram returns every stored antibody generated for the given program,
// in publication order.
func (st *Store) ForProgram(program string) []*Antibody {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]*Antibody(nil), st.byProgram[program]...)
}

// Len returns the number of stored antibodies.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.recs)
}
