package core

import (
	"errors"
	"os"
	"path/filepath"

	"sweeper/internal/antibody"
	"sweeper/internal/checkpoint"
)

// FleetOptions configures a fleet's durability layer.
type FleetOptions struct {
	// DataDir is the root of the daemon's persistent state:
	//
	//	<DataDir>/antibodies/  — the antibody log, wal.log (antibody.OpenDurable)
	//	<DataDir>/checkpoints/ — content-addressed checkpoint store
	//
	// Empty means fully in-memory.
	DataDir string
}

// DurabilityStats counts the fleet's durability events.
type DurabilityStats struct {
	// WarmRestarts counts guests restored from a persisted checkpoint.
	WarmRestarts int
	// ColdFallbacks counts guests that had a persisted checkpoint but could
	// not use it (unreadable store, corrupt record, layout mismatch) and
	// started cold instead. A fresh guest with nothing on disk is neither.
	ColdFallbacks int
	// Warnings counts non-fatal durability failures: an unopenable store at
	// construction, a failed checkpoint persist. The fleet keeps serving —
	// losing durability must never take down the defence.
	Warnings int
}

// NewFleetWithOptions returns an empty fleet around a fresh shared antibody
// store. The fleet subscribes to its own store: every antibody entering the
// store — from a guest's analysis pipeline or published by an external actor
// such as the federation layer — is fanned out to every guest running that
// program. With opts.DataDir set, the store and the guest checkpoints persist
// under it. Opening is crash-tolerant (torn WAL tails are truncated, and a
// guest's one manifest is replaced whole, so it is the previous checkpoint or
// the new one, never a mix) and failure-tolerant: if either store cannot be
// opened the fleet degrades to the in-memory equivalent with a counted
// warning rather than failing — a daemon that lost its disk still defends its
// guests.
func NewFleetWithOptions(opts FleetOptions) *Fleet {
	f := &Fleet{guests: make(map[string]*Guest)}
	if opts.DataDir == "" {
		f.store = antibody.NewStore()
	} else {
		st, err := antibody.OpenDurable(filepath.Join(opts.DataDir, "antibodies"), antibody.DurableOptions{})
		if err != nil {
			f.durability.Warnings++
			st = antibody.NewStore()
		}
		f.store = st
		ds, err := checkpoint.OpenDiskStore(filepath.Join(opts.DataDir, "checkpoints"))
		if err != nil {
			f.durability.Warnings++
		} else {
			f.ckptStore = ds
		}
	}
	f.store.Subscribe(f.distribute)
	return f
}

// Durability returns the fleet's durability counters.
func (f *Fleet) Durability() DurabilityStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.durability
}

func (f *Fleet) durabilityWarning() {
	f.mu.Lock()
	f.durability.Warnings++
	f.mu.Unlock()
}

// tryWarmRestore hands a newly added guest its persisted checkpoint, if one
// exists and is usable. Any failure — unreadable store, corrupt manifest,
// layout mismatch with the freshly constructed process — falls back to the
// cold image the Sweeper already built, with a counted warning; a guest with
// nothing on disk is simply fresh. Called from AddGuest, before the serving
// goroutine can exist, so the Sweeper is still single-owner.
func (f *Fleet) tryWarmRestore(g *Guest) {
	if f.ckptStore == nil {
		return
	}
	pc, err := f.ckptStore.Load(g.name)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			f.mu.Lock()
			f.durability.ColdFallbacks++
			f.durability.Warnings++
			f.mu.Unlock()
		}
		return
	}
	if pc.Layout != g.s.Layout() {
		// The persisted image was built for a different address-space layout
		// (e.g. a changed ASLR seed); its page table is meaningless here.
		f.mu.Lock()
		f.durability.ColdFallbacks++
		f.durability.Warnings++
		f.mu.Unlock()
		return
	}
	g.s.WarmRestore(pc)
	f.mu.Lock()
	f.durability.WarmRestarts++
	f.mu.Unlock()
	g.count(func(st *GuestStats) { st.WarmRestarted = true })
}

// WarmRestore reinstates the persisted checkpoint as the process's current
// state and re-seats the checkpoint ring on it: the cold-image checkpoint
// taken at construction must not remain a rollback target once the restored
// state supersedes it. The caller must own the Sweeper (no serving
// goroutine yet).
func (s *Sweeper) WarmRestore(pc *checkpoint.PersistedCheckpoint) {
	s.proc.RestorePersisted(pc.Mem, pc.Regs, pc.Alloc, pc.Rng)
	s.ckpt.Reset()
	s.ckpt.Checkpoint(s.proc)
}

// maybePersist writes the guest's newest checkpoint to the fleet's disk
// store when it advanced past the last persisted one. Runs on the serving
// goroutine (it owns the Sweeper and its checkpoint ring). Persist failures
// degrade to a counted warning.
func (g *Guest) maybePersist() {
	ds := g.fleet.ckptStore
	if ds == nil || g.s.Halted() {
		return
	}
	snap := g.s.Checkpoints().Latest()
	if snap == nil || snap.SeqNo == g.lastPersistSeq {
		return
	}
	if err := ds.Save(g.name, snap, g.s.Layout()); err != nil {
		g.fleet.durabilityWarning()
		return
	}
	g.lastPersistSeq = snap.SeqNo
}

// Kill hard-stops the fleet with crash semantics — the in-process
// equivalent of SIGKILL, used by the fault-injection harness. Nothing is
// drained, flushed or fsynced: the durability layer is detached first (so
// no goroutine still winding down can write another WAL record), serving
// goroutines are terminated at their next loop boundary, and listeners are
// torn down. What the data directory holds afterwards is exactly what the
// write path had already made it hold — the state a real crash would leave.
func (f *Fleet) Kill() {
	f.store.DetachWAL()
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
}
