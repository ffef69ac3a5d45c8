package proc

import (
	"sync"

	"sweeper/internal/netproxy"
)

// defaultMaxIdle bounds how many idle clone shells a pool retains; shells
// returned beyond the cap are dropped for the garbage collector.
const defaultMaxIdle = 8

// ClonePool hands out reusable replay clones of one source process. A fresh
// Clone pays for a new Machine (code relocation, segment mapping) and a new
// page-map copy per analysis; a pooled shell keeps its Machine and is reset
// to the requested checkpoint instead — the same Rollback + NotifyRollback
// path recovery uses — so high-attack-rate guests stop paying the
// construction cost over and over (ROADMAP: clone-pool reuse).
//
// A shell obtained from Get is indistinguishable from a fresh
// Process.Clone of the same snapshot: memory, registers, allocator, RNG,
// log view, drop/excise sets and proxy are all reset, and every tool and
// probe a previous user attached is removed. Replays on pooled and fresh
// clones are therefore byte-for-byte deterministic with each other.
//
// Get and Put are safe for concurrent use. Like Process.Clone, Get reads the
// source process's log and request sets, so callers must not run the source
// live concurrently with Get (the analysis pipeline builds all sandboxes
// while the guest is stopped at the detection point).
type ClonePool struct {
	src *Process

	mu      sync.Mutex
	idle    []*Process
	maxIdle int
	created int
	reused  int
}

// NewClonePool returns an empty pool of replay clones of src.
func NewClonePool(src *Process) *ClonePool {
	return &ClonePool{src: src, maxIdle: defaultMaxIdle}
}

// Get returns a replay clone positioned at the given snapshot: a reset idle
// shell when one is available, a fresh Process.Clone otherwise.
func (cp *ClonePool) Get(s *Snapshot) (*Process, error) {
	cp.mu.Lock()
	var shell *Process
	if n := len(cp.idle); n > 0 {
		shell = cp.idle[n-1]
		cp.idle = cp.idle[:n-1]
		cp.reused++
	} else {
		cp.created++
	}
	cp.mu.Unlock()
	if shell == nil {
		return cp.src.Clone(s)
	}
	if err := shell.resetForReuse(cp.src, s); err != nil {
		return nil, err
	}
	return shell, nil
}

// Put returns a clone to the pool. Only clones of this pool's source process
// may be returned. An idle shell is kept for its Machine alone: what its last
// user left on it — analysis tools and their recordings, probes, the view of
// the log, outputs — is dropped here, not held until some later Get.
func (cp *ClonePool) Put(c *Process) {
	if c == nil {
		return
	}
	c.scrub()
	cp.mu.Lock()
	if len(cp.idle) < cp.maxIdle {
		cp.idle = append(cp.idle, c)
	}
	cp.mu.Unlock()
}

// Stats reports how many clones were freshly built and how many Get calls
// were served by resetting an idle shell.
func (cp *ClonePool) Stats() (created, reused int) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.created, cp.reused
}

// scrub drops what a clone's user left on it and an idle shell has no use
// for. It establishes nothing: resetForReuse, which starts from it, does that
// on the next Get.
func (c *Process) scrub() {
	c.Machine.DetachAllTools()
	c.Machine.ClearProbes()
	c.Log = nil
	c.outputs, c.outBase = nil, 0
	c.logMessages = nil
}

// resetForReuse makes a previously used clone shell equivalent to a fresh
// src.Clone(s): same checkpoint state, same log view, no leftover tools,
// probes, drops or outputs from the previous user. Unlike Rollback, the
// virtual clock is reset to the snapshot's — a pooled sandbox has no
// client-visible clock to keep monotonic, and fresh clones start there too,
// which keeps pooled and fresh replays identical.
func (c *Process) resetForReuse(src *Process, s *Snapshot) error {
	log, err := src.replayLog(s)
	if err != nil {
		return err
	}
	c.scrub()
	c.Log = log
	c.proxy = netproxy.New()
	c.mode = ModeReplay
	c.replayThenLive = false
	c.skip = make(map[int]bool, len(src.skip))
	for id := range src.skip {
		c.skip[id] = true
	}
	c.excised = make(map[int]bool, len(src.excised))
	for id := range src.excised {
		c.excised[id] = true
	}
	c.currentReqID = s.CurrentReqID
	c.servedCount = s.ServedCount
	c.rng = s.Rng
	c.diverged = false
	c.divergence = ""

	// Restore machine state, the previous user's instrumentation gone with
	// scrub. NotifyRollback is deliberately invoked after the restore: a caller
	// that re-attaches long-lived tools before running relies on the same
	// shadow discipline Rollback establishes, and resets are idempotent.
	c.Machine.Mem.Restore(s.Mem)
	c.Machine.RestoreRegs(s.Regs)
	c.Alloc.Restore(s.Alloc)
	c.Machine.NotifyRollback()
	return nil
}
