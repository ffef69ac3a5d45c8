package proc

import "sync"

// defaultMaxIdle bounds how many idle clone shells a pool retains; shells
// returned beyond the cap are dropped for the garbage collector.
const defaultMaxIdle = 8

// ClonePool hands out reusable replay clones of one source process. A fresh
// Clone pays for a new Machine (code relocation, segment mapping) and a new
// page-map copy per analysis; a pooled shell keeps its Machine and gets the
// reset a fresh Clone gets (Process.reset), so high-attack-rate guests stop
// paying the construction cost over and over (ROADMAP: clone-pool reuse).
//
// A shell obtained from Get is therefore a fresh Process.Clone of the same
// snapshot by construction: memory, registers, allocator, RNG, log view,
// excised set, stop point and proxy are all reset, and Put removed every tool
// and probe a previous user attached. Replays on pooled and fresh clones are
// byte-for-byte deterministic with each other.
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
	if err := shell.reset(cp.src, s); err != nil {
		return nil, err
	}
	return shell, nil
}

// Put returns a clone to the pool. Only clones of this pool's source process
// may be returned. An idle shell is kept for its Machine alone: what its last
// user left on it — analysis tools and their recordings, probes, the view of
// the log — is dropped here, not held until some later Get.
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
// for: tools, probes, the view of the log. A scrubbed shell is what reset
// expects.
func (c *Process) scrub() {
	c.Machine.DetachAllTools()
	c.Machine.ClearProbes()
	c.Log = nil
	c.logMessages = nil
}
