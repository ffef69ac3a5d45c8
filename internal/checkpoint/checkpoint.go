// Package checkpoint implements the Rx-style checkpoint manager: a bounded
// ring of lightweight in-memory process snapshots taken at a configurable
// interval of virtual time. Snapshots are taken at request boundaries, kept
// for a short time (the paper keeps the 20 most recent, at 200 ms intervals)
// and discarded as new ones arrive.
package checkpoint

import (
	"fmt"

	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// Policy controls when checkpoints are taken and how many are retained.
type Policy struct {
	// IntervalMs is the minimum virtual time between checkpoints.
	IntervalMs uint64
	// MaxKept is the number of recent checkpoints retained.
	MaxKept int
}

// DefaultPolicy mirrors the paper's experiment setup: a checkpoint every
// 200 ms, keeping the 20 most recent.
func DefaultPolicy() Policy { return Policy{IntervalMs: 200, MaxKept: 20} }

// Manager owns the snapshot ring for one protected process.
type Manager struct {
	policy Policy
	snaps  []*proc.Snapshot
	seq    int
	lastMs uint64
	taken  int
	// bytesCaptured sums the page data each checkpoint captured (sub-page
	// dirty runs by run length, whole-page captures by vm.PageSize);
	// bytesFull sums what full-scan, full-page checkpoints would have walked
	// instead (mapped pages times vm.PageSize). Their ratio is the win of
	// the sub-page incremental design across the run.
	bytesCaptured int
	bytesFull     int
}

// NewManager returns a manager with the given policy; zero fields fall back
// to the defaults.
func NewManager(policy Policy) *Manager {
	def := DefaultPolicy()
	if policy.IntervalMs == 0 {
		policy.IntervalMs = def.IntervalMs
	}
	if policy.MaxKept <= 0 {
		policy.MaxKept = def.MaxKept
	}
	return &Manager{policy: policy}
}

// Policy returns the manager's policy.
func (m *Manager) Policy() Policy { return m.policy }

// Count returns the number of retained snapshots.
func (m *Manager) Count() int { return len(m.snaps) }

// Taken returns the total number of checkpoints taken since creation.
func (m *Manager) Taken() int { return m.taken }

// ByteStats returns the cumulative byte counts across every checkpoint
// taken: captured is the page data actually snapshotted (dirty runs plus
// whole pages), full is what full-scan, full-page snapshots would have
// copied instead.
func (m *Manager) ByteStats() (captured, full int) {
	return m.bytesCaptured, m.bytesFull
}

// Checkpoint unconditionally takes a snapshot of p and adds it to the ring,
// evicting the oldest if the ring is full. The ring is also how much history
// p keeps: with a snapshot goes everything p logged before the next one,
// which nothing can roll back to any more.
func (m *Manager) Checkpoint(p *proc.Process) *proc.Snapshot {
	m.seq++
	s := p.Snapshot(m.seq)
	m.snaps = append(m.snaps, s)
	if last := len(m.snaps) - 1; last >= m.policy.MaxKept {
		// Move down in place: reslicing from the front would keep the evicted
		// snapshot reachable from the array until append replaced it.
		copy(m.snaps, m.snaps[1:])
		m.snaps[last] = nil
		m.snaps = m.snaps[:last]
		p.DiscardHistoryBefore(m.snaps[0])
	}
	m.lastMs = s.TakenAtMs
	m.taken++
	m.bytesCaptured += s.CapturedBytes
	m.bytesFull += s.Mem.Pages() * vm.PageSize
	return s
}

// MaybeCheckpoint takes a snapshot only if at least the policy interval of
// virtual time has elapsed since the previous one. It returns nil when no
// checkpoint was taken. Callers invoke it at request boundaries.
func (m *Manager) MaybeCheckpoint(p *proc.Process) *proc.Snapshot {
	now := p.Machine.NowMillis()
	if len(m.snaps) > 0 && now < m.lastMs+m.policy.IntervalMs {
		return nil
	}
	return m.Checkpoint(p)
}

// Reset drops every retained snapshot and the interval clock, keeping the
// policy and cumulative counters. A warm-restarted guest calls it after
// adopting a persisted checkpoint: the cold-image snapshot taken at
// construction must not remain a rollback target once the restored state
// supersedes it.
func (m *Manager) Reset() {
	m.snaps = nil
	m.lastMs = 0
}

// Latest returns the most recent snapshot, or nil if none exist.
func (m *Manager) Latest() *proc.Snapshot {
	if len(m.snaps) == 0 {
		return nil
	}
	return m.snaps[len(m.snaps)-1]
}

// Oldest returns the oldest retained snapshot, or nil if none exist.
func (m *Manager) Oldest() *proc.Snapshot {
	if len(m.snaps) == 0 {
		return nil
	}
	return m.snaps[0]
}

// Snapshots returns the retained snapshots from oldest to newest.
func (m *Manager) Snapshots() []*proc.Snapshot {
	out := make([]*proc.Snapshot, len(m.snaps))
	copy(out, m.snaps)
	return out
}

// BeforeLogIndex returns the most recent snapshot taken before the event log
// had grown to logIndex entries — i.e. a snapshot from before the given
// request was delivered. The analysis module uses it to roll back to "a point
// prior to the attacking requests being read in".
func (m *Manager) BeforeLogIndex(logIndex int) (*proc.Snapshot, error) {
	for i := len(m.snaps) - 1; i >= 0; i-- {
		if m.snaps[i].LogLen <= logIndex {
			return m.snaps[i], nil
		}
	}
	return nil, fmt.Errorf("checkpoint: no retained snapshot precedes log index %d", logIndex)
}
