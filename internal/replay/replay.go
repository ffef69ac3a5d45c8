// Package replay implements Flashback-style event logging for deterministic
// re-execution. During normal execution the process runtime logs every
// delivered request and every nondeterministic syscall result (time, random
// numbers) together with the outputs it produced. After a rollback the same
// log is consumed instead of the live sources, so re-execution is
// deterministic; outputs produced during replay are compared against the log
// to handle the output-commit problem.
package replay

import "fmt"

// EventKind identifies a logged nondeterministic event.
type EventKind uint8

// Event kinds.
const (
	EventRequest EventKind = iota // delivery of a network request
	EventTime                     // gettimeofday-style syscall result
	EventRand                     // random number syscall result
	EventOutput                   // bytes written by the guest (send syscall)
)

var eventNames = [...]string{"request", "time", "rand", "output"}

// String returns the event kind name.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("event?%d", uint8(k))
}

// Event is one logged nondeterministic event.
type Event struct {
	Kind      EventKind
	Value     uint32 // time/rand result
	RequestID int    // for EventRequest and EventOutput: the request being served
	Data      []byte // request payload or output bytes
}

// Log is an append-only event log with a replay cursor. Positions in it —
// the cursor, Len, and every index its methods take — are absolute: event i is
// the i-th event ever appended, whatever has been discarded since. The log
// retains the events from Base on; DiscardBefore moves Base forward as the
// checkpoint ring drops the snapshots that could have replayed the prefix.
type Log struct {
	events []Event // the retained suffix: events[i] is event base+i
	base   int
	cursor int // next event to consume during replay
}

// minLogCap is the capacity the event array starts from.
const minLogCap = 64

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Append records an event during live execution. A full array is replaced by
// one twice the retained window, not twice the history: the discarded prefix
// is left behind with the old array. (The array is never compacted in place,
// because replay clones read it.)
func (l *Log) Append(e Event) {
	if len(l.events) == cap(l.events) {
		grown := make([]Event, len(l.events), max(2*len(l.events), minLogCap))
		copy(grown, l.events)
		l.events = grown
	}
	l.events = append(l.events, e)
}

// Len returns the number of events logged so far, discarded ones included:
// the index the next appended event will get.
func (l *Log) Len() int { return l.base + len(l.events) }

// Base returns the index of the oldest retained event.
func (l *Log) Base() int { return l.base }

// Cursor returns the current replay cursor.
func (l *Log) Cursor() int { return l.cursor }

// clamp brings an index into the retained window [Base, Len].
func (l *Log) clamp(i int) int { return min(max(i, l.base), l.Len()) }

// SetCursor positions the replay cursor (used by rollback, which rewinds the
// cursor to the value captured at checkpoint time).
func (l *Log) SetCursor(c int) { l.cursor = l.clamp(c) }

// DiscardBefore drops every event before index n; indexes of the remaining
// events do not change. A cursor left in the dropped prefix moves to n.
func (l *Log) DiscardBefore(n int) {
	n = l.clamp(n)
	l.events = l.events[n-l.base:]
	l.base = n
	l.cursor = max(l.cursor, n)
}

// CloneForReplay returns an independent view of the log for a replay-only
// consumer, with its own cursor positioned at the given index. The clone
// shares the already-logged events read-only with the original (the capacity
// is clamped, so an append to either side copies rather than overwriting the
// shared tail); several clones may therefore replay concurrently from their
// own goroutines while the original keeps appending live events. A clone
// keeps the window it was made with: discarding from the original afterwards
// does not take events away from it.
func (l *Log) CloneForReplay(cursor int) *Log {
	nl := &Log{events: l.events[:len(l.events):len(l.events)], base: l.base}
	nl.SetCursor(cursor)
	return nl
}

// TruncateAt discards every event at or after index n. Recovery uses it after
// the replayed execution diverges permanently from the logged one (the
// remaining log entries no longer describe the new execution).
func (l *Log) TruncateAt(n int) {
	if n > l.Len() {
		return
	}
	n = l.clamp(n)
	// The capacity goes with the tail: clones may still be reading it.
	l.events = l.events[: n-l.base : n-l.base]
	l.cursor = min(l.cursor, n)
}

// Next consumes and returns the next event of the given kind during replay,
// skipping events of other kinds. It returns ok=false when the log is
// exhausted (the replayed execution has caught up with live execution).
func (l *Log) Next(kind EventKind) (Event, bool) {
	for l.cursor < l.Len() {
		e := l.events[l.cursor-l.base]
		l.cursor++
		if e.Kind == kind {
			return e, true
		}
	}
	return Event{}, false
}

// Peek returns the next event of the given kind without consuming anything.
func (l *Log) Peek(kind EventKind) (Event, bool) {
	for _, e := range l.events[l.cursor-l.base:] {
		if e.Kind == kind {
			return e, true
		}
	}
	return Event{}, false
}

// PeekRequest returns the next request event that the drop predicate does not
// exclude, without consuming anything — the cursor does not move even past the
// dropped requests scanned over. Recovery uses it to suspend a replay exactly
// at the boundary before a chosen request.
func (l *Log) PeekRequest(drop func(id int) bool) (Event, bool) {
	for _, e := range l.events[l.cursor-l.base:] {
		if e.Kind != EventRequest {
			continue
		}
		if drop != nil && drop(e.RequestID) {
			continue
		}
		return e, true
	}
	return Event{}, false
}

// Events returns a copy of the retained events, oldest first (for inspection
// and tests): event Base and everything after it.
func (l *Log) Events() []Event { return l.EventsSince(l.base) }

// EventsSince returns a copy of the retained events logged at or after index n.
func (l *Log) EventsSince(n int) []Event {
	return append([]Event{}, l.events[l.clamp(n)-l.base:]...)
}

// RequestsSince returns the IDs of the retained requests delivered at or after
// event index n.
func (l *Log) RequestsSince(n int) []int {
	var ids []int
	for _, e := range l.events[l.clamp(n)-l.base:] {
		if e.Kind == EventRequest {
			ids = append(ids, e.RequestID)
		}
	}
	return ids
}

// FindRequest returns the index and payload of the retained event that
// delivered the given request. It walks the window newest first and copies
// nothing: the payload is the log's own and must not be written to.
func (l *Log) FindRequest(id int) (index int, payload []byte, ok bool) {
	for i := len(l.events) - 1; i >= 0; i-- {
		if e := &l.events[i]; e.Kind == EventRequest && e.RequestID == id {
			return l.base + i, e.Data, true
		}
	}
	return 0, nil, false
}

// OutputsFor returns the logged output bytes produced while serving the given
// request, concatenated in order. The output-commit check compares replayed
// outputs against these.
func (l *Log) OutputsFor(requestID int) []byte {
	at, _, ok := l.FindRequest(requestID)
	if !ok {
		return nil
	}
	var out []byte
	for _, e := range l.events[at-l.base:] {
		if e.Kind == EventOutput && e.RequestID == requestID {
			out = append(out, e.Data...)
		}
	}
	return out
}
