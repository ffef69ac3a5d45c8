package replay

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// modelLog is the log as it was before it learned to discard: every event
// ever appended, in a slice indexed by position. Discarding only moves base.
type modelLog struct {
	events []Event
	base   int
	cursor int
}

func (m *modelLog) clamp(i int) int { return min(max(i, m.base), len(m.events)) }

func (m *modelLog) clone(cursor int) *modelLog {
	c := &modelLog{events: append([]Event(nil), m.events...), base: m.base}
	c.cursor = c.clamp(cursor)
	return c
}

func (m *modelLog) discardBefore(n int) {
	m.base = m.clamp(n)
	m.cursor = max(m.cursor, m.base)
}

func (m *modelLog) next(kind EventKind) (Event, bool) {
	for m.cursor < len(m.events) {
		e := m.events[m.cursor]
		m.cursor++
		if e.Kind == kind {
			return e, true
		}
	}
	return Event{}, false
}

func (m *modelLog) peekRequest(drop func(int) bool) (Event, bool) {
	for _, e := range m.events[m.cursor:] {
		if e.Kind == EventRequest && !drop(e.RequestID) {
			return e, true
		}
	}
	return Event{}, false
}

var allKinds = []EventKind{EventRequest, EventTime, EventRand, EventOutput}

func dropOdd(id int) bool { return id%2 == 1 }

// sameAt fails unless a reader placed at every retained index of l sees what
// the same reader sees in the model.
func sameAt(t *testing.T, step int, what string, l *Log, m *modelLog) {
	t.Helper()
	if l.Len() != len(m.events) || l.Base() != m.base || l.Cursor() != m.cursor {
		t.Fatalf("step %d, %s: len/base/cursor %d/%d/%d, model %d/%d/%d",
			step, what, l.Len(), l.Base(), l.Cursor(), len(m.events), m.base, m.cursor)
	}
	for i := m.base; i <= len(m.events); i++ {
		if got, want := l.EventsSince(i), m.events[i:]; len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("step %d, %s: EventsSince(%d) = %v, model %v", step, what, i, got, want)
		}
		lr, mr := l.CloneForReplay(i), m.clone(i)
		for _, kind := range allKinds {
			got, ok := l.CloneForReplay(i).Next(kind)
			want, wok := mr.clone(i).next(kind)
			if ok != wok || !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d, %s: Next(%v) on a clone at %d = %+v %v, model %+v %v", step, what, kind, i, got, ok, want, wok)
			}
		}
		got, ok := lr.PeekRequest(dropOdd)
		want, wok := mr.peekRequest(dropOdd)
		if ok != wok || !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d, %s: PeekRequest at %d = %+v %v, model %+v %v", step, what, i, got, ok, want, wok)
		}
		kind := allKinds[i%len(allKinds)]
		got, ok = lr.Next(kind)
		want, wok = mr.next(kind)
		if ok != wok || !reflect.DeepEqual(got, want) || lr.Cursor() != mr.cursor {
			t.Fatalf("step %d, %s: Next(%v) at %d = %+v %v cursor %d, model %+v %v cursor %d",
				step, what, kind, i, got, ok, lr.Cursor(), want, wok, mr.cursor)
		}
	}
	if m.base < len(m.events) {
		// FindRequest, and the request's outputs read through EventsSince,
		// against a scan of the retained window.
		id := m.events[m.base+(step%(len(m.events)-m.base))].RequestID
		wantAt, wantOut := -1, []byte(nil)
		for i := len(m.events) - 1; i >= m.base && wantAt < 0; i-- {
			if m.events[i].Kind == EventRequest && m.events[i].RequestID == id {
				wantAt = i
			}
		}
		for i := max(wantAt, m.base); wantAt >= 0 && i < len(m.events); i++ {
			if m.events[i].Kind == EventOutput && m.events[i].RequestID == id {
				wantOut = append(wantOut, m.events[i].Data...)
			}
		}
		at, payload, ok := l.FindRequest(id)
		if ok != (wantAt >= 0) || (ok && (at != wantAt || string(payload) != string(m.events[at].Data))) {
			t.Fatalf("step %d, %s: FindRequest(%d) = %d %q %v, model index %d", step, what, id, at, payload, ok, wantAt)
		}
		var gotOut []byte // a request not in the window has no outputs
		for _, e := range l.EventsSince(at) {
			if ok && e.Kind == EventOutput && e.RequestID == id {
				gotOut = append(gotOut, e.Data...)
			}
		}
		if string(gotOut) != string(wantOut) {
			t.Fatalf("step %d, %s: outputs of request %d = %q, model %q", step, what, id, gotOut, wantOut)
		}
	}
}

// TestLogAgainstModel drives a Log and a model that never discards through
// the same random appends, discards, cursor moves and clones, and requires
// every reader — of the log and of every clone taken on the way, each of
// which must keep the window it was cloned with — to see the same events at
// every index from Base on.
func TestLogAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type pair struct {
			l *Log
			m *modelLog
		}
		live := pair{NewLog(), &modelLog{}}
		var clones []pair
		nextID := 1
		randomEvent := func() Event {
			e := Event{Kind: allKinds[rng.Intn(len(allKinds))]}
			switch e.Kind {
			case EventRequest:
				nextID++
				e.RequestID, e.Data = nextID, []byte{byte(nextID), byte(rng.Intn(256))}
			case EventOutput:
				e.RequestID, e.Data = nextID-rng.Intn(2), []byte{byte(rng.Intn(256))}
			default:
				e.Value = rng.Uint32()
			}
			return e
		}
		anyIndex := func(p pair) int { return p.m.base - 2 + rng.Intn(len(p.m.events)-p.m.base+5) }
		for step := 0; step < 1500; step++ {
			target := live
			if len(clones) > 0 && rng.Intn(4) == 0 {
				target = clones[rng.Intn(len(clones))]
			}
			switch op := rng.Intn(20); {
			case op < 11:
				e := randomEvent()
				target.l.Append(e)
				target.m.events = append(target.m.events, e)
			case op < 13:
				n := anyIndex(target)
				target.l.DiscardBefore(n)
				target.m.discardBefore(n)
			case op < 16:
				c := anyIndex(target)
				target.l.SetCursor(c)
				target.m.cursor = target.m.clamp(c)
			case op < 18:
				kind := allKinds[rng.Intn(len(allKinds))]
				got, ok := target.l.Next(kind)
				want, wok := target.m.next(kind)
				if ok != wok || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: Next(%v) = %+v %v, model %+v %v", seed, step, kind, got, ok, want, wok)
				}
			default:
				c := anyIndex(target)
				clones = append(clones, pair{target.l.CloneForReplay(c), target.m.clone(c)})
				if len(clones) > 6 {
					clones = clones[1:]
				}
			}
			if step%13 == 0 {
				sameAt(t, step, "log", live.l, live.m)
				for _, c := range clones {
					sameAt(t, step, "clone", c.l, c.m)
				}
			}
		}
	}
}

// TestClonesReadWhileTheLogMovesOn: replay clones read their window from
// their own goroutines while the original appends past it and discards it
// from under them. Run with -race.
func TestClonesReadWhileTheLogMovesOn(t *testing.T) {
	l := NewLog()
	appendRequest := func(id int) {
		l.Append(Event{Kind: EventRequest, RequestID: id, Data: []byte{byte(id)}})
		l.Append(Event{Kind: EventOutput, RequestID: id, Data: []byte{byte(id), byte(id >> 8)}})
	}
	id := 0
	for ; id < 100; id++ {
		appendRequest(id)
	}
	var wg sync.WaitGroup
	for round := 0; round < 50; round++ {
		from, until := l.Base(), l.Len()
		clone := l.CloneForReplay(from)
		firstID := id - (until-from)/2
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 20; pass++ {
				clone.SetCursor(from)
				for want := firstID; ; want++ {
					e, ok := clone.Next(EventRequest)
					if !ok {
						if clone.Cursor() != until {
							t.Errorf("clone of [%d,%d) stopped at %d", from, until, clone.Cursor())
						}
						break
					}
					if e.RequestID != want || e.Data[0] != byte(want) {
						t.Errorf("clone of [%d,%d): request %d %v where %d was logged", from, until, e.RequestID, e.Data, want)
						return
					}
					if out, ok := clone.Next(EventOutput); !ok || out.RequestID != want || len(out.Data) != 2 || out.Data[0] != byte(want) {
						t.Errorf("clone of [%d,%d): output of request %d = %+v %v", from, until, want, out, ok)
						return
					}
				}
			}
		}()
		for n := 0; n < 40; n++ {
			appendRequest(id)
			id++
		}
		l.DiscardBefore(l.Len() - 120)
	}
	wg.Wait()
}
