package replay

import "testing"

func sampleLog() *Log {
	l := NewLog()
	l.Append(Event{Kind: EventRequest, RequestID: 1, Data: []byte("req1")})
	l.Append(Event{Kind: EventTime, Value: 100})
	l.Append(Event{Kind: EventOutput, RequestID: 1, Data: []byte("out1")})
	l.Append(Event{Kind: EventRequest, RequestID: 2, Data: []byte("req2")})
	l.Append(Event{Kind: EventRand, Value: 42})
	l.Append(Event{Kind: EventOutput, RequestID: 2, Data: []byte("out2a")})
	l.Append(Event{Kind: EventOutput, RequestID: 2, Data: []byte("out2b")})
	return l
}

func TestAppendAndLen(t *testing.T) {
	l := sampleLog()
	if l.Len() != 7 {
		t.Errorf("len = %d", l.Len())
	}
	if l.Cursor() != 0 {
		t.Errorf("cursor = %d", l.Cursor())
	}
}

func TestNextSkipsOtherKinds(t *testing.T) {
	l := sampleLog()
	e, ok := l.Next(EventRequest)
	if !ok || e.RequestID != 1 {
		t.Fatalf("first request event: %+v", e)
	}
	e, ok = l.Next(EventRequest)
	if !ok || e.RequestID != 2 {
		t.Fatalf("second request event: %+v", e)
	}
	if _, ok := l.Next(EventRequest); ok {
		t.Error("log should be exhausted of request events")
	}
}

func TestNextConsumesInterleaved(t *testing.T) {
	l := sampleLog()
	if e, ok := l.Next(EventTime); !ok || e.Value != 100 {
		t.Errorf("time event %+v ok=%v", e, ok)
	}
	// The cursor has moved past the first request; only request 2 remains.
	if e, ok := l.Next(EventRequest); !ok || e.RequestID != 2 {
		t.Errorf("request after time: %+v", e)
	}
	if e, ok := l.Next(EventRand); !ok || e.Value != 42 {
		t.Errorf("rand event %+v", e)
	}
}

func TestSetCursorClamps(t *testing.T) {
	l := sampleLog()
	l.SetCursor(-5)
	if l.Cursor() != 0 {
		t.Error("negative cursor should clamp to 0")
	}
	l.SetCursor(100)
	if l.Cursor() != l.Len() {
		t.Error("oversized cursor should clamp to length")
	}
	l.SetCursor(3)
	if e, ok := l.Next(EventRequest); !ok || e.RequestID != 2 {
		t.Errorf("after SetCursor(3): %+v", e)
	}
}

func TestEventsSinceAndRequestsSince(t *testing.T) {
	l := sampleLog()
	if got := l.RequestsSince(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("RequestsSince(0) = %v", got)
	}
	if got := l.RequestsSince(1); len(got) != 1 || got[0] != 2 {
		t.Errorf("RequestsSince(1) = %v", got)
	}
	if got := l.RequestsSince(100); len(got) != 0 {
		t.Errorf("RequestsSince(100) = %v", got)
	}
	if got := l.EventsSince(-3); len(got) != l.Len() {
		t.Error("EventsSince with negative index should return everything")
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	l := sampleLog()
	evs := l.Events()
	evs[0].RequestID = 999
	if l.Events()[0].RequestID == 999 {
		t.Error("Events must return a copy")
	}
}

func TestEventKindString(t *testing.T) {
	for k := EventRequest; k <= EventOutput; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if EventKind(99).String() == "" {
		t.Error("unknown kind should still format")
	}
}
