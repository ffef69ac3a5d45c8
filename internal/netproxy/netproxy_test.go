package netproxy

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

type substringFilter struct {
	name string
	sub  []byte
}

func (f *substringFilter) Name() string              { return f.name }
func (f *substringFilter) Match(payload []byte) bool { return bytes.Contains(payload, f.sub) }

func TestSubmitAndNext(t *testing.T) {
	p := New()
	r1, ok := p.Submit([]byte("one"), "a", false)
	if !ok || r1.ID != 1 {
		t.Fatalf("first submit: %v %v", r1, ok)
	}
	r2, _ := p.Submit([]byte("two"), "b", true)
	if r2.ID != 2 || !r2.Malicious || r2.Src != "b" {
		t.Errorf("second request metadata wrong: %+v", r2)
	}
	if p.Pending() != 2 {
		t.Errorf("pending = %d", p.Pending())
	}
	got1, ok := p.Next()
	got2, _ := p.Next()
	if !ok || string(got1.Payload) != "one" || string(got2.Payload) != "two" {
		t.Error("FIFO order violated")
	}
	if _, ok := p.Next(); ok {
		t.Error("Next on empty queue should fail")
	}
	st := p.Stats()
	if st.Submitted != 2 || st.Delivered != 2 || st.Pending != 0 || st.Filtered != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestSubmitCopiesPayload(t *testing.T) {
	p := New()
	buf := []byte("mutate me")
	r, _ := p.Submit(buf, "c", false)
	buf[0] = 'X'
	if r.Payload[0] == 'X' {
		t.Error("proxy must keep its own copy of the payload")
	}
}

// TestFilteredLogIsBounded: a worm repeating a filtered exploit must not grow
// the proxy. The log keeps the newest filteredLogSize decisions in order with
// their own payload copies, and Stats().Filtered still counts every drop.
func TestFilteredLogIsBounded(t *testing.T) {
	p := New()
	p.AddFilter(&substringFilter{name: "worm-sig", sub: []byte("EVIL")})
	const drops = 3*filteredLogSize + 5
	buf := []byte("EVIL 000")
	for i := 0; i < drops; i++ {
		buf[5] = byte('0' + i%10) // the caller reuses its buffer
		if req, ok := p.Submit(buf, "w", true); ok || req.ID != i+1 {
			t.Fatalf("submit %d: accepted=%v id=%d", i, ok, req.ID)
		}
	}
	if st := p.Stats(); st.Filtered != drops || st.Submitted != drops || st.Pending != 0 {
		t.Errorf("stats = %+v, want %d filtered of %d", st, drops, drops)
	}
	log := p.FilteredRequests()
	if len(log) != filteredLogSize {
		t.Fatalf("log holds %d decisions, want %d", len(log), filteredLogSize)
	}
	for i, d := range log {
		wantID := drops - filteredLogSize + i + 1
		if d.Request.ID != wantID || d.Filter != "worm-sig" || d.Request.Payload[5] != byte('0'+(wantID-1)%10) {
			t.Errorf("log[%d] = req %d %q by %s, want req %d", i, d.Request.ID, d.Request.Payload, d.Filter, wantID)
		}
	}
}

func TestFiltering(t *testing.T) {
	p := New()
	p.AddFilter(&substringFilter{name: "worm-sig", sub: []byte("EVIL")})
	if _, ok := p.Submit([]byte("normal request"), "c", false); !ok {
		t.Error("benign request filtered")
	}
	if _, ok := p.Submit([]byte("an EVIL request"), "w", true); ok {
		t.Error("matching request not filtered")
	}
	if got := p.Filters(); len(got) != 1 || got[0] != "worm-sig" {
		t.Errorf("Filters() = %v", got)
	}
	dropped := p.FilteredRequests()
	if len(dropped) != 1 || dropped[0].Filter != "worm-sig" {
		t.Errorf("FilteredRequests = %+v", dropped)
	}
	if p.Stats().Filtered != 1 {
		t.Error("filtered counter wrong")
	}
	if !p.RemoveFilter("worm-sig") || p.RemoveFilter("worm-sig") {
		t.Error("RemoveFilter bookkeeping wrong")
	}
	if _, ok := p.Submit([]byte("an EVIL request"), "w", true); !ok {
		t.Error("request should pass after the filter was removed")
	}
}

func TestRequestCloneAndString(t *testing.T) {
	r := &Request{ID: 7, Payload: []byte("GET /"), Src: "client"}
	c := r.Clone()
	c.Payload[0] = 'X'
	if r.Payload[0] == 'X' {
		t.Error("Clone must deep-copy the payload")
	}
	if s := r.String(); s == "" || !bytes.Contains([]byte(s), []byte("req#7")) {
		t.Errorf("String() = %q", s)
	}
	long := &Request{ID: 8, Payload: bytes.Repeat([]byte("A"), 100)}
	if len(long.String()) > 120 {
		t.Error("String() should truncate long payloads")
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	p := New()
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p.Submit([]byte(fmt.Sprintf("req %d/%d", w, i)), "c", false)
			}
		}(w)
	}
	wg.Wait()
	if p.Pending() != workers*each {
		t.Fatalf("pending = %d, want %d", p.Pending(), workers*each)
	}
	seen := map[int]bool{}
	for {
		r, ok := p.Next()
		if !ok {
			break
		}
		if seen[r.ID] {
			t.Fatalf("duplicate request ID %d", r.ID)
		}
		seen[r.ID] = true
	}
	if len(seen) != workers*each {
		t.Errorf("delivered %d unique requests", len(seen))
	}
}

// TestAddFilterDuringSubmitStorm installs input-signature filters while
// submitter goroutines storm the proxy and a consumer drains it — the
// antibody-installed-mid-epidemic shape. Whatever interleaving happens, no
// request may be dropped or double-delivered: every submitted request ends
// up either filtered or delivered exactly once, and the Stats totals
// balance. Run under -race this also proves the locking.
func TestAddFilterDuringSubmitStorm(t *testing.T) {
	p := New()
	const workers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				payload := fmt.Sprintf("req %d/%d", w, i)
				if i%3 == 0 {
					payload += " ATTACK"
				}
				p.Submit([]byte(payload), "c", false)
			}
		}(w)
	}
	// Mid-storm, antibodies arrive: one filter matching the attack marker,
	// plus transient filters that are installed and removed again.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.AddFilter(&substringFilter{name: "sig-attack", sub: []byte("ATTACK")})
		for i := 0; i < 50; i++ {
			name := fmt.Sprintf("transient-%d", i)
			p.AddFilter(&substringFilter{name: name, sub: []byte("NEVERMATCHES")})
			if !p.RemoveFilter(name) {
				t.Errorf("transient filter %s vanished", name)
				return
			}
		}
	}()
	// A concurrent consumer drains deliveries while the storm runs.
	delivered := make(map[int]bool)
	var consumerWg sync.WaitGroup
	stop := make(chan struct{})
	consumerWg.Add(1)
	go func() {
		defer consumerWg.Done()
		for {
			r, ok := p.Next()
			if !ok {
				select {
				case <-stop:
					return
				default:
					continue
				}
			}
			if delivered[r.ID] {
				t.Errorf("request %d delivered twice", r.ID)
				return
			}
			delivered[r.ID] = true
		}
	}()
	wg.Wait()
	close(stop)
	consumerWg.Wait()
	// Drain what the consumer left behind after stop.
	for {
		r, ok := p.Next()
		if !ok {
			break
		}
		if delivered[r.ID] {
			t.Fatalf("request %d delivered twice", r.ID)
		}
		delivered[r.ID] = true
	}
	st := p.Stats()
	if st.Submitted != workers*each {
		t.Errorf("submitted = %d, want %d", st.Submitted, workers*each)
	}
	if st.Pending != 0 {
		t.Errorf("pending = %d after drain", st.Pending)
	}
	if st.Filtered+st.Delivered != st.Submitted {
		t.Errorf("stats do not balance: %d filtered + %d delivered != %d submitted",
			st.Filtered, st.Delivered, st.Submitted)
	}
	if len(delivered) != st.Delivered {
		t.Errorf("consumer saw %d unique requests, proxy counted %d deliveries", len(delivered), st.Delivered)
	}
	// No filtered request may also have been delivered.
	for _, d := range p.FilteredRequests() {
		if delivered[d.Request.ID] {
			t.Errorf("request %d both filtered (by %s) and delivered", d.Request.ID, d.Filter)
		}
	}
}

// TestNextReleasesTheDeliveredRequest: a request taken off the queue is not
// kept reachable by the queue's array behind the ones still waiting.
func TestNextReleasesTheDeliveredRequest(t *testing.T) {
	p := New()
	for i := 0; i < 3; i++ {
		p.Submit([]byte{byte(i)}, "client", false)
	}
	collected := make(chan struct{})
	func() {
		req, ok := p.Next()
		if !ok {
			t.Fatal("queue empty after three submissions")
		}
		runtime.SetFinalizer(req, func(*Request) { close(collected) })
	}()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			if p.Pending() != 2 {
				t.Errorf("%d requests pending, want 2", p.Pending())
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("the delivered request is still reachable from the proxy")
}
