package antibody

import (
	"fmt"
	"sync"
	"testing"
)

func TestStorePublishDedupAndForProgram(t *testing.T) {
	st := NewStore()
	a1 := &Antibody{ID: "a-attack1-initial", Program: "squid", Stage: StageInitial}
	a2 := &Antibody{ID: "a-attack1-final", Program: "squid", Stage: StageFinal}
	b1 := &Antibody{ID: "b-attack1-final", Program: "cvs", Stage: StageFinal}
	if !st.Publish(a1) || !st.Publish(a2) || !st.Publish(b1) {
		t.Fatal("fresh antibodies were rejected")
	}
	if st.Publish(a1) {
		t.Error("duplicate ID was accepted")
	}
	if st.Len() != 3 {
		t.Fatalf("store holds %d antibodies, want 3", st.Len())
	}
	if got := st.ForProgram("squid"); len(got) != 2 || got[0] != a1 || got[1] != a2 {
		t.Errorf("ForProgram(squid) = %v", got)
	}
	if _, ok := st.Get("b-attack1-final"); !ok {
		t.Error("Get missed a stored antibody")
	}
}

func TestStoreSubscribeReplaysAndNotifies(t *testing.T) {
	st := NewStore()
	st.Publish(&Antibody{ID: "early", Program: "squid"})
	var seen []string
	st.Subscribe(func(a *Antibody) { seen = append(seen, a.ID) })
	st.Publish(&Antibody{ID: "late", Program: "squid"})
	st.Publish(&Antibody{ID: "late", Program: "squid"}) // dup: no second notify
	if len(seen) != 2 || seen[0] != "early" || seen[1] != "late" {
		t.Fatalf("subscriber saw %v, want [early late]", seen)
	}
}

// TestStoreEdgeCases is a table of edge behaviours the federation layer
// depends on: republish dedup (first publication wins, no re-notification),
// replay-on-subscribe ordering, and Since-cursor clamping.
func TestStoreEdgeCases(t *testing.T) {
	mk := func(ids ...string) []*Antibody {
		out := make([]*Antibody, len(ids))
		for i, id := range ids {
			out[i] = &Antibody{ID: id, Program: "squid"}
		}
		return out
	}
	cases := []struct {
		name  string
		run   func(st *Store) []string // returns what a subscriber saw
		want  []string                 // expected notification sequence
		len   int                      // expected final store size
		check func(t *testing.T, st *Store)
	}{
		{
			name: "republish keeps the first antibody and stays silent",
			run: func(st *Store) []string {
				first := &Antibody{ID: "dup", Program: "squid", Stage: StageInitial}
				imposter := &Antibody{ID: "dup", Program: "squid", Stage: StageFinal}
				var seen []string
				st.Subscribe(func(a *Antibody) { seen = append(seen, a.ID) })
				if !st.Publish(first) {
					panic("fresh antibody rejected")
				}
				if st.Publish(imposter) {
					panic("duplicate ID accepted")
				}
				return seen
			},
			want: []string{"dup"},
			len:  1,
			check: func(t *testing.T, st *Store) {
				got, _ := st.Get("dup")
				if got.Stage != StageInitial {
					t.Errorf("republish replaced the stored antibody: stage %s", got.Stage)
				}
			},
		},
		{
			name: "subscribe replays existing antibodies in publication order",
			run: func(st *Store) []string {
				for _, a := range mk("a", "b", "c") {
					st.Publish(a)
				}
				var seen []string
				st.Subscribe(func(a *Antibody) { seen = append(seen, a.ID) })
				st.Publish(mk("d")[0])
				return seen
			},
			want: []string{"a", "b", "c", "d"},
			len:  4,
		},
		{
			name: "since cursor clamps and pages",
			run: func(st *Store) []string {
				for _, a := range mk("a", "b", "c") {
					st.Publish(a)
				}
				var seen []string
				if abs, next := st.Since(-5); len(abs) != 3 || next != 3 {
					seen = append(seen, fmt.Sprintf("negative cursor: %d abs, next %d", len(abs), next))
				}
				if abs, next := st.Since(2); len(abs) != 1 || abs[0].ID != "c" || next != 3 {
					seen = append(seen, "mid cursor wrong")
				}
				if abs, next := st.Since(99); len(abs) != 0 || next != 3 {
					seen = append(seen, "overshoot cursor wrong")
				}
				return seen
			},
			want: nil,
			len:  3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := NewStore()
			seen := tc.run(st)
			if len(seen) != len(tc.want) {
				t.Fatalf("subscriber saw %v, want %v", seen, tc.want)
			}
			for i := range tc.want {
				if seen[i] != tc.want[i] {
					t.Fatalf("subscriber saw %v, want %v", seen, tc.want)
				}
			}
			if st.Len() != tc.len {
				t.Errorf("store holds %d antibodies, want %d", st.Len(), tc.len)
			}
			if tc.check != nil {
				tc.check(t, st)
			}
		})
	}
}

// TestStoreSubscribeDuringPublishStorm registers subscribers while publishes
// are in full flight (run under -race in CI): no matter how registration
// interleaves with publication, every subscriber must see every antibody
// exactly once — replay-on-subscribe and live notification must never both
// deliver the same antibody, and none may fall between the two.
func TestStoreSubscribeDuringPublishStorm(t *testing.T) {
	const publishers, each, subscribers = 4, 100, 6
	st := NewStore()

	type tally struct {
		mu   sync.Mutex
		seen map[string]int
	}
	tallies := make([]*tally, subscribers)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			<-start
			for i := 0; i < each; i++ {
				st.Publish(&Antibody{ID: fmt.Sprintf("p%d-%d", p, i), Program: "squid"})
			}
		}(p)
	}
	for sIdx := 0; sIdx < subscribers; sIdx++ {
		wg.Add(1)
		go func(sIdx int) {
			defer wg.Done()
			<-start
			tl := &tally{seen: make(map[string]int)}
			tallies[sIdx] = tl
			st.Subscribe(func(a *Antibody) {
				tl.mu.Lock()
				tl.seen[a.ID]++
				tl.mu.Unlock()
			})
		}(sIdx)
	}
	close(start)
	wg.Wait()

	total := publishers * each
	if st.Len() != total {
		t.Fatalf("store holds %d antibodies, want %d", st.Len(), total)
	}
	for sIdx, tl := range tallies {
		tl.mu.Lock()
		if len(tl.seen) != total {
			t.Errorf("subscriber %d saw %d distinct antibodies, want %d", sIdx, len(tl.seen), total)
		}
		for id, n := range tl.seen {
			if n != 1 {
				t.Errorf("subscriber %d saw %s %d times, want exactly once", sIdx, id, n)
			}
		}
		tl.mu.Unlock()
	}
}

func TestStoreConcurrentPublishers(t *testing.T) {
	st := NewStore()
	var notified sync.Map
	st.Subscribe(func(a *Antibody) { notified.Store(a.ID, true) })
	var wg sync.WaitGroup
	const publishers, each = 8, 50
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				st.Publish(&Antibody{ID: fmt.Sprintf("p%d-%d", p, i), Program: "squid"})
			}
		}(p)
	}
	// A federation peer pages through the store with Since while the
	// publishers run: the pages, concatenated, must be the store in
	// publication order — no antibody skipped, repeated or reordered.
	var paged []*Antibody
	pagerDone := make(chan struct{})
	go func() {
		defer close(pagerDone)
		for cursor := 0; cursor < publishers*each; {
			var page []*Antibody
			page, cursor = st.Since(cursor)
			paged = append(paged, page...)
		}
	}()
	wg.Wait()
	<-pagerDone
	if st.Len() != publishers*each {
		t.Fatalf("store holds %d antibodies, want %d", st.Len(), publishers*each)
	}
	all := st.All()
	if len(paged) != len(all) {
		t.Fatalf("Since pages hold %d antibodies, All() %d", len(paged), len(all))
	}
	for i := range all {
		if paged[i] != all[i] {
			t.Fatalf("Since pages diverge from All() at %d: %s vs %s", i, paged[i].ID, all[i].ID)
		}
	}
	count := 0
	notified.Range(func(_, _ any) bool { count++; return true })
	if count != publishers*each {
		t.Fatalf("subscriber saw %d antibodies, want %d", count, publishers*each)
	}
}
