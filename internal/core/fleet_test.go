package core

import (
	"fmt"
	"sync"
	"testing"

	"sweeper/internal/antibody"
	"sweeper/internal/apps"
	"sweeper/internal/exploit"
	"sweeper/internal/monitor"
)

func newFleetWith(t *testing.T, appName string, guests int) (*Fleet, *apps.Spec) {
	t.Helper()
	spec, err := apps.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet()
	for i := 0; i < guests; i++ {
		cfg := DefaultConfig()
		cfg.ASLRSeed = 42 + int64(i)*7919
		if _, err := f.AddGuest(fmt.Sprintf("%s-%d", appName, i), spec.Name, spec.Image, spec.Options, cfg); err != nil {
			t.Fatal(err)
		}
	}
	return f, spec
}

// TestFleetSharedAntibodyInoculatesOtherGuests is the headline community
// flow: one guest is attacked, and every other guest — never attacked —
// filters the identical exploit afterwards because the antibody reached it
// through the shared store.
func TestFleetSharedAntibodyInoculatesOtherGuests(t *testing.T) {
	const guests = 4
	f, spec := newFleetWith(t, "cvs", guests)
	f.Start()
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < guests; i++ {
		name := fmt.Sprintf("cvs-%d", i)
		for r := 0; r < 4; r++ {
			f.Submit(name, exploit.Benign("cvs", r), "client", false)
		}
	}
	if !f.Submit("cvs-0", payload, "worm", true) {
		t.Fatal("exploit filtered before any antibody existed")
	}
	f.Drain()

	if got := len(f.Store().All()); got == 0 {
		t.Fatal("no antibodies reached the shared store")
	}
	// Every guest, including the ones never attacked, must now filter the
	// identical exploit at its proxy.
	for i := 0; i < guests; i++ {
		name := fmt.Sprintf("cvs-%d", i)
		if f.Submit(name, payload, "worm", true) {
			t.Errorf("guest %s accepted the exploit after fleet inoculation", name)
		}
	}
	f.Stop()

	g0, _ := f.Guest("cvs-0")
	if got := len(g0.Sweeper().Attacks()); got != 1 {
		t.Fatalf("guest cvs-0 attacks = %d, want 1", got)
	}
	if !g0.Sweeper().Attacks()[0].Recovered {
		t.Error("guest cvs-0 did not recover")
	}
	for i := 1; i < guests; i++ {
		g, _ := f.Guest(fmt.Sprintf("cvs-%d", i))
		if got := len(g.Sweeper().Attacks()); got != 0 {
			t.Errorf("guest cvs-%d handled %d attacks, want 0 (inoculated)", i, got)
		}
		st, _ := f.Metrics().Guest(fmt.Sprintf("cvs-%d", i))
		if st.AntibodiesAdopted == 0 {
			t.Errorf("guest cvs-%d adopted no antibodies", i)
		}
		if st.FilteredInputs == 0 {
			t.Errorf("guest cvs-%d filtered nothing", i)
		}
	}
	st0, _ := f.Metrics().Guest("cvs-0")
	if st0.AntibodiesGenerated == 0 {
		t.Error("guest cvs-0 generated no antibodies")
	}
}

// TestFleetLateJoinerIsInoculatedFromStore adds a guest after the attack was
// handled: the store replay must inoculate it before it serves anything.
func TestFleetLateJoinerIsInoculatedFromStore(t *testing.T) {
	f, spec := newFleetWith(t, "squid", 1)
	f.Start()
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}
	f.Submit("squid-0", exploit.Benign("squid", 0), "client", false)
	f.Submit("squid-0", payload, "worm", true)
	f.Drain()

	cfg := DefaultConfig()
	cfg.ASLRSeed = 4242
	if _, err := f.AddGuest("squid-late", spec.Name, spec.Image, spec.Options, cfg); err != nil {
		t.Fatal(err)
	}
	f.Drain()
	if f.Submit("squid-late", payload, "worm", true) {
		t.Error("late-joining guest accepted the exploit despite store replay")
	}
	f.Stop()
	st, _ := f.Metrics().Guest("squid-late")
	if st.AntibodiesAdopted == 0 {
		t.Error("late joiner adopted no antibodies")
	}
}

// TestFleetAttackAfterAdoptionRecovers pins down a recovery bug the
// concurrent stress test used to hit intermittently: a guest adopts a peer's
// antibody (return guards, taint VSEFs), then is attacked itself with a
// polymorphic variant that slips past the exact input signature. The adopted
// probes detect the attack — and their internal shadow state (saved return
// addresses, taint labels from the attack request) must be dropped when the
// process rolls back for recovery, or the benign replay trips false
// violations and recovery fails.
func TestFleetAttackAfterAdoptionRecovers(t *testing.T) {
	for _, appName := range []string{"apache1", "squid"} {
		t.Run(appName, func(t *testing.T) {
			f, spec := newFleetWith(t, appName, 2)
			f.Start()
			first, err := exploit.ExploitVariant(spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			variant, err := exploit.ExploitVariant(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			names := []string{appName + "-0", appName + "-1"}
			for _, n := range names {
				for r := 0; r < 4; r++ {
					f.Submit(n, exploit.Benign(appName, r), "client", false)
				}
			}
			// Guest 0 is attacked and generates antibodies; guest 1 adopts.
			f.Submit(names[0], first, "worm", true)
			f.Drain()
			st, _ := f.Metrics().Guest(names[1])
			if st.AntibodiesAdopted == 0 {
				t.Fatal("guest 1 adopted nothing; scenario not established")
			}
			// Now the variant hits guest 1: the exact signature misses it, the
			// adopted VSEFs detect it, and recovery must succeed.
			if !f.Submit(names[1], variant, "worm", true) {
				t.Fatal("variant was filtered by the exact signature; test is vacuous")
			}
			for r := 0; r < 4; r++ {
				f.Submit(names[1], exploit.Benign(appName, 100+r), "client", false)
			}
			f.Drain()
			g1, _ := f.Guest(names[1])
			if err := g1.ServeError(); err != nil {
				t.Fatalf("guest 1 serve error: %v", err)
			}
			if g1.Sweeper().Halted() {
				t.Fatal("guest 1 halted")
			}
			st, _ = f.Metrics().Guest(names[1])
			if st.AttacksHandled != 1 || st.Recovered != 1 {
				t.Errorf("guest 1 attacks=%d recovered=%d, want 1/1", st.AttacksHandled, st.Recovered)
			}
			f.Stop()
		})
	}
}

// TestFleetConcurrentAttacksRaceStress attacks every guest in a mixed-app
// fleet simultaneously from concurrent workload goroutines. Run under
// -race (CI does) this exercises the COW page sharing, the clone-based
// parallel analysis engine of every guest at once, and the shared-store
// distribution paths. Every guest must analyse its attack, recover, and end
// up holding antibodies generated by its same-program peers.
func TestFleetConcurrentAttacksRaceStress(t *testing.T) {
	const guestsPerApp = 3
	appNames := []string{"cvs", "squid", "apache1"}
	f := NewFleet()
	payloads := make(map[string][]byte)
	for ai, appName := range appNames {
		spec, err := apps.ByName(appName)
		if err != nil {
			t.Fatal(err)
		}
		payloads[appName], err = exploit.Exploit(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < guestsPerApp; i++ {
			cfg := DefaultConfig()
			cfg.ASLRSeed = 42 + int64(ai*guestsPerApp+i)*104729
			name := fmt.Sprintf("%s-%d", appName, i)
			if _, err := f.AddGuest(name, spec.Name, spec.Image, spec.Options, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.Start()

	var wg sync.WaitGroup
	for _, appName := range appNames {
		for i := 0; i < guestsPerApp; i++ {
			wg.Add(1)
			go func(appName string, i int) {
				defer wg.Done()
				name := fmt.Sprintf("%s-%d", appName, i)
				for r := 0; r < 4; r++ {
					f.Submit(name, exploit.Benign(appName, r), "client", false)
				}
				f.Submit(name, payloads[appName], "worm", true)
				for r := 0; r < 4; r++ {
					f.Submit(name, exploit.Benign(appName, 100+r), "client", false)
				}
			}(appName, i)
		}
	}
	wg.Wait()
	f.Drain()
	f.Stop()

	for _, appName := range appNames {
		for i := 0; i < guestsPerApp; i++ {
			name := fmt.Sprintf("%s-%d", appName, i)
			g, ok := f.Guest(name)
			if !ok {
				t.Fatalf("guest %s missing", name)
			}
			if err := g.ServeError(); err != nil {
				t.Errorf("guest %s serve error: %v", name, err)
			}
			s := g.Sweeper()
			if s.Halted() {
				t.Errorf("guest %s halted", name)
			}
			st, _ := f.Metrics().Guest(name)
			// The exploit raced against its peers' antibodies: each guest
			// either handled the attack itself (and recovered) or filtered
			// it thanks to a faster peer.
			switch {
			case st.AttacksHandled > 0:
				if st.Recovered != st.AttacksHandled {
					t.Errorf("guest %s recovered %d of %d attacks", name, st.Recovered, st.AttacksHandled)
				}
			case st.FilteredInputs == 0:
				t.Errorf("guest %s neither handled nor filtered the exploit", name)
			}
			if st.RequestsServed < 8 {
				t.Errorf("guest %s served %d requests, want at least 8", name, st.RequestsServed)
			}
			if st.AttacksHandled == 0 && st.AntibodiesAdopted == 0 {
				t.Errorf("guest %s was not attacked yet adopted nothing", name)
			}
		}
	}
	// Cross-program isolation: no antibody may be adopted by a guest of a
	// different program.
	for _, a := range f.Store().All() {
		found := false
		for _, appName := range appNames {
			if a.Program == appName {
				found = true
			}
		}
		if !found {
			t.Errorf("store antibody %s has unexpected program %q", a.ID, a.Program)
		}
	}
}

// TestStagedAdoptionKeepsSharedVSEFs: the stages of one attack's antibody
// share VSEFs by name (initial ⊂ refined ⊂ final), and a guest replaces a
// stage by applying its successor and then removing it. A guest that adopted
// initial → refined → final must end up carrying exactly what a guest that
// adopted the final stage alone carries, and its VSEFs — not just the exact
// signature — must still stop a polymorphic variant.
func TestStagedAdoptionKeepsSharedVSEFs(t *testing.T) {
	for _, appName := range []string{"apache1", "apache2", "cvs", "squid"} {
		t.Run(appName, func(t *testing.T) {
			spec, err := apps.ByName(appName)
			if err != nil {
				t.Fatal(err)
			}
			first, err := exploit.ExploitVariant(spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			variant, err := exploit.ExploitVariant(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			producer, err := New(spec.Name, spec.Image, spec.Options, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			producer.Submit(first, "worm", true)
			if _, err := producer.ServeAll(); err != nil {
				t.Fatal(err)
			}
			producer.WaitAnalyses()
			report := producer.Attacks()[0]
			stages := []*antibody.Antibody{report.InitialAntibody, report.RefinedAntibody, report.FinalAntibody}
			final := report.FinalAntibody
			if final == nil {
				t.Fatal("no final antibody")
			}

			adopting := func(abs ...*antibody.Antibody) (*Fleet, *Guest) {
				f, _ := newFleetWith(t, appName, 1)
				f.Start()
				t.Cleanup(f.Stop)
				for _, a := range abs {
					if a != nil {
						f.Store().Publish(a)
						f.Drain()
					}
				}
				g, _ := f.Guest(appName + "-0")
				return f, g
			}
			f, staged := adopting(stages...)
			_, direct := adopting(final)
			sm, dm := staged.Sweeper().Process().Machine, direct.Sweeper().Process().Machine
			if sm.ProbeCount() == 0 || sm.ProbeCount() != dm.ProbeCount() {
				t.Errorf("staged adoption left %d probes, the final stage alone installs %d", sm.ProbeCount(), dm.ProbeCount())
			}
			if got, want := fmt.Sprint(sm.Tools()), fmt.Sprint(dm.Tools()); got != want {
				t.Errorf("staged adoption left tools %s, the final stage alone %s", got, want)
			}

			name := appName + "-0"
			if !f.Submit(name, variant, "worm", true) {
				t.Fatal("variant was filtered by the exact signature; test is vacuous")
			}
			f.Drain()
			attacks := staged.Sweeper().Attacks()
			if len(attacks) != 1 || !attacks[0].Recovered {
				t.Fatalf("variant on the staged guest: %d attacks handled", len(attacks))
			}
			if det := attacks[0].Detection; det.Source != monitor.SourceViolation {
				t.Errorf("variant was caught by %q, want an adopted VSEF's violation", det.Reason)
			}
		})
	}
}
