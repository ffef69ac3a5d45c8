package core

import (
	"bytes"
	"testing"

	"sweeper/internal/analysis/coredump"
	"sweeper/internal/analysis/membug"
	"sweeper/internal/antibody"
	"sweeper/internal/apps"
	"sweeper/internal/exploit"
)

// newSweeperFor builds a Sweeper around the named evaluation application with
// a configuration suitable for tests (deterministic seeds, default policy).
func newSweeperFor(t *testing.T, appName string, mutate func(*Config)) (*Sweeper, *apps.Spec) {
	t.Helper()
	spec, err := apps.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ASLRSeed = 42
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(spec.Name, spec.Image, spec.Options, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, spec
}

func submitBenign(s *Sweeper, app string, from, n int) int {
	accepted := 0
	for i := from; i < from+n; i++ {
		if s.Submit(exploit.Benign(app, i), "client", false) {
			accepted++
		}
	}
	return accepted
}

func TestEndToEndDefense(t *testing.T) {
	expected := map[string]struct {
		coredumpClass coredump.Class
		membugKind    membug.Kind
		expectMembug  bool
	}{
		"squid":   {coredumpClass: coredump.ClassHeapOverflow, membugKind: membug.KindHeapOverflow, expectMembug: true},
		"apache1": {coredumpClass: coredump.ClassStackSmash, membugKind: membug.KindStackSmash, expectMembug: true},
		"apache2": {coredumpClass: coredump.ClassNullDeref, expectMembug: false},
		"cvs":     {coredumpClass: coredump.ClassDoubleFree, membugKind: membug.KindDoubleFree, expectMembug: true},
	}

	for name, want := range expected {
		t.Run(name, func(t *testing.T) {
			s, spec := newSweeperFor(t, name, nil)
			payload, err := exploit.Exploit(spec)
			if err != nil {
				t.Fatal(err)
			}

			const before, after = 8, 8
			submitBenign(s, name, 0, before)
			if !s.Submit(payload, "worm", true) {
				t.Fatal("exploit was filtered before any antibody existed")
			}
			submitBenign(s, name, before, after)

			res, err := s.ServeAll()
			if err != nil {
				t.Fatalf("ServeAll: %v", err)
			}
			if res.AttacksHandled != 1 {
				t.Fatalf("AttacksHandled = %d, want 1", res.AttacksHandled)
			}
			if s.Halted() {
				t.Fatal("protected server halted")
			}

			// The report's deferred fields are read below; join the
			// asynchronous completion first.
			s.WaitAnalyses()

			// All benign requests must have completed service despite the attack.
			if got := s.Process().ServedRequests(); got < before+after {
				t.Errorf("served %d requests, want at least %d", got, before+after)
			}
			if got := len(s.Process().Outputs()); got < before+after {
				t.Errorf("got %d outputs, want at least %d", got, before+after)
			}

			report := s.Attacks()[0]
			if !report.Recovered {
				t.Error("recovery did not complete")
			}
			if report.CoreDump.Class != want.coredumpClass {
				t.Errorf("core dump class = %v, want %v", report.CoreDump.Class, want.coredumpClass)
			}
			if want.expectMembug {
				if len(report.MemBugFindings) == 0 {
					t.Fatalf("memory-bug detection found nothing")
				}
				if report.MemBugFindings[0].Kind != want.membugKind {
					t.Errorf("membug kind = %v, want %v", report.MemBugFindings[0].Kind, want.membugKind)
				}
			} else if len(report.MemBugFindings) != 0 {
				t.Errorf("unexpected membug findings: %v", report.MemBugFindings)
			}

			if report.CulpritRequestID < 0 {
				t.Error("exploit input was not identified")
			}
			if !bytes.Equal(report.CulpritPayload, payload) {
				t.Errorf("culprit payload mismatch: got %d bytes, want %d", len(report.CulpritPayload), len(payload))
			}
			if !report.SliceConsistent {
				t.Errorf("backward slice does not contain implicated instructions: %v", report.MissingFromSlice)
			}
			if report.FinalAntibody == nil || len(report.FinalAntibody.VSEFs) == 0 {
				t.Fatal("no final antibody / VSEFs generated")
			}
			if len(report.FinalAntibody.Sigs) == 0 {
				t.Error("no input signature generated")
			}
			if report.TimeToFirstVSEF <= 0 || report.TimeToFirstVSEF > report.TotalAnalysisTime {
				t.Errorf("implausible time-to-first-VSEF %v (total %v)", report.TimeToFirstVSEF, report.TotalAnalysisTime)
			}

			// Antibodies were published piecemeal: initial first, final last.
			abs := s.Antibodies()
			if len(abs) < 2 {
				t.Fatalf("expected at least initial+final antibodies, got %d", len(abs))
			}
			if abs[0].Stage != antibody.StageInitial || abs[len(abs)-1].Stage != antibody.StageFinal {
				t.Errorf("antibody stages out of order: first=%s last=%s", abs[0].Stage, abs[len(abs)-1].Stage)
			}
		})
	}
}

func TestRepeatExploitIsFilteredByInputSignature(t *testing.T) {
	s, spec := newSweeperFor(t, "cvs", nil)
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}
	submitBenign(s, "cvs", 0, 4)
	s.Submit(payload, "worm", true)
	if _, err := s.ServeAll(); err != nil {
		t.Fatalf("ServeAll: %v", err)
	}
	if len(s.Attacks()) != 1 {
		t.Fatalf("expected 1 attack, got %d", len(s.Attacks()))
	}
	// The identical exploit arrives again: the exact-match input signature
	// must drop it at the proxy.
	if s.Submit(payload, "worm", true) {
		t.Fatal("identical exploit was not filtered by the input signature")
	}
	if got := s.Proxy().Stats().Filtered; got != 1 {
		t.Errorf("proxy filtered count = %d, want 1", got)
	}
}

func TestPolymorphicVariantCaughtByVSEF(t *testing.T) {
	for _, name := range []string{"squid", "apache1", "cvs", "apache2"} {
		t.Run(name, func(t *testing.T) {
			s, spec := newSweeperFor(t, name, nil)
			first, err := exploit.ExploitVariant(spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			submitBenign(s, name, 0, 4)
			s.Submit(first, "worm", true)
			if _, err := s.ServeAll(); err != nil {
				t.Fatalf("ServeAll (first attack): %v", err)
			}
			if len(s.Attacks()) != 1 {
				t.Fatalf("expected 1 attack, got %d", len(s.Attacks()))
			}

			// A polymorphic variant is not caught by the exact signature but
			// must be detected (by a VSEF or another lightweight monitor) and
			// must not take the service down.
			variant, err := exploit.ExploitVariant(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(variant, first) {
				t.Fatal("variant is identical to the first exploit; test is vacuous")
			}
			if !s.Submit(variant, "worm", true) {
				t.Fatal("variant was unexpectedly filtered by the exact signature")
			}
			submitBenign(s, name, 100, 4)
			if _, err := s.ServeAll(); err != nil {
				t.Fatalf("ServeAll (variant attack): %v", err)
			}
			if len(s.Attacks()) != 2 {
				t.Fatalf("variant attack was not detected (attacks=%d)", len(s.Attacks()))
			}
			if s.Halted() {
				t.Fatal("server halted after variant attack")
			}
			if !s.Attacks()[1].Recovered {
				t.Error("recovery after variant attack failed")
			}
		})
	}
}

func TestASLRDisabledApache1HijackIsStillStopped(t *testing.T) {
	// Without ASLR the apache1 hijack succeeds and the backdoor exits the
	// server: Sweeper's ServeAll reports the halt (nothing to analyse, the
	// lightweight monitor never fired). This is the ablation that motivates
	// deploying at least one lightweight detector.
	s, spec := newSweeperFor(t, "apache1", func(c *Config) { c.ASLR = false })
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}
	submitBenign(s, "apache1", 0, 2)
	s.Submit(payload, "worm", true)
	res, err := s.ServeAll()
	if err != nil {
		t.Fatalf("ServeAll: %v", err)
	}
	if !res.Halted {
		t.Fatal("expected the unprotected hijack to terminate the server")
	}
	if len(s.Attacks()) != 0 {
		t.Fatalf("no attack should have been detected without ASLR, got %d", len(s.Attacks()))
	}
}

func TestShadowStackCatchesHijackWithoutASLR(t *testing.T) {
	s, spec := newSweeperFor(t, "apache1", func(c *Config) {
		c.ASLR = false
		c.ShadowStack = true
	})
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}
	submitBenign(s, "apache1", 0, 2)
	s.Submit(payload, "worm", true)
	res, err := s.ServeAll()
	if err != nil {
		t.Fatalf("ServeAll: %v", err)
	}
	if res.Halted {
		t.Fatal("shadow stack should have stopped the hijack before the backdoor ran")
	}
	if len(s.Attacks()) != 1 {
		t.Fatalf("expected 1 detected attack, got %d", len(s.Attacks()))
	}
	if !s.Attacks()[0].Recovered {
		t.Error("recovery failed")
	}
}

// TestNoFalseAlarmsOnFormerlyOverlappingLayouts: on these ASLR seeds the
// independent segment draws used to drop squid's data segment inside the
// heap region, membug blamed main's NUL store as a heap write outside any
// chunk, and the refined heap-bounds VSEF then fired on every benign request.
// With disjoint layouts the guest absorbs the exploit and keeps serving.
func TestNoFalseAlarmsOnFormerlyOverlappingLayouts(t *testing.T) {
	for _, seed := range []int64{1058, 1066, 1071, 12, 28, 37} {
		s, spec := newSweeperFor(t, "squid", func(c *Config) { c.ASLRSeed = seed })
		payload, err := exploit.Exploit(spec)
		if err != nil {
			t.Fatal(err)
		}
		submitBenign(s, "squid", 0, 10)
		s.Submit(payload, "worm", true)
		if _, err := s.ServeAll(); err != nil {
			t.Fatalf("seed %d: ServeAll: %v", seed, err)
		}
		s.WaitAnalyses()
		for i := 0; i < 20; i++ {
			s.Submit(exploit.Benign("squid", 100+i), "client", false)
			res, err := s.ServeAll()
			if err != nil || res.RequestsServed != 1 || res.AttacksHandled != 0 {
				t.Fatalf("seed %d: benign request %d after recovery: %+v, %v", seed, i, res, err)
			}
		}
		s.WaitAnalyses()
		if n := len(s.Attacks()); n != 1 {
			t.Errorf("seed %d: %d attack reports, want exactly the exploit's", seed, n)
		}
	}
}
