package core

import (
	"strings"
	"testing"

	"sweeper/internal/antibody"
	"sweeper/internal/exploit"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// TestProbeFiresPerRequest pins what each VSEF of the squid final antibody
// costs a benign request in probe deliveries: each is applied alone to a bare
// process at the producer's layout and serves the same 970 benign requests.
// The virtual clock charges CyclesPerProbe per delivery, so these counts are
// the whole of an installed antibody's virtual overhead, and what shrinking a
// VSEF (the taint guard's instruction list) has to move. The whole antibody
// must make a small and a heavy request dearer on the virtual clock, by less
// than half.
func TestProbeFiresPerRequest(t *testing.T) {
	s, spec := newSweeperFor(t, "squid", func(c *Config) { c.ASLRSeed = 5151 })
	submitBenign(s, "squid", 0, 20)
	s.Submit(exploit.SquidExploit(), "worm", true)
	res, err := s.ServeAll()
	s.WaitAnalyses()
	if err != nil || res.AttacksHandled != 1 {
		t.Fatalf("absorbing the exploit: %+v, %v", res, err)
	}
	final := s.Attacks()[0].FinalAntibody
	if final == nil || len(final.VSEFs) == 0 {
		t.Fatal("no final antibody with VSEFs")
	}

	// serve runs n requests, cycling through payloads, on a bare squid
	// process at s's layout that install has armed, and returns the process.
	serve := func(install func(*proc.Process) error, payloads [][]byte, n int) *proc.Process {
		t.Helper()
		in := netproxy.New()
		p, err := proc.New(spec.Name, spec.Image, s.Layout(), in, spec.Options)
		if err != nil {
			t.Fatal(err)
		}
		if err := install(p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			in.Submit(payloads[i%len(payloads)], "client", false)
			if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
				t.Fatalf("request %d stopped the guest with %v", i, stop.Reason)
			}
		}
		return p
	}
	var small [][]byte
	for i := 0; i < 97; i++ {
		small = append(small, exploit.Benign("squid", i))
	}
	const requests = 970
	want := map[antibody.VSEFKind]uint64{ // fires over the 970 requests
		antibody.VSEFHeapBounds: 13440, antibody.VSEFTaint: 118190,
	}
	for _, v := range final.VSEFs {
		p := serve(func(p *proc.Process) error { _, err := v.Apply(p); return err }, small, requests)
		fires := p.Machine.ProbeFires()
		t.Logf("%-60s %6d fires, %.1f per request", v, fires, float64(fires)/requests)
		if w := want[v.Kind]; fires != w {
			t.Errorf("%s: %d probe fires over %d benign requests, want %d", v, fires, requests, w)
		}
	}

	// An FTP URL with a 1500-byte user part: ~85k guest instructions.
	heavy := [][]byte{[]byte("ftp://" + strings.Repeat("abcdefghijklmnopqrstuvwxyz", 58)[:1500] + "@ftp.example.org/pub/file.tar.gz")}
	bare := func(*proc.Process) error { return nil }
	whole := func(p *proc.Process) error { _, err := final.Apply(p, nil); return err }
	for _, w := range []struct {
		name     string
		payloads [][]byte
		n        int
	}{{"small", small[:64], 200}, {"heavy", heavy, 5}} {
		plain := serve(bare, w.payloads, w.n).Machine.Cycles()
		probed := serve(whole, w.payloads, w.n).Machine.Cycles()
		t.Logf("%s: virtual overhead %.1f%%", w.name, 100*(float64(probed)/float64(plain)-1))
		if probed <= plain || 2*probed > 3*plain {
			t.Errorf("%s: %d virtual cycles with the antibody, %d without; want more, by less than half",
				w.name, probed, plain)
		}
	}
}
