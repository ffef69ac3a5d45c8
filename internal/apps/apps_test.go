package apps

import (
	"bytes"
	"strings"
	"testing"

	"sweeper/internal/monitor"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// runApp loads the app, submits the given payloads and runs the guest until
// it blocks for more input or stops for another reason.
func runApp(t *testing.T, spec *Spec, layout vm.Layout, payloads ...[]byte) (*proc.Process, *vm.StopInfo) {
	t.Helper()
	proxy := netproxy.New()
	for _, pl := range payloads {
		if _, ok := proxy.Submit(pl, "client", false); !ok {
			t.Fatalf("proxy rejected payload %q", pl)
		}
	}
	p, err := proc.New(spec.Name, spec.Image, layout, proxy, spec.Options)
	if err != nil {
		t.Fatalf("loading %s: %v", spec.Name, err)
	}
	stop := p.Run(0)
	return p, stop
}

func TestAllSpecsHaveMetadata(t *testing.T) {
	specs := All()
	if len(specs) != 4 {
		t.Fatalf("expected 4 applications, got %d", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if s.Name == "" || s.CVE == "" || s.BugType == "" || s.Program == "" {
			t.Errorf("spec %+v missing metadata", s)
		}
		if seen[s.Name] {
			t.Errorf("duplicate app name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Image == nil || len(s.Image.Code) == 0 {
			t.Errorf("app %s has no code", s.Name)
		}
		if s.VulnIndex() < 0 {
			t.Errorf("app %s has no labelled vulnerable instruction", s.Name)
		}
		if _, ok := s.Image.Symbols["handle_request"]; !ok {
			t.Errorf("app %s has no handle_request", s.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"apache1", "apache2", "cvs", "squid"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("iis"); err == nil {
		t.Errorf("ByName(iis) should fail")
	}
}

func TestBenignWorkloads(t *testing.T) {
	cases := map[string][][]byte{
		"squid": {
			[]byte("ftp://anonymous@ftp.example.org/pub/file.tar.gz"),
			[]byte("GET http://origin.example.com/x HTTP/1.0\r\n\r\n"),
		},
		"apache1": {
			[]byte("GET /index.html HTTP/1.0\r\n\r\n"),
			[]byte("GET /docs/a/b/c.html HTTP/1.0\r\n\r\n"),
		},
		"apache2": {
			[]byte("GET /index.html HTTP/1.0\r\nReferer: http://www.example.com/\r\n\r\n"),
			[]byte("GET /index.html HTTP/1.0\r\n\r\n"),
		},
		"cvs": {
			[]byte("Directory src/lib\n"),
			[]byte("noop\n"),
		},
	}
	for name, payloads := range cases {
		t.Run(name, func(t *testing.T) {
			spec, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p, stop := runApp(t, spec, vm.DefaultLayout(), payloads...)
			if stop.Reason != vm.StopWaitInput {
				t.Fatalf("benign workload stopped with %v (fault=%v)", stop.Reason, stop.Fault)
			}
			if p.ServedRequests() != len(payloads) {
				t.Errorf("served %d requests, want %d", p.ServedRequests(), len(payloads))
			}
			if len(p.Outputs()) != len(payloads) {
				t.Errorf("got %d outputs, want %d", len(p.Outputs()), len(payloads))
			}
		})
	}
}

func TestBenignWorkloadsUnderRandomizedLayout(t *testing.T) {
	layout := monitor.RandomizedLayout(7)
	for _, spec := range All() {
		t.Run(spec.Name, func(t *testing.T) {
			var payloads [][]byte
			switch spec.Name {
			case "squid":
				payloads = append(payloads, []byte("ftp://anonymous@ftp.example.org/pub/file.tar.gz"))
			case "cvs":
				payloads = append(payloads, []byte("Directory src/lib\n"))
			default:
				payloads = append(payloads, []byte("GET /index.html HTTP/1.0\r\n\r\n"))
			}
			_, stop := runApp(t, spec, layout, payloads...)
			if stop.Reason != vm.StopWaitInput {
				t.Fatalf("benign workload under ASLR stopped with %v (fault=%v)", stop.Reason, stop.Fault)
			}
		})
	}
}

func TestSquidExploitFaultsInStrcat(t *testing.T) {
	spec, err := ByName("squid")
	if err != nil {
		t.Fatal(err)
	}
	exploitUser := strings.Repeat("\\", 4000)
	payload := []byte("ftp://" + exploitUser + "@ftp.site/")
	_, stop := runApp(t, spec, vm.DefaultLayout(),
		[]byte("ftp://anonymous@ftp.example.org/pub/file.tar.gz"),
		payload,
	)
	if stop.Reason != vm.StopFault {
		t.Fatalf("exploit did not fault: %v", stop.Reason)
	}
	if stop.Fault.Kind != vm.FaultPage || !stop.Fault.IsWrite {
		t.Fatalf("expected write page fault, got %v", stop.Fault)
	}
	if stop.Fault.Sym != "strcat" {
		t.Errorf("fault in %q, want strcat", stop.Fault.Sym)
	}
}

func TestApache1ExploitHijacksWithoutASLR(t *testing.T) {
	spec, err := ByName("apache1")
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := spec.Image.Symbols[Apache1BackdoorSym]
	if !ok {
		t.Fatal("no backdoor symbol")
	}
	layout := vm.DefaultLayout()
	addr := layout.CodeBase + uint32(entry)*vm.InstrSize
	uri := []byte{'/'}
	for len(uri) < Apache1RetOffset {
		uri = append(uri, 'A')
	}
	uri = append(uri, byte(addr), byte(addr>>8), byte(addr>>16), byte(addr>>24))
	payload := append([]byte("GET "), uri...)
	payload = append(payload, []byte(" HTTP/1.0\r\n\r\n")...)

	p, stop := runApp(t, spec, layout, payload)
	if stop.Reason != vm.StopHalt {
		t.Fatalf("expected hijacked execution to reach the backdoor and exit, got %v (fault=%v)", stop.Reason, stop.Fault)
	}
	var owned bool
	for _, out := range p.Outputs() {
		if bytes.Contains(out.Data, []byte("OWNED")) {
			owned = true
		}
	}
	if !owned {
		t.Errorf("backdoor did not run; outputs: %v", p.Outputs())
	}
}

func TestApache1ExploitFaultsUnderASLR(t *testing.T) {
	spec, err := ByName("apache1")
	if err != nil {
		t.Fatal(err)
	}
	entry := spec.Image.Symbols[Apache1BackdoorSym]
	def := vm.DefaultLayout()
	addr := def.CodeBase + uint32(entry)*vm.InstrSize
	uri := []byte{'/'}
	for len(uri) < Apache1RetOffset {
		uri = append(uri, 'A')
	}
	uri = append(uri, byte(addr), byte(addr>>8), byte(addr>>16), byte(addr>>24))
	payload := append([]byte("GET "), uri...)
	payload = append(payload, []byte(" HTTP/1.0\r\n\r\n")...)

	layout := monitor.RandomizedLayout(99)
	_, stop := runApp(t, spec, layout, payload)
	if stop.Reason != vm.StopFault {
		t.Fatalf("expected fault under ASLR, got %v", stop.Reason)
	}
	if stop.Fault.Kind != vm.FaultBadPC {
		t.Errorf("expected bad-PC fault, got %v", stop.Fault)
	}
	if stop.Fault.Sym != "try_alias_list" {
		t.Errorf("fault in %q, want try_alias_list", stop.Fault.Sym)
	}
}

func TestApache2ExploitNullDeref(t *testing.T) {
	spec, err := ByName("apache2")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("GET /index.html HTTP/1.0\r\nReferer: gopher://evil.example/\r\n\r\n")
	_, stop := runApp(t, spec, vm.DefaultLayout(),
		[]byte("GET /a.html HTTP/1.0\r\nReferer: http://ok.example/\r\n\r\n"),
		payload,
	)
	if stop.Reason != vm.StopFault {
		t.Fatalf("exploit did not fault: %v", stop.Reason)
	}
	if stop.Fault.Kind != vm.FaultPage || stop.Fault.Addr >= vm.PageSize {
		t.Fatalf("expected NULL-page fault, got %v", stop.Fault)
	}
	if stop.Fault.Sym != "is_ip" {
		t.Errorf("fault in %q, want is_ip", stop.Fault.Sym)
	}
}

func TestCVSExploitDoubleFree(t *testing.T) {
	spec, err := ByName("cvs")
	if err != nil {
		t.Fatal(err)
	}
	_, stop := runApp(t, spec, vm.DefaultLayout(),
		[]byte("Directory src/lib\n"),
		[]byte("Directory \n"),
	)
	if stop.Reason != vm.StopFault {
		t.Fatalf("exploit did not fault: %v", stop.Reason)
	}
	if stop.Fault.Kind != vm.FaultHeapCorruption {
		t.Fatalf("expected heap corruption fault, got %v", stop.Fault)
	}
	if !strings.Contains(stop.Fault.Detail, "double free") {
		t.Errorf("fault detail %q does not mention double free", stop.Fault.Detail)
	}
}
