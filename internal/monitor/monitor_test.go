package monitor_test

import (
	"math/rand"
	"testing"

	"sweeper/internal/apps"
	"sweeper/internal/exploit"
	"sweeper/internal/monitor"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

func TestRandomizedLayoutIsValidAndDistinct(t *testing.T) {
	def := vm.DefaultLayout()
	seen := map[uint32]bool{}
	for seed := int64(1); seed <= 20; seed++ {
		l := monitor.RandomizedLayout(seed)
		if err := l.Validate(); err != nil {
			t.Fatalf("seed %d produced an invalid layout: %v", seed, err)
		}
		if l.CodeBase == def.CodeBase || l.DataBase == def.DataBase ||
			l.HeapBase == def.HeapBase || l.StackBase == def.StackBase {
			t.Errorf("seed %d left a segment at its default base", seed)
		}
		seen[l.CodeBase] = true
	}
	if len(seen) < 15 {
		t.Errorf("only %d distinct code bases over 20 seeds; entropy too low", len(seen))
	}
}

// TestRandomizedLayoutRedrawsOverlaps pins the ASLR false-alarm fix: seeds
// whose independent draws used to drop the data segment inside the heap
// region (1058 from the benchmark's default seed, 12 from its smoke seed)
// now get a disjoint layout, and a seed whose first draw was already
// disjoint keeps exactly that draw.
func TestRandomizedLayoutRedrawsOverlaps(t *testing.T) {
	firstDraw := func(seed int64) vm.Layout {
		rng := rand.New(rand.NewSource(seed))
		shift := func() uint32 { return uint32(1+rng.Int63n(1<<monitor.DefaultEntropy-1)) * vm.PageSize }
		l := vm.DefaultLayout()
		l.CodeBase += shift()
		l.DataBase += shift()
		l.HeapBase += shift()
		l.StackBase -= shift()
		return l
	}
	redrawn := 0
	for seed := int64(1); seed <= 1200; seed++ {
		l := monitor.RandomizedLayout(seed)
		if err := l.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		first := firstDraw(seed)
		if first.Validate() == nil {
			if l != first {
				t.Fatalf("seed %d: first draw %+v was disjoint but the layout is %+v", seed, first, l)
			}
			continue
		}
		redrawn++
		if l == first {
			t.Fatalf("seed %d: overlapping first draw %+v kept", seed, first)
		}
	}
	if redrawn == 0 || redrawn > 300 {
		t.Errorf("%d of 1200 seeds re-drawn; expected roughly one in seven", redrawn)
	}
	for _, seed := range []int64{1058, 12} {
		f := firstDraw(seed)
		if !(f.DataBase >= f.HeapBase && f.DataBase < f.HeapBase+f.HeapSize) {
			t.Errorf("seed %d: first draw %+v does not put data inside the heap; the test's premise moved", seed, f)
		}
	}
}

func TestRandomizedLayoutDeterministicPerSeed(t *testing.T) {
	a := monitor.RandomizedLayout(5)
	b := monitor.RandomizedLayout(5)
	if a != b {
		t.Error("same seed must produce the same layout")
	}
	c := monitor.RandomizedLayout(6)
	if a == c {
		t.Error("different seeds should produce different layouts")
	}
}

// TestRandomizedLayoutPinned pins the four bases for three seeds: the fixed
// stream a zero seed draws from, core.DefaultConfig's 0x5eed, and 1058, whose
// first draw overlaps and is re-drawn. A change to the draw moves every ASLR
// layout, and with it every virtual-clock figure measured at one.
func TestRandomizedLayoutPinned(t *testing.T) {
	for _, tc := range []struct {
		seed                         int64
		code, data, heap, stackStart uint32
	}{
		{0, 0x8f44000, 0x8f9b000, 0x8af1000, 0xbf5c1000},
		{0x5eed, 0x84cf000, 0x88f1000, 0x82b7000, 0xbfdf7000},
		{1058, 0x8ff4000, 0x8c98000, 0x8e6a000, 0xbfddf000},
	} {
		l := monitor.RandomizedLayout(tc.seed)
		if l.CodeBase != tc.code || l.DataBase != tc.data || l.HeapBase != tc.heap || l.StackBase != tc.stackStart {
			t.Errorf("seed %#x: bases code %#x data %#x heap %#x stack %#x, want %#x %#x %#x %#x", tc.seed,
				l.CodeBase, l.DataBase, l.HeapBase, l.StackBase, tc.code, tc.data, tc.heap, tc.stackStart)
		}
	}
}

func TestClassify(t *testing.T) {
	fault := &vm.StopInfo{Reason: vm.StopFault, Fault: &vm.Fault{Kind: vm.FaultPage, Detail: "x"}}
	if d := monitor.Classify(fault); !d.Suspicious || d.Source != monitor.SourceFault || d.Fault == nil {
		t.Errorf("fault classification = %+v", d)
	}
	viol := &vm.StopInfo{Reason: vm.StopViolation, Violation: &vm.Violation{Kind: vm.ViolationDoubleFree}}
	if d := monitor.Classify(viol); !d.Suspicious || d.Source != monitor.SourceViolation {
		t.Errorf("violation classification = %+v", d)
	}
	for _, r := range []vm.StopReason{vm.StopHalt, vm.StopWaitInput, vm.StopInstrBudget} {
		if d := monitor.Classify(&vm.StopInfo{Reason: r}); d.Suspicious {
			t.Errorf("%v should not be suspicious", r)
		}
	}
}

func TestShadowStackDetectsApache1Smash(t *testing.T) {
	spec, err := apps.ByName("apache1")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := exploit.Apache1ExploitDefault(spec.Image)
	if err != nil {
		t.Fatal(err)
	}
	proxy := netproxy.New()
	proxy.Submit([]byte("GET /ok.html HTTP/1.0\r\n\r\n"), "client", false)
	proxy.Submit(payload, "worm", true)
	// Default layout: without the shadow stack this exploit hijacks control.
	p, err := proc.New(spec.Name, spec.Image, vm.DefaultLayout(), proxy, spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	ss := monitor.NewShadowStack()
	p.Machine.AttachTool(ss)
	stop := p.Run(0)
	if stop.Reason != vm.StopViolation {
		t.Fatalf("stop = %v, want violation", stop.Reason)
	}
	if stop.Violation.Kind != vm.ViolationReturnAddress {
		t.Errorf("violation = %v", stop.Violation)
	}
	if ss.Smashes != 1 {
		t.Errorf("smashes = %d", ss.Smashes)
	}
}

func TestShadowStackQuietOnBenignTraffic(t *testing.T) {
	spec, err := apps.ByName("apache1")
	if err != nil {
		t.Fatal(err)
	}
	proxy := netproxy.New()
	for i := 0; i < 5; i++ {
		proxy.Submit(exploit.Apache1Benign(i), "client", false)
	}
	p, err := proc.New(spec.Name, spec.Image, vm.DefaultLayout(), proxy, spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	ss := monitor.NewShadowStack()
	p.Machine.AttachTool(ss)
	stop := p.Run(0)
	if stop.Reason != vm.StopWaitInput {
		t.Fatalf("benign traffic under shadow stack stopped with %v", stop.Reason)
	}
	if ss.Smashes != 0 {
		t.Errorf("false positives: %d", ss.Smashes)
	}
	if ss.Depth() > 2 {
		t.Errorf("shadow stack did not unwind: depth %d", ss.Depth())
	}
}
