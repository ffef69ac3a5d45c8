package vm_test

import (
	"strings"
	"testing"

	"sweeper/internal/apps"
	"sweeper/internal/exploit"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// pairCensus is an instruction hook counting what a guest executes: its
// instructions, each adjacent pair of body ops executed one after the other,
// and the jmps that come back to the start of their own block.
type pairCensus struct {
	code      []vm.Instr
	prev      int
	instrs    uint64
	pairs     map[[2]vm.Op]uint64
	selfJumps uint64
}

func (c *pairCensus) Name() string { return "test.paircensus" }

func (c *pairCensus) BeforeInstr(m *vm.Machine, idx int, in *vm.Instr) {
	c.instrs++
	if idx == c.prev+1 && vm.Fusible(c.code[c.prev].Op) && vm.Fusible(in.Op) {
		c.pairs[[2]vm.Op{c.code[c.prev].Op, in.Op}]++
	}
	c.prev = idx
	if selfJump(c.code, idx) {
		c.selfJumps++
	}
}

// selfJump reports whether code[j] is a jmp to the start of the block it
// ends: a target at or before j with only body ops between.
func selfJump(code []vm.Instr, j int) bool {
	t := int(code[j].Imm)
	if code[j].Op != vm.OpJmp || t < 0 || t > j {
		return false
	}
	for _, in := range code[t:j] {
		if !vm.Fusible(in.Op) {
			return false
		}
	}
	return true
}

// TestGuestPairCensus is the evidence for what the fused engine keeps, kept
// runnable: for each app image, the adjacent body-op pairs in its code and
// how often each is executed over two dozen benign requests (and, on squid,
// FTP URLs with 1 000-2 000-byte user parts), counted on the hook-calling
// engine under an instruction hook, beside the blocks whose jmp comes back to
// their own start. Every pair in the fusion table must execute on some app,
// so a pair no guest runs cannot sit in the table unnoticed. The stack idioms
// logged beside the table's pairs (push;pop, addi;push, mov;pop) are what the
// guests would offer next. -v logs the per-app counts.
func TestGuestPairCensus(t *testing.T) {
	table := vm.FusionPairs()
	logged := append(append([][2]vm.Op(nil), table...),
		[2]vm.Op{vm.OpPush, vm.OpPop}, [2]vm.Op{vm.OpAddI, vm.OpPush}, [2]vm.Op{vm.OpMov, vm.OpPop})
	ran := map[[2]vm.Op]uint64{}
	for _, spec := range apps.All() {
		in := netproxy.New()
		p, err := proc.New(spec.Name, spec.Image, vm.DefaultLayout(), in, spec.Options)
		if err != nil {
			t.Fatal(err)
		}
		code := p.Machine.Code()
		static := map[[2]vm.Op]int{}
		selfLoops := 0
		for i := range code {
			if i+1 < len(code) && vm.Fusible(code[i].Op) && vm.Fusible(code[i+1].Op) {
				static[[2]vm.Op{code[i].Op, code[i+1].Op}]++
			}
			if selfJump(code, i) {
				selfLoops++
			}
		}
		c := &pairCensus{code: code, prev: -2, pairs: map[[2]vm.Op]uint64{}}
		p.Machine.AttachTool(c)
		requests := make([][]byte, 0, 27)
		for i := 0; i < 24; i++ {
			requests = append(requests, exploit.Benign(spec.Name, i))
		}
		if spec.Name == "squid" {
			for _, n := range []int{1000, 1500, 2000} {
				requests = append(requests, []byte("ftp://"+strings.Repeat("anonymous", n/9+1)[:n]+"@ftp.example.org/pub/file.tar.gz"))
			}
		}
		for _, req := range requests {
			in.Submit(req, "client", false)
			if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
				t.Fatalf("%s: a request stopped the guest with %v", spec.Name, stop.Reason)
			}
		}
		t.Logf("%s: %d instructions, %d requests executed %d; %d self-jumping blocks, %d self-jumps executed",
			spec.Name, len(code), len(requests), c.instrs, selfLoops, c.selfJumps)
		for _, pr := range logged {
			n := c.pairs[pr]
			ran[pr] += n
			t.Logf("  %-6s;%-6s %3d sites, executed %8d times, covering %.2f%% of instructions",
				pr[0], pr[1], static[pr], n, 200*float64(n)/float64(c.instrs))
		}
	}
	for _, pr := range table {
		if ran[pr] == 0 {
			t.Errorf("fused pair %v;%v is executed by no app", pr[0], pr[1])
		}
	}
}
