package proc

import (
	"fmt"
	"sync"
	"testing"

	"sweeper/internal/asm"
	"sweeper/internal/netproxy"
	"sweeper/internal/vm"
)

// cloneTestServer builds a guest that, per request, receives into a static
// buffer, consults time and rand (nondeterministic events the replay log
// must reproduce), and echoes the payload back. It uses raw syscalls (this
// internal test cannot import the guest libc, which depends on proc).
func cloneTestServer() *vm.Program {
	b := asm.New("clone-test")
	b.DataSpace("buf", 2048)
	b.Func("main")
	b.Label("main.loop")
	b.LoadDataAddr(vm.R1, "buf")
	b.MovI(vm.R2, 2048)
	b.MovI(vm.R0, SysRecv)
	b.Syscall()
	b.Mov(vm.R4, vm.R0) // request length
	b.MovI(vm.R0, SysTime)
	b.Syscall()
	b.MovI(vm.R0, SysRand)
	b.Syscall()
	b.LoadDataAddr(vm.R1, "buf")
	b.Mov(vm.R2, vm.R4)
	b.MovI(vm.R0, SysSend)
	b.Syscall()
	b.Jmp("main.loop")
	return b.MustBuild()
}

func newCloneTestProcess(t *testing.T) (*Process, *netproxy.Proxy) {
	t.Helper()
	proxy := netproxy.New()
	p, err := New("clone-test", cloneTestServer(), vm.DefaultLayout(), proxy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p, proxy
}

func TestCloneReplaysDeterministically(t *testing.T) {
	p, proxy := newCloneTestProcess(t)
	snap := p.Snapshot(1)
	for i := 0; i < 5; i++ {
		proxy.Submit([]byte(fmt.Sprintf("req-%d....", i)), "client", false)
	}
	stop := p.Run(0)
	if stop.Reason != vm.StopWaitInput {
		t.Fatalf("live run stopped with %v", stop.Reason)
	}
	if got := len(p.Outputs()); got != 5 {
		t.Fatalf("served %d requests, want 5", got)
	}

	clone, err := p.Clone(snap)
	if err != nil {
		t.Fatal(err)
	}
	if clone.Mode() != ModeReplay {
		t.Fatalf("clone mode = %v, want replay", clone.Mode())
	}
	stop = clone.Run(0)
	if stop.Reason != vm.StopWaitInput {
		t.Fatalf("clone replay stopped with %v", stop.Reason)
	}
	if diverged, detail := clone.Diverged(); diverged {
		t.Fatalf("clone replay diverged: %s", detail)
	}
	if got := clone.ServedRequests(); got != p.ServedRequests() {
		t.Errorf("clone served %d, live served %d", got, p.ServedRequests())
	}
}

func TestCloneIsIsolatedFromParent(t *testing.T) {
	p, proxy := newCloneTestProcess(t)
	snap := p.Snapshot(1)
	proxy.Submit([]byte("aaaa"), "client", false)
	if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
		t.Fatalf("live run stopped with %v", stop.Reason)
	}
	logLen := p.Log.Len()

	clone, err := p.Clone(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Trash the clone's memory, registers and request sets; the parent must
	// not notice any of it.
	clone.Machine.Mem.WriteBytes(p.Machine.Layout().DataBase, []byte{1, 2, 3, 4})
	clone.Machine.Regs[vm.R1] = 0xdeadbeef
	clone.ExciseRequests(1)
	clone.Run(0)

	if p.Log.Len() != logLen {
		t.Errorf("parent log grew from %d to %d during clone replay", logLen, p.Log.Len())
	}
	if len(p.excised) != 0 {
		t.Errorf("parent excised set polluted by clone: %v", p.excised)
	}
	// Parent continues serving live traffic unperturbed.
	proxy.Submit([]byte("bbbb"), "client", false)
	if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
		t.Fatalf("parent run after clone stopped with %v", stop.Reason)
	}
	if got := p.ServedRequests(); got != 2 {
		t.Errorf("parent served %d, want 2", got)
	}
	if diverged, detail := p.Diverged(); diverged {
		t.Errorf("parent diverged: %s", detail)
	}
}

// TestConcurrentClonesReplayIdentically is the fork-for-parallel-consumers
// property the parallel analysis engine rests on: many clones of one
// snapshot replaying concurrently — each writing to its own COW view of the
// shared pages — all see the same deterministic execution.
func TestConcurrentClonesReplayIdentically(t *testing.T) {
	p, proxy := newCloneTestProcess(t)
	snap := p.Snapshot(1)
	for i := 0; i < 8; i++ {
		proxy.Submit([]byte(fmt.Sprintf("req-%d....", i)), "client", false)
	}
	if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
		t.Fatalf("live run stopped with %v", stop.Reason)
	}

	const clones = 8
	var wg sync.WaitGroup
	served := make([]int, clones)
	diverged := make([]bool, clones)
	errs := make([]error, clones)
	for c := 0; c < clones; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			clone, err := p.Clone(snap)
			if err != nil {
				errs[c] = err
				return
			}
			clone.Run(0)
			served[c] = clone.ServedRequests()
			diverged[c], _ = clone.Diverged()
		}(c)
	}
	wg.Wait()
	for c := 0; c < clones; c++ {
		if errs[c] != nil {
			t.Fatalf("clone %d: %v", c, errs[c])
		}
		if served[c] != p.ServedRequests() {
			t.Errorf("clone %d served %d, want %d", c, served[c], p.ServedRequests())
		}
		if diverged[c] {
			t.Errorf("clone %d diverged", c)
		}
	}
}
