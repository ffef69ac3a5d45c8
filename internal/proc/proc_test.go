package proc_test

import (
	"bytes"
	"strings"
	"testing"

	"sweeper/internal/apps"
	"sweeper/internal/asm"
	"sweeper/internal/exploit"
	"sweeper/internal/guest"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/replay"
	"sweeper/internal/vm"
)

// echoServer builds a guest that receives a request, optionally calls
// time/rand/malloc, and echoes the payload back prefixed with "echo:".
func echoServer() *vm.Program {
	b := asm.New("echo")
	b.DataSpace("buf", 2048)
	b.DataString("prefix", "echo:")
	b.DataSpace("out", 4096)
	b.Func("main")
	b.Label("main.loop")
	b.LoadDataAddr(vm.R1, "buf")
	b.MovI(vm.R2, 2048)
	b.Call(guest.FnRecv)
	// NUL terminate
	b.LoadDataAddr(vm.R1, "buf")
	b.Mov(vm.R2, vm.R1)
	b.Add(vm.R2, vm.R0)
	b.MovI(vm.R3, 0)
	b.StoreB(vm.R2, 0, vm.R3)
	// out = "echo:" + buf
	b.LoadDataAddr(vm.R1, "out")
	b.LoadDataAddr(vm.R2, "prefix")
	b.Call(guest.FnStrcpy)
	b.LoadDataAddr(vm.R1, "out")
	b.LoadDataAddr(vm.R2, "buf")
	b.Call(guest.FnStrcat)
	// send(out, strlen(out))
	b.LoadDataAddr(vm.R1, "out")
	b.Call(guest.FnStrlen)
	b.Mov(vm.R2, vm.R0)
	b.LoadDataAddr(vm.R1, "out")
	b.Call(guest.FnSend)
	b.Jmp("main.loop")
	guest.AddLibc(b)
	return b.MustBuild()
}

// allocServer builds a guest that, per request, allocates a buffer sized by
// the request length, copies the payload into it, frees it and replies "ok".
func allocServer() *vm.Program {
	b := asm.New("alloc")
	b.DataSpace("buf", 2048)
	b.DataString("ok", "ok")
	b.Func("main")
	b.Label("main.loop")
	b.LoadDataAddr(vm.R1, "buf")
	b.MovI(vm.R2, 2048)
	b.Call(guest.FnRecv)
	b.Mov(vm.R7, vm.R0) // n
	// p = malloc(n+1)
	b.Mov(vm.R1, vm.R0)
	b.AddI(vm.R1, 1)
	b.Call(guest.FnMalloc)
	b.Mov(vm.R6, vm.R0)
	// memcpy(p, buf, n)
	b.Mov(vm.R1, vm.R0)
	b.LoadDataAddr(vm.R2, "buf")
	b.Mov(vm.R3, vm.R7)
	b.Call(guest.FnMemcpy)
	// free(p)
	b.Mov(vm.R1, vm.R6)
	b.Call(guest.FnFree)
	// send "ok"
	b.LoadDataAddr(vm.R1, "ok")
	b.MovI(vm.R2, 2)
	b.Call(guest.FnSend)
	b.Jmp("main.loop")
	guest.AddLibc(b)
	return b.MustBuild()
}

// nondetServer uses time and rand syscalls and reports them in its output, so
// replay determinism is observable.
func nondetServer() *vm.Program {
	b := asm.New("nondet")
	b.DataSpace("buf", 256)
	b.DataSpace("out", 16)
	b.Func("main")
	b.Label("main.loop")
	b.LoadDataAddr(vm.R1, "buf")
	b.MovI(vm.R2, 256)
	b.Call(guest.FnRecv)
	b.Call(guest.FnRand)
	b.Mov(vm.R7, vm.R0)
	b.Call(guest.FnTime)
	b.Add(vm.R7, vm.R0)
	// store the combined value and send 4 bytes
	b.LoadDataAddr(vm.R1, "out")
	b.StoreW(vm.R1, 0, vm.R7)
	b.MovI(vm.R2, 4)
	b.Call(guest.FnSend)
	b.Jmp("main.loop")
	guest.AddLibc(b)
	return b.MustBuild()
}

func newProc(t *testing.T, prog *vm.Program, payloads ...string) (*proc.Process, *netproxy.Proxy) {
	t.Helper()
	proxy := netproxy.New()
	for _, pl := range payloads {
		proxy.Submit([]byte(pl), "client", false)
	}
	p, err := proc.New(prog.Name, prog, vm.DefaultLayout(), proxy, proc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p, proxy
}

func TestEchoServerServesRequests(t *testing.T) {
	p, _ := newProc(t, echoServer(), "hello", "world")
	stop := p.Run(0)
	if stop.Reason != vm.StopWaitInput {
		t.Fatalf("stop = %v (fault %v)", stop.Reason, stop.Fault)
	}
	if p.ServedRequests() != 2 {
		t.Errorf("served = %d", p.ServedRequests())
	}
	outs := p.Outputs()
	if len(outs) != 2 || string(outs[0].Data) != "echo:hello" || string(outs[1].Data) != "echo:world" {
		t.Errorf("outputs = %+v", outs)
	}
	if outs[0].RequestID != 1 || outs[1].RequestID != 2 {
		t.Error("outputs not attributed to their requests")
	}
}

func TestEventLogRecordsRequestsAndOutputs(t *testing.T) {
	p, _ := newProc(t, echoServer(), "abc")
	p.Run(0)
	events := p.Log.Events()
	var kinds []replay.EventKind
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	if len(events) != 2 || kinds[0] != replay.EventRequest || kinds[1] != replay.EventOutput {
		t.Fatalf("event kinds = %v", kinds)
	}
	if string(events[0].Data) != "abc" || !bytes.Equal(events[1].Data, []byte("echo:abc")) {
		t.Error("event payloads wrong")
	}
}

func TestSnapshotRollbackReplayDeterminism(t *testing.T) {
	p, _ := newProc(t, nondetServer(), "r1", "r2", "r3")
	snap := p.Snapshot(1)
	stop := p.Run(0)
	if stop.Reason != vm.StopWaitInput {
		t.Fatalf("stop = %v", stop.Reason)
	}
	liveOut := append([]proc.OutputRecord(nil), p.Outputs()...)
	if len(liveOut) != 3 {
		t.Fatalf("outputs = %d", len(liveOut))
	}

	// Replay from the snapshot: time and rand come from the log, so outputs
	// must match byte for byte and the output-commit check must stay clean.
	p.Rollback(snap, proc.ModeReplay, false)
	stop = p.Run(0)
	if stop.Reason != vm.StopWaitInput {
		t.Fatalf("replay stop = %v", stop.Reason)
	}
	if diverged, why := p.Diverged(); diverged {
		t.Errorf("replay diverged: %s", why)
	}
	if p.ServedRequests() != 3 {
		t.Errorf("served after replay = %d", p.ServedRequests())
	}
	// Outputs list is not duplicated by sandboxed replay.
	if len(p.Outputs()) != 3 {
		t.Errorf("outputs after replay = %d", len(p.Outputs()))
	}
}

func TestRollbackRestoresMemoryAndHeap(t *testing.T) {
	p, _ := newProc(t, allocServer(), "first", "second")
	snap := p.Snapshot(1)
	if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
		t.Fatalf("stop = %v (%v)", stop.Reason, stop.Fault)
	}
	mallocs1, frees1 := p.Alloc.Stats()
	if mallocs1 == 0 || frees1 == 0 {
		t.Fatal("allocator was not exercised")
	}
	p.Rollback(snap, proc.ModeReplay, false)
	mallocs2, _ := p.Alloc.Stats()
	if mallocs2 != 0 {
		t.Errorf("allocator stats not rolled back: %d", mallocs2)
	}
	if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
		t.Fatalf("replay stop = %v", stop.Reason)
	}
	mallocs3, frees3 := p.Alloc.Stats()
	if mallocs3 != mallocs1 || frees3 != frees1 {
		t.Errorf("replayed allocator stats %d/%d, want %d/%d", mallocs3, frees3, mallocs1, frees1)
	}
}

func TestDropAndExciseRequests(t *testing.T) {
	p, _ := newProc(t, echoServer(), "keep1", "drop-me", "keep2")
	snap := p.Snapshot(1)
	p.Run(0)

	// Temporarily drop request 2 during one replay.
	p.Rollback(snap, proc.ModeReplay, false)
	p.DropRequests(2)
	p.Run(0)
	if p.ServedRequests() != 2 {
		t.Errorf("served with drop = %d, want 2", p.ServedRequests())
	}
	p.ClearDropped()

	// Excision persists across later replays without re-arming.
	p.ExciseRequests(2)
	p.Rollback(snap, proc.ModeReplay, false)
	p.Run(0)
	if p.ServedRequests() != 2 {
		t.Errorf("served with excision = %d, want 2", p.ServedRequests())
	}
	if got := p.ExcisedRequests(); len(got) != 1 || got[0] != 2 {
		t.Errorf("ExcisedRequests = %v", got)
	}
}

func TestReplayThenLiveFallsThrough(t *testing.T) {
	p, proxy := newProc(t, echoServer(), "logged")
	snap := p.Snapshot(1)
	p.Run(0)

	// New live traffic arrives after the attack analysis.
	proxy.Submit([]byte("fresh"), "client", false)
	p.Rollback(snap, proc.ModeReplay, true)
	stop := p.Run(0)
	if stop.Reason != vm.StopWaitInput {
		t.Fatalf("stop = %v", stop.Reason)
	}
	if p.Mode() != proc.ModeLive {
		t.Error("process should have fallen through to live mode")
	}
	if p.ServedRequests() != 2 {
		t.Errorf("served = %d, want 2 (one replayed + one live)", p.ServedRequests())
	}
}

func TestVirtualClockMonotonicAcrossRollback(t *testing.T) {
	p, _ := newProc(t, echoServer(), "a", "b")
	snap := p.Snapshot(1)
	p.Run(0)
	before := p.Machine.Cycles()
	p.Rollback(snap, proc.ModeReplay, false)
	if p.Machine.Cycles() < before {
		t.Error("rollback must not rewind the virtual clock")
	}
}

func TestOutputCommitDivergenceDetected(t *testing.T) {
	p, _ := newProc(t, nondetServer(), "x")
	snap := p.Snapshot(1)
	p.Run(0)
	// Corrupt the logged rand value so the replayed output differs.
	events := p.Log.Events()
	var tampered *replay.Log = replay.NewLog()
	for _, e := range events {
		if e.Kind == replay.EventRand {
			e.Value ^= 0xFFFF
		}
		tampered.Append(e)
	}
	*p.Log = *tampered
	p.Rollback(snap, proc.ModeReplay, false)
	p.Run(0)
	if diverged, _ := p.Diverged(); !diverged {
		t.Error("tampered replay should be flagged as diverged")
	}
}

func TestGuestLogMessages(t *testing.T) {
	b := asm.New("logger")
	b.DataSpace("buf", 64)
	b.DataString("msg", "starting up")
	b.Func("main")
	b.LoadDataAddr(vm.R1, "msg")
	b.MovI(vm.R2, 11)
	b.Call(guest.FnLogMsg)
	b.Call(guest.FnExit)
	guest.AddLibc(b)
	p, _ := newProc(t, b.MustBuild())
	stop := p.Run(0)
	if stop.Reason != vm.StopHalt {
		t.Fatalf("stop = %v", stop.Reason)
	}
	msgs := p.LogMessages()
	if len(msgs) != 1 || msgs[0].Text != "starting up" {
		t.Errorf("log messages = %+v", msgs)
	}
}

func TestUnknownSyscallFaults(t *testing.T) {
	b := asm.New("badsys")
	b.Func("main")
	b.MovI(vm.R0, 999)
	b.Syscall()
	b.Halt()
	p, _ := newProc(t, b.MustBuild())
	stop := p.Run(0)
	if stop.Reason != vm.StopFault || stop.Fault.Kind != vm.FaultBadSyscall {
		t.Errorf("stop = %v fault = %v", stop.Reason, stop.Fault)
	}
}

func TestRecvTruncatesToBufferCapacity(t *testing.T) {
	b := asm.New("tiny")
	b.DataSpace("buf", 16)
	b.Func("main")
	b.Label("loop")
	b.LoadDataAddr(vm.R1, "buf")
	b.MovI(vm.R2, 8) // tiny capacity
	b.Call(guest.FnRecv)
	b.Mov(vm.R7, vm.R0)
	b.LoadDataAddr(vm.R1, "buf")
	b.Mov(vm.R2, vm.R7)
	b.Call(guest.FnSend)
	b.Jmp("loop")
	guest.AddLibc(b)
	p, _ := newProc(t, b.MustBuild(), strings.Repeat("Z", 100))
	p.Run(0)
	outs := p.Outputs()
	if len(outs) != 1 || len(outs[0].Data) != 8 {
		t.Errorf("expected an 8-byte truncated echo, got %+v", outs)
	}
}

func TestDoubleFreeGuestFaultsInsideFree(t *testing.T) {
	b := asm.New("dfree")
	b.DataSpace("buf", 64)
	b.Func("main")
	b.Label("loop")
	b.LoadDataAddr(vm.R1, "buf")
	b.MovI(vm.R2, 64)
	b.Call(guest.FnRecv)
	b.MovI(vm.R1, 32)
	b.Call(guest.FnMalloc)
	b.Mov(vm.R7, vm.R0)
	b.Mov(vm.R1, vm.R7)
	b.Call(guest.FnFree)
	b.Mov(vm.R1, vm.R7)
	b.Call(guest.FnFree) // double free
	b.Jmp("loop")
	guest.AddLibc(b)
	p, _ := newProc(t, b.MustBuild(), "go")
	stop := p.Run(0)
	if stop.Reason != vm.StopFault || stop.Fault.Kind != vm.FaultHeapCorruption {
		t.Fatalf("stop = %v fault = %v", stop.Reason, stop.Fault)
	}
	if stop.Fault.Sym != guest.FnFree {
		t.Errorf("fault in %q, want the free wrapper", stop.Fault.Sym)
	}
}

func TestModeString(t *testing.T) {
	if proc.ModeLive.String() != "live" || proc.ModeReplay.String() != "replay" {
		t.Error("mode strings wrong")
	}
}

// TestSteadyCheckpointCopiesAFractionOfTheImage pins what an incremental
// checkpoint is for, on the evaluation's squid with its heap filled (the
// paper's squid carries a large in-memory cache): a checkpoint one benign
// request after the previous one captures the few pages the request dirtied,
// by their dirty runs — 3 of 147 pages, 180 bytes — where a full scan copies
// every mapped page. The counts repeat exactly; what a capture costs in time
// is bench/'s checkpoint.capture_*_us.
func TestSteadyCheckpointCopiesAFractionOfTheImage(t *testing.T) {
	spec := apps.Squid()
	proxy := netproxy.New()
	p, err := proc.New(spec.Name, spec.Image, vm.DefaultLayout(), proxy, spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(from, n int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			proxy.Submit(exploit.Benign("squid", i), "client", false)
		}
		if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
			t.Fatalf("squid did not quiesce: %v", stop.Reason)
		}
	}
	serve(0, 32)
	for {
		if _, err := p.Alloc.Malloc(vm.PageSize); err != nil {
			break
		}
	}
	mapped := p.Machine.Mem.MappedPages()
	p.Snapshot(1)
	serve(32, 1)
	steady := p.Snapshot(2).Mem
	if got := steady.Pages(); got != mapped {
		t.Errorf("the steady checkpoint restores %d pages, the image has %d", got, mapped)
	}
	if mapped != 147 || steady.DeltaPages() != 3 || steady.CapturedBytes() != 180 {
		t.Errorf("steady checkpoint captured %d of %d pages, %d bytes; want 3 of 147, 180 bytes",
			steady.DeltaPages(), mapped, steady.CapturedBytes())
	}
}
