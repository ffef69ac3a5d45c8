// Package proc implements the protected process runtime: it loads a guest
// program into a vm.Machine, services its syscalls (network receive/send,
// malloc/free, time, random numbers), logs every nondeterministic event for
// Flashback-style deterministic replay, and exposes whole-process snapshot
// and rollback used by the checkpoint manager.
package proc

import (
	"bytes"
	"fmt"

	"sweeper/internal/heap"
	"sweeper/internal/netproxy"
	"sweeper/internal/replay"
	"sweeper/internal/vm"
)

// Guest syscall numbers (placed in R0 before the syscall instruction).
const (
	SysRecv   = 1 // R1=buffer, R2=capacity -> R0=bytes received (blocks when no request is queued)
	SysSend   = 2 // R1=buffer, R2=length  -> R0=length
	SysExit   = 3 // terminate the guest
	SysMalloc = 4 // R1=size -> R0=pointer (0 on exhaustion)
	SysFree   = 5 // R1=pointer
	SysTime   = 6 // -> R0=virtual milliseconds
	SysRand   = 7 // -> R0=pseudo random 32-bit value
	SysLog    = 8 // R1=buffer, R2=length: debug message to the host
)

// Mode selects where nondeterministic inputs come from.
type Mode uint8

// Execution modes. In ModeLive requests come from the proxy and outputs reach
// the client; in ModeReplay they come from the event log and outputs are
// sandboxed (dropped, or compared for the output-commit check).
const (
	ModeLive Mode = iota
	ModeReplay
)

// String returns the mode name.
func (m Mode) String() string {
	if m == ModeLive {
		return "live"
	}
	return "replay"
}

// OutputRecord is one send() performed by the guest while serving a request.
type OutputRecord struct {
	RequestID int
	Data      []byte
}

// LogMessage is a debug message emitted by the guest via SysLog.
type LogMessage struct {
	RequestID int
	Text      string
}

// Options configure process creation.
type Options struct {
	// HeapSize overrides the layout's heap size if non-zero.
	HeapSize uint32
	// MmapThreshold overrides the allocator's large-object threshold if
	// non-zero (see the heap package).
	MmapThreshold uint32
	// RandSeed seeds the guest-visible pseudo random number generator.
	RandSeed uint32
	// SyscallCycles is the extra virtual cost charged per syscall beyond the
	// machine's base cost; it models kernel entry/exit and I/O. Zero uses a
	// default.
	SyscallCycles uint64
}

const defaultSyscallCycles = 400

// Process is a guest program under the control of the Sweeper runtime module.
type Process struct {
	Name    string
	Machine *vm.Machine
	Alloc   *heap.Allocator
	Log     *replay.Log

	proxy *netproxy.Proxy
	mode  Mode
	// replayThenLive makes the process fall through to live inputs once the
	// event log is exhausted during replay; recovery uses it, analysis does not.
	replayThenLive bool
	skip           map[int]bool // request IDs temporarily dropped during one replay
	excised        map[int]bool // request IDs permanently removed from history (attack inputs)
	// stopBeforeReq, when non-zero, suspends a replay at the recv boundary
	// immediately before this request would be delivered: the recv returns
	// SysWaitInput without consuming the request, leaving the log cursor
	// positioned so a later run (or an adopting process) can continue from
	// exactly that boundary. Pipelined recovery uses it to replay the benign
	// history prefix while the analyses still deliberate over the suspect.
	stopBeforeReq int

	// outputs is the retained suffix of the output stream: outputs[i] is the
	// (outBase+i)-th send the process ever made (see DiscardHistoryBefore).
	outputs     []OutputRecord
	outBase     int
	logMessages []LogMessage

	currentReqID int
	servedCount  int

	rng           uint32
	syscallCycles uint64

	diverged   bool
	divergence string

	// OnRequestBoundary, when set, is invoked at every live-mode request
	// boundary (immediately after the previous request finishes service and
	// before the next one is fetched). The Sweeper core uses it to take
	// checkpoints between requests, as Rx does.
	OnRequestBoundary func()

	// OnRequestServed, when set, is invoked with the ID of the request that
	// just finished service, at its live-mode boundary. Recovery replays of
	// already-answered requests do not re-fire it (the boundary happens in
	// replay mode), so the TCP front end can write exactly one response per
	// request. Clones never inherit it.
	OnRequestServed func(reqID int)
}

// New loads prog at the given layout and returns a ready-to-run process whose
// requests are drawn from proxy.
func New(name string, prog *vm.Program, layout vm.Layout, proxy *netproxy.Proxy, opts Options) (*Process, error) {
	if opts.HeapSize != 0 {
		layout.HeapSize = opts.HeapSize
	}
	p := &Process{
		Name:          name,
		Log:           replay.NewLog(),
		proxy:         proxy,
		skip:          make(map[int]bool),
		excised:       make(map[int]bool),
		rng:           opts.RandSeed,
		syscallCycles: opts.SyscallCycles,
	}
	if p.rng == 0 {
		p.rng = 0x9E3779B9
	}
	if p.syscallCycles == 0 {
		p.syscallCycles = defaultSyscallCycles
	}
	m, err := vm.NewMachine(prog, layout, p)
	if err != nil {
		return nil, fmt.Errorf("proc: loading %s: %w", name, err)
	}
	p.Machine = m
	p.Alloc = heap.New(m.Mem, layout.HeapBase, layout.HeapSize)
	if opts.MmapThreshold != 0 {
		p.Alloc.SetMmapThreshold(opts.MmapThreshold)
	}
	return p, nil
}

// Mode returns the current execution mode.
func (p *Process) Mode() Mode { return p.mode }

// Proxy returns the proxy this process draws live requests from. A clone gets
// a fresh, empty, filterless proxy: verification sandboxes use it to feed a
// clone an exploit candidate after its replay window is drained.
func (p *Process) Proxy() *netproxy.Proxy { return p.proxy }

// SetMode switches between live and replay execution. replayThenLive only
// matters in replay mode.
func (p *Process) SetMode(mode Mode, replayThenLive bool) {
	p.mode = mode
	p.replayThenLive = replayThenLive
}

// SetReplayStopBefore arranges for replay to suspend (recv returns wait-input
// without consuming anything) at the boundary immediately before the given
// request ID. Zero clears the stop point.
func (p *Process) SetReplayStopBefore(id int) { p.stopBeforeReq = id }

// DropRequests marks request IDs to be skipped when the event log is replayed.
// The analysis module uses it to replay selected subsets of the logged
// requests (e.g. one suspect at a time); ClearDropped resets it.
func (p *Process) DropRequests(ids ...int) {
	for _, id := range ids {
		p.skip[id] = true
	}
}

// ClearDropped forgets all temporarily dropped request IDs (it does not
// affect excised requests).
func (p *Process) ClearDropped() { p.skip = make(map[int]bool) }

// ExciseRequests permanently removes request IDs from the replayed history.
// Recovery uses it for identified attack inputs: once excised, a request is
// never re-executed by any later replay.
func (p *Process) ExciseRequests(ids ...int) {
	for _, id := range ids {
		p.excised[id] = true
	}
}

// ExcisedRequests returns the permanently removed request IDs.
func (p *Process) ExcisedRequests() []int {
	out := make([]int, 0, len(p.excised))
	for id := range p.excised {
		out = append(out, id)
	}
	return out
}

// CurrentRequestID returns the ID of the request currently being served
// (0 if none).
func (p *Process) CurrentRequestID() int { return p.currentReqID }

// ServedRequests returns how many requests have completed service (reached
// the next blocking recv).
func (p *Process) ServedRequests() int { return p.servedCount }

// Outputs returns the retained client-visible outputs, oldest first: every
// send since the oldest checkpoint the process's history still reaches back
// to. The slice is the process's own, valid until the process next runs.
func (p *Process) Outputs() []OutputRecord { return p.outputs }

// OutputCount returns how many sends the process has made so far, discarded
// ones included: the position in the output stream a Snapshot records.
func (p *Process) OutputCount() int { return p.outBase + len(p.outputs) }

// OutputsSince returns the retained outputs at or after position n of the
// output stream, under the same terms as Outputs.
func (p *Process) OutputsSince(n int) []OutputRecord {
	return p.outputs[min(max(n-p.outBase, 0), len(p.outputs)):]
}

// DiscardHistoryBefore drops the events and outputs that precede the given
// snapshot of this process: once it is the oldest checkpoint anything can
// roll back to, nothing can replay or re-read them. Positions recorded
// earlier (Snapshot.LogLen, Snapshot.OutputCount, log cursors) keep meaning
// the events they meant; clones made before keep their own view of the log.
func (p *Process) DiscardHistoryBefore(s *Snapshot) {
	p.Log.DiscardBefore(s.LogLen)
	if n := s.OutputCount - p.outBase; n > 0 {
		// Unlike the log, the output array is nobody else's: move it down in
		// place, so that a steady ring allocates nothing here.
		kept := copy(p.outputs, p.outputs[n:])
		clear(p.outputs[kept:])
		p.outputs = p.outputs[:kept]
		p.outBase = s.OutputCount
	}
}

// LogMessages returns guest debug messages.
func (p *Process) LogMessages() []LogMessage { return p.logMessages }

// Diverged reports whether replayed execution produced output differing from
// the logged original (the output-commit consistency check).
func (p *Process) Diverged() (bool, string) { return p.diverged, p.divergence }

// Run executes the guest until it stops (budget of 0 means unlimited).
func (p *Process) Run(budget uint64) *vm.StopInfo { return p.Machine.Run(budget) }

// SharedBasePages reports how many of the process's mapped pages are still
// backed by the process-wide content-addressed base store (untouched since
// image install) versus the total mapped pages — the shared-vs-private page
// accounting behind the scale mode's sublinear memory claim. The process
// must be quiescent; the caller synchronises with the serving goroutine.
func (p *Process) SharedBasePages() (shared, total int) {
	return vm.DefaultBaseStore().SharedPagesIn(p.Machine.Mem)
}

// --- vm.SyscallHandler ---

// Syscall services one guest syscall. It implements vm.SyscallHandler.
func (p *Process) Syscall(m *vm.Machine, num uint32) (vm.SyscallResult, *vm.Fault) {
	m.AddCycles(p.syscallCycles)
	switch num {
	case SysRecv:
		return p.sysRecv(m)
	case SysSend:
		return p.sysSend(m)
	case SysExit:
		return vm.SysHalt, nil
	case SysMalloc:
		return p.sysMalloc(m)
	case SysFree:
		return p.sysFree(m)
	case SysTime:
		return p.sysTime(m)
	case SysRand:
		return p.sysRand(m)
	case SysLog:
		return p.sysLog(m)
	default:
		return vm.SysOK, &vm.Fault{Kind: vm.FaultBadSyscall, Addr: num, Detail: fmt.Sprintf("unknown syscall %d", num)}
	}
}

func (p *Process) nextReplayRequest() (*replay.Event, bool) {
	for {
		e, ok := p.Log.Next(replay.EventRequest)
		if !ok {
			return nil, false
		}
		if p.skip[e.RequestID] || p.excised[e.RequestID] {
			continue
		}
		return &e, true
	}
}

func (p *Process) sysRecv(m *vm.Machine) (vm.SyscallResult, *vm.Fault) {
	buf := m.Regs[vm.R1]
	capacity := m.Regs[vm.R2]

	// Completing a recv means the previous request finished service.
	if p.currentReqID != 0 {
		served := p.currentReqID
		p.servedCount++
		p.currentReqID = 0
		if p.mode == ModeLive && p.OnRequestServed != nil {
			p.OnRequestServed(served)
		}
	}
	if p.mode == ModeLive && p.OnRequestBoundary != nil {
		p.OnRequestBoundary()
	}

	var payload []byte
	var reqID int

	if p.mode == ModeReplay {
		if p.stopBeforeReq != 0 {
			next, ok := p.Log.PeekRequest(func(id int) bool { return p.skip[id] || p.excised[id] })
			if ok && next.RequestID == p.stopBeforeReq {
				return vm.SysWaitInput, nil
			}
		}
		if e, ok := p.nextReplayRequest(); ok {
			payload = e.Data
			reqID = e.RequestID
		} else if p.replayThenLive {
			p.mode = ModeLive
		} else {
			return vm.SysWaitInput, nil
		}
	}
	if payload == nil && p.mode == ModeLive {
		req, ok := p.proxy.Next()
		if !ok {
			return vm.SysWaitInput, nil
		}
		payload = req.Payload
		reqID = req.ID
		// The proxy's copy of the payload is never written again; the log
		// shares it.
		p.Log.Append(replay.Event{Kind: replay.EventRequest, RequestID: reqID, Data: payload})
	}

	n := uint32(len(payload))
	if n > capacity {
		n = capacity
	}
	data := payload[:n]
	if !m.Mem.WriteBytes(buf, data) {
		return vm.SysOK, &vm.Fault{Kind: vm.FaultPage, Addr: buf, IsWrite: true, Detail: "recv buffer unmapped"}
	}
	p.currentReqID = reqID
	m.Regs[vm.R0] = n
	// Charge a per-byte copy cost and tell taint trackers where the
	// untrusted bytes landed.
	m.AddCycles(uint64(n))
	m.NotifyInput(buf, data, reqID)
	return vm.SysOK, nil
}

func (p *Process) sysSend(m *vm.Machine) (vm.SyscallResult, *vm.Fault) {
	ptr := m.Regs[vm.R1]
	length := m.Regs[vm.R2]
	data, ok := m.Mem.ReadBytes(ptr, int(length))
	if !ok {
		return vm.SysOK, &vm.Fault{Kind: vm.FaultPage, Addr: ptr, Detail: "send buffer unmapped"}
	}
	m.AddCycles(uint64(length))
	if p.mode == ModeLive {
		p.outputs = append(p.outputs, OutputRecord{RequestID: p.currentReqID, Data: data})
		p.Log.Append(replay.Event{Kind: replay.EventOutput, RequestID: p.currentReqID, Data: data})
	} else {
		// Sandboxed replay: never reaches the client. Check the output-commit
		// condition against the logged original output.
		if logged, ok := p.Log.Next(replay.EventOutput); ok {
			if !bytes.Equal(logged.Data, data) {
				p.diverged = true
				p.divergence = fmt.Sprintf("request %d: replayed output differs from logged output", p.currentReqID)
			}
		}
	}
	m.Regs[vm.R0] = length
	return vm.SysOK, nil
}

func (p *Process) sysMalloc(m *vm.Machine) (vm.SyscallResult, *vm.Fault) {
	size := m.Regs[vm.R1]
	addr, err := p.Alloc.Malloc(size)
	if err != nil {
		if ce, ok := err.(*heap.CorruptionError); ok {
			return vm.SysOK, &vm.Fault{Kind: vm.FaultHeapCorruption, Addr: ce.Addr, Detail: ce.Detail}
		}
		// Out of memory: return NULL like a real malloc.
		m.Regs[vm.R0] = 0
		return vm.SysOK, nil
	}
	m.Regs[vm.R0] = addr
	m.NotifyMalloc(addr, size)
	return vm.SysOK, nil
}

func (p *Process) sysFree(m *vm.Machine) (vm.SyscallResult, *vm.Fault) {
	addr := m.Regs[vm.R1]
	m.NotifyFree(addr)
	if err := p.Alloc.Free(addr); err != nil {
		if ce, ok := err.(*heap.CorruptionError); ok {
			return vm.SysOK, &vm.Fault{Kind: vm.FaultHeapCorruption, Addr: ce.Addr, Detail: ce.Detail}
		}
		return vm.SysOK, &vm.Fault{Kind: vm.FaultHeapCorruption, Addr: addr, Detail: err.Error()}
	}
	m.Regs[vm.R0] = 0
	return vm.SysOK, nil
}

func (p *Process) sysTime(m *vm.Machine) (vm.SyscallResult, *vm.Fault) {
	if p.mode == ModeReplay {
		if e, ok := p.Log.Next(replay.EventTime); ok {
			m.Regs[vm.R0] = e.Value
			return vm.SysOK, nil
		}
	}
	now := uint32(m.NowMillis())
	m.Regs[vm.R0] = now
	p.Log.Append(replay.Event{Kind: replay.EventTime, Value: now})
	return vm.SysOK, nil
}

func (p *Process) sysRand(m *vm.Machine) (vm.SyscallResult, *vm.Fault) {
	if p.mode == ModeReplay {
		if e, ok := p.Log.Next(replay.EventRand); ok {
			m.Regs[vm.R0] = e.Value
			return vm.SysOK, nil
		}
	}
	// xorshift32
	x := p.rng
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	p.rng = x
	m.Regs[vm.R0] = x
	p.Log.Append(replay.Event{Kind: replay.EventRand, Value: x})
	return vm.SysOK, nil
}

func (p *Process) sysLog(m *vm.Machine) (vm.SyscallResult, *vm.Fault) {
	ptr := m.Regs[vm.R1]
	length := m.Regs[vm.R2]
	data, ok := m.Mem.ReadBytes(ptr, int(length))
	if !ok {
		return vm.SysOK, &vm.Fault{Kind: vm.FaultPage, Addr: ptr, Detail: "log buffer unmapped"}
	}
	p.logMessages = append(p.logMessages, LogMessage{RequestID: p.currentReqID, Text: string(data)})
	m.Regs[vm.R0] = length
	return vm.SysOK, nil
}

// --- snapshot / rollback ---

// Snapshot is a whole-process checkpoint: memory (copy-on-write), registers,
// allocator and RNG state, and the positions in the event log and output
// stream at the time of the checkpoint.
type Snapshot struct {
	SeqNo     int
	TakenAtMs uint64
	Mem       *vm.MemSnapshot
	Regs      vm.RegSnapshot
	Alloc     heap.State
	Rng       uint32
	// DirtyPages is how many pages this checkpoint actually touched — the
	// pages written since the previous checkpoint. CapturedBytes is how much
	// page data it captured: sub-page dirty runs are charged by run length,
	// whole-page captures by vm.PageSize. Steady-state checkpoints are
	// O(CapturedBytes), not O(Mem.Pages()).
	DirtyPages    int
	CapturedBytes int
	LogLen        int
	OutputCount   int
	ServedCount   int
	CurrentReqID  int
}

// checkpointBaseCycles is the fixed virtual cost of taking a checkpoint
// (register copy, allocator and log bookkeeping), independent of how much
// page data was captured. checkpointCyclesPerKiB converts captured bytes to
// virtual cycles (a full 4 KiB page costs 40 cycles, matching the per-page
// charge the byte accounting replaced).
const (
	checkpointBaseCycles   = 64
	checkpointCyclesPerKiB = 10
)

// Snapshot captures the current process state. It is cheap: memory pages are
// shared copy-on-write with the live process, and the memory snapshot is
// incremental and sub-page aware — it captures only the dirty byte runs
// written since the previous one (whole pages only where a run grew large).
func (p *Process) Snapshot(seq int) *Snapshot {
	// Read the dirty count before snapshotting: a no-op checkpoint (nothing
	// written since the previous one) reuses the previous memory snapshot and
	// must be charged as free, not as that snapshot's original delta.
	dirty := p.Machine.Mem.DirtyPages()
	mem := p.Machine.Mem.Snapshot()
	captured := mem.CapturedBytes()
	if dirty == 0 {
		// Reused (or deletion-only) snapshot: nothing was captured now, so
		// nothing is charged now — CapturedBytes of a reused snapshot reports
		// its original creation cost, which was already paid.
		captured = 0
	}
	s := &Snapshot{
		SeqNo:         seq,
		TakenAtMs:     p.Machine.NowMillis(),
		Mem:           mem,
		Regs:          p.Machine.SaveRegs(),
		Alloc:         p.Alloc.Save(),
		Rng:           p.rng,
		DirtyPages:    dirty,
		CapturedBytes: captured,
		LogLen:        p.Log.Len(),
		OutputCount:   p.OutputCount(),
		ServedCount:   p.servedCount,
		CurrentReqID:  p.currentReqID,
	}
	// Charge the cost of the checkpoint to the guest's virtual clock in
	// proportion to the bytes it captured (run copies plus COW freezing and
	// delta-table construction) — O(captured bytes), not O(all mapped pages)
	// — so Figure 4 style interval sweeps show the real trade-off of the
	// sub-page incremental design.
	p.Machine.AddCycles(uint64(captured)*checkpointCyclesPerKiB/1024 + checkpointBaseCycles)
	return s
}

// Clone derives an independent replay process from a checkpoint of this one.
// The clone shares memory pages copy-on-write with the snapshot (cheap fork)
// and consumes a private cursor over the shared event log, so several clones
// can re-execute the same attack window concurrently, each under its own
// analysis tool, without touching the live process, its proxy or each other.
//
// The clone starts in pure replay mode: once its event log view is exhausted
// it blocks at the next recv instead of falling through to live input. Its
// machine carries no tools or probes; callers attach what they need.
func (p *Process) Clone(s *Snapshot) (*Process, error) {
	log, err := p.replayLog(s)
	if err != nil {
		return nil, err
	}
	clone := &Process{
		Name:          p.Name,
		Log:           log,
		proxy:         netproxy.New(),
		mode:          ModeReplay,
		skip:          make(map[int]bool, len(p.skip)),
		excised:       make(map[int]bool, len(p.excised)),
		currentReqID:  s.CurrentReqID,
		servedCount:   s.ServedCount,
		rng:           s.Rng,
		syscallCycles: p.syscallCycles,
	}
	for id := range p.skip {
		clone.skip[id] = true
	}
	for id := range p.excised {
		clone.excised[id] = true
	}
	m, err := vm.NewMachine(p.Machine.Program(), p.Machine.Layout(), clone)
	if err != nil {
		return nil, fmt.Errorf("proc: cloning %s: %w", p.Name, err)
	}
	m.Mem.Restore(s.Mem)
	m.RestoreRegs(s.Regs)
	clone.Machine = m
	layout := p.Machine.Layout()
	clone.Alloc = heap.New(m.Mem, layout.HeapBase, layout.HeapSize)
	clone.Alloc.SetMmapThreshold(p.Alloc.MmapThreshold())
	clone.Alloc.Restore(s.Alloc)
	return clone, nil
}

// replayable returns an error when events that followed the snapshot have
// been discarded (it is older than every checkpoint still retained): a replay
// from it would skip them without a sign.
func (p *Process) replayable(s *Snapshot) error {
	if s.LogLen < p.Log.Base() {
		return fmt.Errorf("proc: %s: snapshot %d predates the retained history (log index %d, oldest retained %d)",
			p.Name, s.SeqNo, s.LogLen, p.Log.Base())
	}
	return nil
}

// replayLog returns a replay view of the event log positioned at the snapshot.
func (p *Process) replayLog(s *Snapshot) (*replay.Log, error) {
	if err := p.replayable(s); err != nil {
		return nil, err
	}
	return p.Log.CloneForReplay(s.LogLen), nil
}

// Rollback reinstates the process state captured in s and switches the
// process into the requested mode. After a rollback for analysis the event
// log's cursor points at the first event logged after the checkpoint, so the
// attack period replays deterministically.
func (p *Process) Rollback(s *Snapshot, mode Mode, replayThenLive bool) {
	if err := p.replayable(s); err != nil {
		panic(err) // only a caller that kept a snapshot past its eviction gets here
	}
	// The virtual clock measures elapsed time as observed by clients; it
	// keeps running across rollbacks (the work spent re-executing and
	// analysing is real time during which no requests complete).
	elapsed := p.Machine.Cycles()
	p.Machine.Mem.Restore(s.Mem)
	p.Machine.RestoreRegs(s.Regs)
	if elapsed > p.Machine.Cycles() {
		p.Machine.AddCycles(elapsed - p.Machine.Cycles())
	}
	p.Alloc.Restore(s.Alloc)
	p.rng = s.Rng
	p.Log.SetCursor(s.LogLen)
	// Attached monitors and VSEF probes shadow the execution (saved return
	// addresses, taint labels); their state from the abandoned execution must
	// not leak into the replay or it raises false violations.
	p.Machine.NotifyRollback()
	// Outputs already delivered to clients are history that rollback cannot
	// undo (the output-commit problem); the record of them is kept and
	// replayed sends are compared against the log instead of being re-sent.
	p.servedCount = s.ServedCount
	p.currentReqID = s.CurrentReqID
	p.diverged = false
	p.divergence = ""
	p.mode = mode
	p.replayThenLive = replayThenLive
	// Rollback is nearly a context switch; charge a small fixed cost.
	p.Machine.AddCycles(2000)
}

// RestorePersisted reinstates process state loaded from a persisted
// checkpoint: a memory snapshot rebuilt through the vm.BaseStore plus
// register, allocator and RNG state. Unlike Rollback, the destination is a
// freshly constructed process on a restarted daemon: the pre-crash event
// log is gone (outputs already delivered to clients are history the restart
// cannot replay), so the log cursor, served counters and request ID reset
// and the process serves live from the restored memory image. The virtual
// clock continues from the persisted cycle count — a warm restart does not
// rewind time any more than a rollback does.
func (p *Process) RestorePersisted(mem *vm.MemSnapshot, regs vm.RegSnapshot, alloc heap.State, rng uint32) {
	p.Machine.Mem.Restore(mem)
	p.Machine.RestoreRegs(regs)
	p.Alloc.Restore(alloc)
	p.rng = rng
	p.Log.SetCursor(0)
	// Probes attached before the restore shadowed the cold image; reset them
	// so stale state cannot raise false violations (same as Rollback).
	p.Machine.NotifyRollback()
	p.servedCount = 0
	p.currentReqID = 0
	p.diverged = false
	p.divergence = ""
	p.mode = ModeLive
	p.replayThenLive = false
}

// AdoptReplayState reinstates this process's state from a clone (derived via
// Clone from a checkpoint of this process) that has replayed a prefix of the
// shared history. It is a rollback whose destination is the clone's current
// state rather than a checkpoint: pipelined recovery replays the benign
// prefix on a clone concurrently with the analyses, then the live process
// adopts the finished state instead of re-executing the prefix serially. The
// clone must be quiescent (its Run returned) and is dead to further use once
// adopted. Like Rollback, the virtual clock never rewinds: the adopted cycle
// count is raised to the live clock when the clone's is behind, so clients
// still observe the elapsed detection-to-recovery gap.
func (p *Process) AdoptReplayState(c *Process, mode Mode, replayThenLive bool) {
	elapsed := p.Machine.Cycles()
	p.Machine.Mem.Restore(c.Machine.Mem.Snapshot())
	p.Machine.RestoreRegs(c.Machine.SaveRegs())
	if elapsed > p.Machine.Cycles() {
		p.Machine.AddCycles(elapsed - p.Machine.Cycles())
	}
	p.Alloc.Restore(c.Alloc.Save())
	p.rng = c.rng
	// The clone consumed a private cursor over the shared event backing;
	// continuing from its position resumes replay at the exact boundary where
	// the clone suspended. skip/excised stay the live process's own: the
	// excision decision was taken after the clone forked and must win.
	p.Log.SetCursor(c.Log.Cursor())
	// Monitors and probes attached here shadow the abandoned execution; their
	// state must not leak into the adopted one (same as Rollback).
	p.Machine.NotifyRollback()
	p.servedCount = c.servedCount
	p.currentReqID = c.currentReqID
	p.diverged = c.diverged
	p.divergence = c.divergence
	p.mode = mode
	p.replayThenLive = replayThenLive
	// Adoption costs the same context-switch constant as a rollback.
	p.Machine.AddCycles(2000)
}
