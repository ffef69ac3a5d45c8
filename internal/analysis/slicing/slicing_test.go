package slicing_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"sweeper/internal/analysis"
	"sweeper/internal/analysis/slicing"
	"sweeper/internal/apps"
	"sweeper/internal/asm"
	"sweeper/internal/exploit"
	"sweeper/internal/monitor"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
	"sweeper/internal/vm/vmtest"
)

// runSliced runs a small standalone program under the slicer.
func runSliced(t *testing.T, opts slicing.Options, build func(b *asm.Builder)) (*slicing.Slicer, *vm.Machine) {
	t.Helper()
	b := asm.New("sliced")
	build(b)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.NewMachine(prog, vm.DefaultLayout(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sl := slicing.New(opts)
	m.AttachTool(sl)
	m.Run(100_000)
	return sl, m
}

func TestBackwardSliceDataDependences(t *testing.T) {
	// r1 = 3       (idx 0)  <- in slice
	// r2 = 4       (idx 1)  <- NOT in slice (never used by r3's chain)
	// r3 = r1      (idx 2)  <- in slice
	// r3 += r1     (idx 3)  <- in slice
	// r4 = r2      (idx 4)  <- not in slice
	// halt         (idx 5)
	sl, _ := runSliced(t, slicing.Options{}, func(b *asm.Builder) {
		b.Func("main")
		b.MovI(vm.R1, 3)
		b.MovI(vm.R2, 4)
		b.Mov(vm.R3, vm.R1)
		b.Add(vm.R3, vm.R1)
		b.Mov(vm.R4, vm.R2)
		b.Halt()
	})
	if sl.NodeCount() != 5 { // halt is recorded too? Halt stops before being recorded... it is recorded in BeforeInstr.
		// Both 5 and 6 are acceptable depending on whether halt is recorded;
		// assert at least the data instructions are present.
		if sl.NodeCount() < 5 {
			t.Fatalf("node count = %d", sl.NodeCount())
		}
	}
	seq := sl.LastSeqOf(3) // the add
	slice, err := sl.BackwardSlice(seq)
	if err != nil {
		t.Fatal(err)
	}
	if !slice.Contains(0) || !slice.Contains(2) || !slice.Contains(3) {
		t.Errorf("slice %v missing data dependences", slice.Instrs())
	}
	if slice.Contains(1) || slice.Contains(4) {
		t.Errorf("slice %v contains unrelated instructions", slice.Instrs())
	}
	if missing := slice.Verify(0, 2, 3); len(missing) != 0 {
		t.Errorf("Verify reported %v as missing", missing)
	}
	if missing := slice.Verify(1); len(missing) != 1 {
		t.Error("Verify should flag instruction 1 as outside the slice")
	}
}

func TestBackwardSliceThroughMemory(t *testing.T) {
	// The value flows through a store/load pair on the stack.
	sl, _ := runSliced(t, slicing.Options{}, func(b *asm.Builder) {
		b.Func("main")
		b.MovI(vm.R1, 42)   // 0: source
		b.Push(vm.R1)       // 1: store to stack
		b.MovI(vm.R1, 0)    // 2: clobber the register (not a dependence of the load)
		b.Pop(vm.R2)        // 3: load back
		b.Mov(vm.R3, vm.R2) // 4: sink
		b.Halt()
	})
	slice, err := sl.BackwardSlice(sl.LastSeqOf(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []int{0, 1, 3, 4} {
		if !slice.Contains(want) {
			t.Errorf("slice missing instruction %d: %v", want, slice.Instrs())
		}
	}
}

func TestControlDependenceCapturedWhenEnabled(t *testing.T) {
	build := func(b *asm.Builder) {
		b.Func("main")
		b.MovI(vm.R1, 0) // 0
		b.CmpI(vm.R1, 0) // 1
		b.Jnz("skip")    // 2
		b.MovI(vm.R2, 7) // 3: executed because the branch fell through
		b.Label("skip")
		b.Mov(vm.R3, vm.R2) // 4: sink
		b.Halt()
	}
	with, _ := runSliced(t, slicing.Options{IncludeControlDeps: true}, build)
	slice, err := with.BackwardSlice(with.LastSeqOf(4))
	if err != nil {
		t.Fatal(err)
	}
	if !slice.Contains(2) || !slice.Contains(1) {
		t.Errorf("control dependences missing from slice %v", slice.Instrs())
	}

	without, _ := runSliced(t, slicing.Options{IncludeControlDeps: false}, build)
	slice2, _ := without.BackwardSlice(without.LastSeqOf(4))
	if slice2.Contains(2) {
		t.Errorf("pure data slice should not include the branch: %v", slice2.Instrs())
	}
	if slice2.Size() > slice.Size() {
		t.Error("control-dependence slices must be at least as large as data slices")
	}
}

func TestSliceErrorsAndTruncation(t *testing.T) {
	sl, _ := runSliced(t, slicing.Options{MaxNodes: 3}, func(b *asm.Builder) {
		b.Func("main")
		for i := 0; i < 10; i++ {
			b.Nop()
		}
		b.Halt()
	})
	if !sl.Truncated() {
		t.Error("recording should have hit MaxNodes")
	}
	if sl.NodeCount() != 3 {
		t.Errorf("node count = %d, want 3", sl.NodeCount())
	}
	if _, err := sl.BackwardSlice(999); err == nil {
		t.Error("out-of-range slice should error")
	}
	if _, err := sl.BackwardSlice(-1); err == nil {
		t.Error("negative slice origin should error")
	}
	if sl.LastSeqOf(9999) != -1 {
		t.Error("LastSeqOf for never-executed instruction should be -1")
	}
}

// exploitedProcess serves one benign request, checkpoints, and runs the
// application's exploit to its fault (or halt): the state an analysis starts
// from. The checkpoint is the one the attack window replays from.
func exploitedProcess(t *testing.T, spec *apps.Spec) (*proc.Process, *proc.Snapshot) {
	t.Helper()
	return exploitedProcessAt(t, spec, vm.DefaultLayout())
}

// exploitedProcessAt is exploitedProcess at layout.
func exploitedProcessAt(t *testing.T, spec *apps.Spec, layout vm.Layout) (*proc.Process, *proc.Snapshot) {
	t.Helper()
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}
	proxy := netproxy.New()
	proxy.Submit(exploit.Benign(spec.Name, 0), "client", false)
	p, err := proc.New(spec.Name, spec.Image, layout, proxy, spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
		t.Fatal("warm-up failed")
	}
	snap := p.Snapshot(1)
	proxy.Submit(payload, "worm", true)
	if stop := p.Run(0); stop.Reason != vm.StopHalt && stop.Reason != vm.StopFault {
		t.Fatalf("exploit outcome unexpected: %v", stop.Reason)
	}
	return p, snap
}

// TestSliceVerifiesSweeperFindings mirrors the paper's use of slicing as a
// sanity check: for the apache1 exploit, the instructions blamed by the other
// tools (the overflowing store in lmatcher and the faulting return) must be
// inside the backward slice from the failure.
func TestSliceVerifiesSweeperFindings(t *testing.T) {
	spec := apps.Apache1()
	p, snap := exploitedProcess(t, spec)
	p.Rollback(snap, proc.ModeReplay, false)
	sl := slicing.New(slicing.Options{IncludeControlDeps: true})
	p.Machine.AttachTool(sl)
	p.Run(0)
	p.Machine.DetachTool(sl.Name())

	slice, err := sl.BackwardSliceFromLast()
	if err != nil {
		t.Fatal(err)
	}
	smashingStore := spec.Image.Symbols["lmatcher.store"]
	if missing := slice.Verify(smashingStore); len(missing) != 0 {
		t.Errorf("the overflowing store is not in the backward slice")
	}
	if slice.Size() == 0 || len(slice.Instrs()) == 0 {
		t.Error("empty slice")
	}
}

// refRecorder is the reference the graph-identity tests compare the Slicer
// against: the recorder it replaced, with one []int row per node and a map
// from byte address to last writer, and the searches over it written the
// obvious way.
type refRecorder struct {
	control, truncated bool
	max                int
	instr              []int
	rows               [][]int
	reg                [vm.NumRegs]int
	mem                map[uint32]int
	flags, branch      int
}

func newRef(opts slicing.Options) *refRecorder {
	r := &refRecorder{control: opts.IncludeControlDeps, max: opts.MaxNodes, mem: map[uint32]int{}, flags: -1, branch: -1}
	if r.max == 0 {
		r.max = slicing.DefaultMaxNodes
	}
	for i := range r.reg {
		r.reg[i] = -1
	}
	return r
}

func (r *refRecorder) Name() string { return "test.refslicer" }

func (r *refRecorder) BeforeInstr(m *vm.Machine, idx int, in *vm.Instr) {
	if len(r.instr) >= r.max {
		r.truncated = true
		return
	}
	seq, row := len(r.instr), []int(nil)
	dep := func(w int) {
		if w >= 0 {
			row = append(row, w)
		}
	}
	use := func(regs ...vm.Reg) {
		for _, x := range regs {
			if x < vm.NumRegs {
				dep(r.reg[x])
			}
		}
	}
	def := func(regs ...vm.Reg) {
		for _, x := range regs {
			if x < vm.NumRegs {
				r.reg[x] = seq
			}
		}
	}
	load := func(addr uint32, n int) {
		for i := 0; i < n; i++ {
			if w, ok := r.mem[addr+uint32(i)]; ok {
				dep(w)
			}
		}
	}
	store := func(addr uint32, n int) {
		for i := 0; i < n; i++ {
			r.mem[addr+uint32(i)] = seq
		}
	}
	width := 4 // of a load or store; unused by the other instructions
	if in.Op == vm.OpLoadB || in.Op == vm.OpStoreB {
		width = 1
	}
	sp := m.Regs[vm.SP]
	if r.control {
		dep(r.branch)
	}
	switch op := in.Op; {
	case op == vm.OpMovI:
		def(in.Rd)
	case op == vm.OpMov || op == vm.OpLea:
		use(in.Rs)
		def(in.Rd)
	case op == vm.OpLoadB || op == vm.OpLoadW:
		use(in.Rs)
		load(m.Regs[in.Rs]+uint32(in.Imm), width)
		def(in.Rd)
	case op == vm.OpStoreB || op == vm.OpStoreW:
		use(in.Rd, in.Rs)
		store(m.Regs[in.Rd]+uint32(in.Imm), width)
	case op >= vm.OpAdd && op <= vm.OpShr:
		use(in.Rd, in.Rs)
		def(in.Rd)
	case op >= vm.OpAddI && op <= vm.OpShrI:
		use(in.Rd)
		def(in.Rd)
	case op == vm.OpCmp:
		use(in.Rd, in.Rs)
		r.flags = seq
	case op == vm.OpCmpI:
		use(in.Rd)
		r.flags = seq
	case op == vm.OpJmp:
		r.branch = seq
	case op >= vm.OpJz && op <= vm.OpJge:
		dep(r.flags)
		r.branch = seq
	case op == vm.OpJmpReg:
		use(in.Rd)
		r.branch = seq
	case op == vm.OpCall || op == vm.OpCallReg:
		if op == vm.OpCallReg {
			use(in.Rd)
		}
		store(sp-4, 4)
		def(vm.SP)
		r.branch = seq
	case op == vm.OpRet:
		use(vm.SP)
		load(sp, 4)
		def(vm.SP)
		r.branch = seq
	case op == vm.OpPush || op == vm.OpPushI:
		if op == vm.OpPush {
			use(in.Rd)
		}
		use(vm.SP)
		store(sp-4, 4)
		def(vm.SP)
	case op == vm.OpPop:
		use(vm.SP)
		load(sp, 4)
		def(in.Rd, vm.SP)
	case op == vm.OpSyscall:
		use(vm.R0, vm.R1, vm.R2, vm.R3)
		def(vm.R0)
	}
	r.instr = append(r.instr, idx)
	r.rows = append(r.rows, row)
}

// backward is the breadth-first search both traversals are defined by: a
// []bool over every node and a FIFO, stopping once every wanted static
// instruction has been dequeued (never, when want is nil).
func (r *refRecorder) backward(from int, want map[int]bool) (visited []bool, discovered int, instrSeen map[int]bool) {
	visited, instrSeen = make([]bool, len(r.instr)), map[int]bool{}
	visited[from] = true
	queue, discovered, remaining := []int{from}, 1, len(want)
	for len(queue) > 0 && (want == nil || remaining > 0) {
		cur := queue[0]
		queue = queue[1:]
		if idx := r.instr[cur]; !instrSeen[idx] {
			instrSeen[idx] = true
			if want[idx] {
				if remaining--; remaining == 0 {
					break
				}
			}
		}
		for _, d := range r.rows[cur] {
			if !visited[d] {
				visited[d] = true
				discovered++
				queue = append(queue, d)
			}
		}
	}
	return visited, discovered, instrSeen
}

// requireSameGraph fails unless sl recorded exactly ref's graph and answers
// BackwardSlice and VerifyBackward as ref's searches do, from the last node,
// the first and a few drawn from rng, for a few sets of static instructions.
func requireSameGraph(t *testing.T, sl *slicing.Slicer, ref *refRecorder, rng *rand.Rand) {
	t.Helper()
	if sl.NodeCount() != len(ref.instr) || sl.Truncated() != ref.truncated {
		t.Fatalf("recorded %d nodes (truncated=%v), reference %d (%v)", sl.NodeCount(), sl.Truncated(), len(ref.instr), ref.truncated)
	}
	n := len(ref.instr)
	for seq := 0; seq < n; seq++ {
		idx, deps := sl.Row(seq)
		if idx != ref.instr[seq] || !reflect.DeepEqual(deps, ref.rows[seq]) {
			t.Fatalf("node %d: recorded @%d %v, reference @%d %v", seq, idx, deps, ref.instr[seq], ref.rows[seq])
		}
	}
	if n == 0 {
		return
	}
	for _, from := range []int{n - 1, 0, rng.Intn(n), rng.Intn(n), rng.Intn(n)} {
		slice, err := sl.BackwardSlice(from)
		if err != nil {
			t.Fatal(err)
		}
		visited, _, instrSeen := ref.backward(from, nil)
		var seqs []int
		for seq, in := range visited {
			if in {
				seqs = append(seqs, seq)
			}
		}
		if slice.FromSeq != from || !reflect.DeepEqual(slice.NodeSeqs, seqs) || !reflect.DeepEqual(slice.InstrSet, instrSeen) {
			t.Fatalf("BackwardSlice(%d): %d nodes / %d instructions, reference %d / %d", from, slice.Size(), len(slice.InstrSet), len(seqs), len(instrSeen))
		}
	}
	never := 1 << 20 // no program here has this many static instructions
	for _, focus := range [][]int{nil, {-1}, {ref.instr[n-1]}, {ref.instr[0]}, {ref.instr[rng.Intn(n)], ref.instr[rng.Intn(n)]}, {ref.instr[n/2], never}} {
		want := map[int]bool{}
		for _, idx := range focus {
			if idx >= 0 {
				want[idx] = true
			}
		}
		_, nodes, instrSeen := ref.backward(n-1, want)
		var missing []int
		for idx := range want {
			if !instrSeen[idx] {
				missing = append(missing, idx)
			}
		}
		sort.Ints(missing)
		gotMissing, gotNodes, gotInstrs := sl.VerifyBackward(focus)
		if !reflect.DeepEqual(gotMissing, missing) || gotNodes != nodes || gotInstrs != len(instrSeen) {
			t.Fatalf("VerifyBackward(%v) = %v, %d, %d; reference %v, %d, %d", focus, gotMissing, gotNodes, gotInstrs, missing, nodes, len(instrSeen))
		}
	}
}

// loopGuest returns a builder for a guest of byte loops the VM runs as
// kernels — NUL and character scans, with and without a second counter, and
// copies, now and then overlapping their source by a few bytes either way —
// over a buffer of letters and NULs that spans page boundaries, with stores
// of NULs and letters between the loops, so that loops read bytes the
// guest's own stores and copies wrote.
func loopGuest(r *rand.Rand) func(b *asm.Builder) {
	regs := []vm.Reg{vm.R0, vm.R1, vm.R2, vm.R3, vm.R4, vm.R5, vm.R7}
	buf := make([]byte, 2*vm.PageSize+512)
	for i := range buf {
		if r.Intn(40) == 0 {
			continue
		}
		buf[i] = byte('a' + r.Intn(26))
	}
	// Where loops start: the buffer's head, where they overwrite each other,
	// and just below each page boundary.
	at := func() int32 {
		if r.Intn(3) == 0 {
			return int32((1+r.Intn(2))*vm.PageSize - r.Intn(40))
		}
		return int32(r.Intn(300))
	}
	return func(b *asm.Builder) {
		b.DataBytes("buf", buf)
		b.Func("main")
		b.LoadDataAddr(vm.R6, "buf") // R6 anchors the stores between loops
		for l := 0; l < 3+r.Intn(6); l++ {
			perm := r.Perm(len(regs))
			x, p, q, c := regs[perm[0]], regs[perm[1]], regs[perm[2]], regs[perm[3]]
			for i := r.Intn(4); i > 0; i-- {
				b.MovI(x, []int32{0, 'q', 0}[r.Intn(3)])
				b.StoreB(vm.R6, at(), x)
			}
			src := at()
			b.LoadDataAddr(p, "buf")
			b.AddI(p, src)
			head, exit := fmt.Sprintf("main.l%d", l), fmt.Sprintf("main.l%d.exit", l)
			kind := r.Intn(4)
			switch kind {
			case 1:
				b.MovI(c, int32('a'+r.Intn(26)))
			case 2:
				dst := at()
				if r.Intn(2) == 0 {
					dst = src + int32(r.Intn(9)) - 6 // overlapping, mostly below
				}
				b.LoadDataAddr(q, "buf")
				b.AddI(q, dst)
			case 3:
				b.MovI(q, int32(r.Intn(100)))
			}
			b.Label(head)
			b.LoadB(x, p, 0)
			switch kind {
			case 1:
				b.Cmp(x, c)
				b.Jz(exit)
				b.CmpI(x, 0)
				b.Jz(exit)
				b.AddI(p, 1)
			case 2:
				b.StoreB(q, 0, x)
				b.CmpI(x, 0)
				b.Jz(exit)
				b.AddI(q, 1)
				b.AddI(p, 1)
			default:
				b.CmpI(x, 0)
				b.Jz(exit)
				b.AddI(p, 1)
				if kind == 3 {
					b.AddI(q, 1)
				}
			}
			b.Jmp(head)
			b.Label(exit)
		}
		b.Halt()
	}
}

// build assembles the guest build writes.
func build(t *testing.T, guest func(b *asm.Builder)) *vm.Program {
	t.Helper()
	b := asm.New("fuzz")
	guest(b)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// recordTwins runs prog for budget instructions on twin machines at the
// default layout: the Slicer alone on one, so that the VM runs the byte
// loops as kernels under it, and the reference on the other, which runs
// them one instruction at a time. It returns both recorders.
func recordTwins(t *testing.T, prog *vm.Program, opts slicing.Options, budget uint64) (*slicing.Slicer, *refRecorder) {
	t.Helper()
	sl, ref := slicing.New(opts), newRef(opts)
	var ms [2]*vm.Machine
	for i, tool := range []vm.Tool{sl, ref} {
		m, err := vm.NewMachine(prog, vm.DefaultLayout(), nil)
		if err != nil {
			t.Fatal(err)
		}
		m.AttachTool(tool)
		m.Run(budget)
		ms[i] = m
	}
	if ms[0].InstrCount() != ms[1].InstrCount() || ms[0].PC != ms[1].PC {
		t.Fatalf("the twins parted: %d instructions at %d, %d at %d", ms[0].InstrCount(), ms[0].PC, ms[1].InstrCount(), ms[1].PC)
	}
	return sl, ref
}

// TestGraphIdenticalToReferenceOnFuzzCorpus records the VM's differential
// fuzz guests on twin machines (see recordTwins).
func TestGraphIdenticalToReferenceOnFuzzCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(0x511ce))
	for trial := 0; trial < 48; trial++ {
		seed := rng.Int63()
		opts := slicing.Options{IncludeControlDeps: trial%2 == 0}
		if trial%8 == 7 {
			opts.MaxNodes = 50 + trial
		}
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			prog := build(t, vmtest.RandomGuest(r, 80))
			sl, ref := recordTwins(t, prog, opts, uint64(200+r.Intn(5000)))
			requireSameGraph(t, sl, ref, r)
		})
	}
}

// TestGraphIdenticalToReferenceOnLoopGuests records guests of byte loops
// (loopGuest) on twin machines (see recordTwins), and records every fourth
// again with a MaxNodes that falls inside one of its kernel runs, which
// must cut both recordings at the same node.
func TestGraphIdenticalToReferenceOnLoopGuests(t *testing.T) {
	rng := rand.New(rand.NewSource(0x100b5))
	retired := 0
	for trial := 0; trial < 24; trial++ {
		seed := rng.Int63()
		opts := slicing.Options{IncludeControlDeps: trial%2 == 0}
		cut := trial%4 == 3
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			prog := build(t, loopGuest(r))
			budget := uint64(800 + r.Intn(20000))
			sl, ref := recordTwins(t, prog, opts, budget)
			retired += inRuns(sl)
			requireSameGraph(t, sl, ref, r)
			runs := sl.Runs()
			if !cut || len(runs) == 0 {
				return
			}
			run := runs[r.Intn(len(runs))]
			opts.MaxNodes = run[0] + 1 + r.Intn(run[1]-run[0]-1) // after its first node, before its last
			sl, ref = recordTwins(t, prog, opts, budget)
			if !sl.Truncated() {
				t.Fatalf("MaxNodes %d inside the run %v did not cut the recording", opts.MaxNodes, run)
			}
			requireSameGraph(t, sl, ref, r)
		})
	}
	t.Logf("kernels retired %d instructions under the slicer", retired)
	if retired == 0 {
		t.Error("no kernel ran under the slicer")
	}
}

// inRuns counts the nodes sl recorded as loop runs: the instructions the
// kernels retired under it.
func inRuns(sl *slicing.Slicer) (n int) {
	for _, r := range sl.Runs() {
		n += r[1] - r[0]
	}
	return n
}

// replayTwins replays spec's exploit window at layout on twin processes: the
// Slicer alone on one, so that the VM runs the byte loops as kernels under
// it, and the reference on the other. It returns both recorders.
func replayTwins(t *testing.T, spec *apps.Spec, layout vm.Layout, opts slicing.Options) (*slicing.Slicer, *refRecorder) {
	t.Helper()
	sl, ref := slicing.New(opts), newRef(opts)
	var ps [2]*proc.Process
	for i, tool := range []vm.Tool{sl, ref} {
		p, snap := exploitedProcessAt(t, spec, layout)
		p.Rollback(snap, proc.ModeReplay, false)
		p.Machine.AttachTool(tool)
		p.Run(0)
		ps[i] = p
	}
	if ps[0].Machine.InstrCount() != ps[1].Machine.InstrCount() {
		t.Fatalf("the twins parted: %d instructions, %d", ps[0].Machine.InstrCount(), ps[1].Machine.InstrCount())
	}
	return sl, ref
}

// TestGraphIdenticalToReferenceOnExploits replays each application's exploit
// from its rollback checkpoint under both recorders, on twin processes (see
// replayTwins), at the default layout and at randomised ones: calls,
// returns, system calls, heap and stack traffic over several guest pages,
// byte loops run as kernels, and tens to hundreds of thousands of nodes
// across many chunks. A MaxNodes that falls inside a kernel run (its second
// iteration, or its first when it has one) cuts both recordings at the same
// node.
func TestGraphIdenticalToReferenceOnExploits(t *testing.T) {
	layouts := []vm.Layout{vm.DefaultLayout(), monitor.RandomizedLayout(11), monitor.RandomizedLayout(12)}
	if testing.Short() {
		layouts = layouts[:2]
	}
	for _, spec := range apps.All() {
		for _, control := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/control=%v", spec.Name, control), func(t *testing.T) {
				var runs [][3]int
				for i, layout := range layouts {
					sl, ref := replayTwins(t, spec, layout, slicing.Options{IncludeControlDeps: control})
					requireSameGraph(t, sl, ref, rand.New(rand.NewSource(int64(i))))
					t.Logf("layout %d: %d nodes, %d in %d loop runs", i, sl.NodeCount(), inRuns(sl), len(sl.Runs()))
					if inRuns(sl) == 0 {
						t.Fatalf("layout %d: no kernel ran under the slicer", i)
					}
					if i == 0 {
						runs = sl.Runs()
					}
				}
				// The longest run, and one from the middle of the replay.
				long := runs[0]
				for _, r := range runs {
					if r[1]-r[0] > long[1]-long[0] {
						long = r
					}
				}
				for _, r := range [][3]int{long, runs[len(runs)/2]} {
					cut := r[0] + 2
					if r[1]-r[0] > r[2] {
						cut += r[2]
					}
					sl, ref := replayTwins(t, spec, layouts[0], slicing.Options{IncludeControlDeps: control, MaxNodes: cut})
					if !sl.Truncated() {
						t.Fatalf("MaxNodes %d inside the run %v did not cut the recording", cut, r)
					}
					requireSameGraph(t, sl, ref, rand.New(rand.NewSource(int64(cut))))
				}
			})
		}
	}
}

// squidWindow returns squid's exploit window as the deferred tier replays it
// — one benign request served before the checkpoint, four after it, then the
// exploit — and the checkpoint to replay it from.
func squidWindow(tb testing.TB) (*proc.Process, *proc.Snapshot) {
	tb.Helper()
	spec := apps.Squid()
	ex, err := exploit.Exploit(spec)
	if err != nil {
		tb.Fatal(err)
	}
	in := netproxy.New()
	in.Submit(exploit.Benign(spec.Name, 0), "client", false)
	p, err := proc.New(spec.Name, spec.Image, vm.DefaultLayout(), in, spec.Options)
	if err != nil {
		tb.Fatal(err)
	}
	if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
		tb.Fatalf("benign request: %v", stop.Reason)
	}
	snap := p.Snapshot(1)
	for i := 1; i <= 4; i++ {
		in.Submit(exploit.Benign(spec.Name, i), "client", false)
	}
	in.Submit(ex, "worm", true)
	if stop := p.Run(0); stop.Reason != vm.StopFault {
		tb.Fatalf("the exploit stopped the guest with %v, want a fault", stop.Reason)
	}
	return p, snap
}

// recordSquidWindow replays the window under a slicer recording control
// dependences, as the deferred tier does, and checks that every one of its
// 304 060 dynamic instructions is recorded.
func recordSquidWindow(tb testing.TB, p *proc.Process, snap *proc.Snapshot) *slicing.Slicer {
	tb.Helper()
	p.Rollback(snap, proc.ModeReplay, false)
	sl := slicing.New(slicing.Options{IncludeControlDeps: true})
	p.Machine.AttachTool(sl)
	if stop := p.Run(0); stop.Reason != vm.StopFault {
		tb.Fatalf("the replay stopped with %v, want the fault", stop.Reason)
	}
	p.Machine.DetachTool(sl.Name())
	if sl.NodeCount() != 304060 || sl.Truncated() {
		tb.Fatalf("recorded %d nodes (truncated=%v), want 304060", sl.NodeCount(), sl.Truncated())
	}
	return sl
}

// TestSquidWindowFootprint pins the work the slicer stores for squid's
// exploit window (squidWindow) as a count, not a clock: every node is
// recorded, and the graph is stored in at most 730 000 int32 entries.
// Recording every node on its own, as the slicer did before it took the byte
// loops' kernel runs as run records, stored 1 212 682.
func TestSquidWindowFootprint(t *testing.T) {
	p, snap := squidWindow(t)
	sl := recordSquidWindow(t, p, snap)
	t.Logf("%d nodes recorded, %d in %d loop runs, stored in %d int32 entries", sl.NodeCount(), inRuns(sl), len(sl.Runs()), sl.Entries())
	if n := sl.Entries(); n > 730_000 {
		t.Errorf("the graph is stored in %d int32 entries, want at most 730000", n)
	}
}

// BenchmarkSquidWindowRecord times what TestSquidWindowFootprint counts: one
// replay of squid's exploit window under the slicer, per iteration.
func BenchmarkSquidWindowRecord(b *testing.B) {
	p, snap := squidWindow(b)
	b.ResetTimer()
	for range b.N {
		recordSquidWindow(b, p, snap)
	}
}

// feed presents one synthetic instruction to both recorders, as the VM would
// before executing it.
func feed(m *vm.Machine, sl *slicing.Slicer, ref *refRecorder, idx int, in vm.Instr) {
	sl.BeforeInstr(m, idx, &in)
	ref.BeforeInstr(m, idx, &in)
}

// TestChunkBoundaries places node counts and dependence rows on the chunk
// boundaries of the slabs.
func TestChunkBoundaries(t *testing.T) {
	const chunk = slicing.ChunkLen
	for _, tc := range []struct {
		name            string
		nodes, maxNodes int
	}{
		{"one short of a chunk", chunk - 1, 0},
		{"exactly one chunk", chunk, 0},
		{"exactly three chunks", 3 * chunk, 0},
		{"one past two chunks", 2*chunk + 1, 0},
		{"MaxNodes reached mid-chunk", 2 * chunk, chunk + chunk/3},
		{"MaxNodes on a chunk boundary", 2*chunk + 5, 2 * chunk},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := slicing.Options{IncludeControlDeps: true, MaxNodes: tc.maxNodes}
			sl, ref := slicing.New(opts), newRef(opts)
			m := new(vm.Machine)
			// Rows of three dependences (the branch and two registers): a
			// chunk is not a multiple of three entries, so rows straddle the
			// dependence slab's chunk boundaries, as asserted below.
			feed(m, sl, ref, 0, vm.Instr{Op: vm.OpJmp})
			feed(m, sl, ref, 1, vm.Instr{Op: vm.OpMovI, Rd: vm.R1})
			feed(m, sl, ref, 2, vm.Instr{Op: vm.OpMovI, Rd: vm.R2})
			for i := 3; i < tc.nodes; i++ {
				feed(m, sl, ref, 3+i%5, vm.Instr{Op: vm.OpAdd, Rd: vm.R1, Rs: vm.R2})
			}
			want := tc.nodes
			if tc.maxNodes != 0 {
				want = tc.maxNodes
			}
			if sl.NodeCount() != want || sl.Truncated() != (tc.maxNodes != 0) {
				t.Fatalf("recorded %d nodes (truncated=%v), want %d", sl.NodeCount(), sl.Truncated(), want)
			}
			straddles, start := 0, 0
			for _, row := range ref.rows {
				if end := start + len(row); start/chunk != (end-1)/chunk && len(row) > 0 {
					straddles++
				}
				start += len(row)
			}
			if want > chunk && straddles == 0 {
				t.Fatal("no dependence row straddles a chunk boundary: the case is not exercised")
			}
			requireSameGraph(t, sl, ref, rand.New(rand.NewSource(2)))
		})
	}
}

// TestMemoryShadowEdges drives the last-writer shadow across a guest page
// boundary and across the top of the address space.
func TestMemoryShadowEdges(t *testing.T) {
	sl, ref := slicing.New(slicing.Options{}), newRef(slicing.Options{})
	m := new(vm.Machine)
	at := func(addr uint32) { m.Regs[vm.R6] = addr }
	idx := 0
	// R6, the address of every access below, and R2, the value stored, are
	// never written: rows hold memory dependences only.
	do := func(op vm.Op, off int32) int {
		in := vm.Instr{Op: op, Rd: vm.R1, Rs: vm.R6, Imm: off}
		if op == vm.OpStoreB || op == vm.OpStoreW {
			in.Rd, in.Rs = vm.R6, vm.R2
		}
		feed(m, sl, ref, idx, in)
		idx++
		return idx - 1
	}
	rowOf := func(seq int) []int {
		_, deps := sl.Row(seq)
		return deps
	}

	// A word store over the last two bytes of one page and the first two of
	// the next, read back whole and by its halves.
	at(5*vm.PageSize - 2)
	store := do(vm.OpStoreW, 0)
	if got := rowOf(do(vm.OpLoadW, 0)); !reflect.DeepEqual(got, []int{store, store, store, store}) {
		t.Errorf("word load over the page boundary depends on %v, want four times node %d", got, store)
	}
	low := do(vm.OpStoreB, 1) // last byte of the lower page
	if got := rowOf(do(vm.OpLoadW, 0)); !reflect.DeepEqual(got, []int{store, low, store, store}) {
		t.Errorf("after overwriting one byte the word load depends on %v", got)
	}
	if got := rowOf(do(vm.OpLoadW, 2)); !reflect.DeepEqual(got, []int{store, store}) {
		t.Errorf("word load half past the store depends on %v, want twice node %d", got, store)
	}
	if got := rowOf(do(vm.OpLoadW, -4)); len(got) != 0 {
		t.Errorf("word load below the store depends on %v, want nothing", got)
	}

	// 0xFFFFFFFD: bytes FD, FE, FF of the last page, then byte 0 of page 0.
	at(0xFFFFFFFD)
	wrap := do(vm.OpStoreW, 0)
	if got := rowOf(do(vm.OpLoadW, 0)); !reflect.DeepEqual(got, []int{wrap, wrap, wrap, wrap}) {
		t.Errorf("word load across the address wrap depends on %v, want four times node %d", got, wrap)
	}
	at(0)
	if got := rowOf(do(vm.OpLoadB, 0)); !reflect.DeepEqual(got, []int{wrap}) {
		t.Errorf("byte 0 depends on %v, want node %d", got, wrap)
	}
	if got := rowOf(do(vm.OpLoadB, 1)); len(got) != 0 {
		t.Errorf("byte 1 depends on %v, want nothing", got)
	}
	// Push and pop with SP at the bottom of the address space wrap the same way.
	m.Regs[vm.SP] = 2
	feed(m, sl, ref, idx, vm.Instr{Op: vm.OpPushI})
	m.Regs[vm.SP] = 0xFFFFFFFE
	feed(m, sl, ref, idx+1, vm.Instr{Op: vm.OpPop, Rd: vm.R1})
	requireSameGraph(t, sl, ref, rand.New(rand.NewSource(3)))
}

// allocated runs f and returns the heap objects and bytes it allocated.
func allocated(f func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestRecordingNeverCopiesWhatItRecorded pins the property the chunked slabs
// exist for, so that a return to copying growth fails here and not in a
// profile: recording allocates a chunk per chunkful of entries and little
// else, and a check answered at the root allocates nothing in proportion to
// the recording.
func TestRecordingNeverCopiesWhatItRecorded(t *testing.T) {
	const nodes = 200_000
	m := new(vm.Machine)
	in := vm.Instr{Op: vm.OpAdd, Rd: vm.R1, Rs: vm.R2}
	var sl *slicing.Slicer
	objects, bytes := allocated(func() {
		sl = slicing.New(slicing.Options{})
		sl.BeforeInstr(m, 0, &vm.Instr{Op: vm.OpMovI, Rd: vm.R1})
		sl.BeforeInstr(m, 1, &vm.Instr{Op: vm.OpMovI, Rd: vm.R2})
		for i := 2; i < nodes; i++ {
			sl.BeforeInstr(m, 2+i%7, &in)
		}
	})
	if sl.NodeCount() != nodes {
		t.Fatalf("recorded %d nodes, want %d", sl.NodeCount(), nodes)
	}
	deps := 2 * (nodes - 2)
	chunks := func(entries int) int { return (entries + slicing.ChunkLen - 1) / slicing.ChunkLen }
	slabBytes := uint64(4 * (nodes + nodes + 1 + deps))
	// The constant covers the Slicer and the growth of three chunk indexes.
	if limit := uint64(chunks(nodes)+chunks(nodes+1)+chunks(deps)) + 40; objects > limit {
		t.Errorf("recording %d nodes allocated %d objects, want at most %d", nodes, objects, limit)
	}
	if limit := slabBytes + slabBytes*15/100; bytes > limit {
		t.Errorf("recording %d nodes allocated %d bytes for %d bytes of graph, want at most %d", nodes, bytes, slabBytes, limit)
	}

	root, _ := sl.Row(nodes - 1)
	var explored int
	_, bytes = allocated(func() { _, explored, _ = sl.VerifyBackward([]int{root}) })
	if explored != 1 {
		t.Fatalf("a check for the root's own instruction explored %d nodes, want 1", explored)
	}
	if bytes > 8<<10 {
		t.Errorf("a check answered at the root allocated %d bytes over %d nodes, want a few KB", bytes, nodes)
	}
}

// TestCutShortRecordingIsInconclusive: a replay that ends before the failure
// leaves an arbitrary instruction as the last node, and the analyzer must
// say so instead of returning a verdict about the slice from it.
func TestCutShortRecordingIsInconclusive(t *testing.T) {
	p, snap := exploitedProcess(t, apps.Squid())
	run := func(budget uint64) *slicing.Result {
		clone, err := p.Clone(snap)
		if err != nil {
			t.Fatal(err)
		}
		finding, err := slicing.Analyzer{}.Run(analysis.NewContext(), analysis.NewSandbox(clone, budget, nil))
		if err != nil {
			t.Fatal(err)
		}
		return finding.(*slicing.Result)
	}
	whole := run(0)
	if whole.Truncated || !whole.Consistent || whole.Nodes == 0 {
		t.Fatalf("unbounded replay: %+v", whole)
	}
	short := run(1000)
	if !short.Truncated || short.Consistent || short.Slice != nil || short.Nodes != 0 || short.Recorded != 1000 {
		t.Errorf("replay cut short at 1000 instructions: %+v", short)
	}
	if sum := short.Summary(); !strings.Contains(sum, "INCONCLUSIVE") || !strings.Contains(sum, "1000") || !strings.Contains(sum, "budget") {
		t.Errorf("summary does not say what was cut short, where and why: %q", sum)
	}
}
