// Package slicing implements dynamic backward slicing: during replay it
// records, for every executed instruction, the dynamic instructions whose
// results it consumed (through registers, memory, condition flags and —
// optionally — control flow). A backward slice from the failure point is the
// set of instructions that influenced it; the paper uses it as a sanity check
// on the other analysis tools (anything they blame must be in the slice) and
// as the most thorough, most expensive analysis step.
//
// Most instructions are stored one node each, in CSR form. The libc byte
// loops, which the VM runs as kernels (vm.LoopHook), are stored one record
// per run: the dependences an iteration's instructions have on each other,
// on the loop's entry state and on the previous iteration are the same in
// every iteration, so a run keeps only what varies — the last writer of each
// byte its loadb read — and every reader expands its nodes on demand.
package slicing

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"sweeper/internal/vm"
)

// Options configure the slicer.
type Options struct {
	// IncludeControlDeps adds a dependence from every instruction to the most
	// recently executed branch, approximating control dependence (this is
	// what makes slices complete — and expensive).
	IncludeControlDeps bool
	// MaxNodes bounds the recorded execution to protect the host against
	// runaway replays; 0 means the default.
	MaxNodes int
}

// DefaultMaxNodes bounds the recorded dynamic instruction count.
const DefaultMaxNodes = 2_000_000

// Slabs and the visited bitmap are allocated chunkLen entries at a time.
const (
	chunkBits = 14
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// slab is an append-only sequence of int32 stored as fixed-size chunks.
// Growing it adds a chunk and copies nothing: a single slice grown by append
// is re-allocated ~30 times on the way to a few hundred thousand entries and
// moves about four times its final size through fresh large spans — garbage
// the collector then chases on the processors the recovered service needs.
// Its tail may be handed back (truncate); a chunk it held is kept for the
// next pushes.
type slab struct {
	chunks []*[chunkLen]int32
	tail   *[chunkLen]int32 // the chunk of entry n-1: push's, unless n starts a chunk
	n      int32
}

func (b *slab) push(v int32) {
	if b.n&chunkMask == 0 {
		c := int(b.n >> chunkBits)
		if c == len(b.chunks) {
			b.chunks = append(b.chunks, new([chunkLen]int32))
		}
		b.tail = b.chunks[c]
	}
	b.tail[b.n&chunkMask] = v
	b.n++
}

// truncate hands back the entries from n on.
func (b *slab) truncate(n int32) {
	b.n = n
	if n&chunkMask != 0 {
		b.tail = b.chunks[n>>chunkBits]
	}
}

func (b *slab) at(i int32) int32 { return b.chunks[i>>chunkBits][i&chunkMask] }

// span returns entries [from, to): in place when they share a chunk, else
// copied into buf.
func (b *slab) span(from, to int32, buf []int32) []int32 {
	if from == to {
		return buf
	}
	if from>>chunkBits == (to-1)>>chunkBits {
		c := b.chunks[from>>chunkBits]
		return c[from&chunkMask : from&chunkMask+(to-from)]
	}
	for i := from; i < to; i++ {
		buf = append(buf, b.at(i))
	}
	return buf
}

// shadowPage holds, for each byte of one guest page, seq+1 of the dynamic
// instruction that last wrote it; 0 means never written.
type shadowPage [vm.PageSize]int32

// The 2^(32-PageShift) guest pages are split evenly between the two levels
// of the last-writer shadow table.
const (
	shadowLeafBits = (32 - vm.PageShift) / 2
	shadowDirBits  = 32 - vm.PageShift - shadowLeafBits
)

// The locations with a last writer besides memory: the registers, then the
// condition flags and the most recently executed branch.
const (
	locFlags  = int(vm.NumRegs)
	locBranch = locFlags + 1
	numLocs   = locBranch + 1
	locSink   = numLocs // the last writer of nothing
)

// Slicer is the dynamic-slicing tool; attach it with vm.Machine.AttachTool
// before replaying from a checkpoint.
//
// Every dynamic instruction has a sequence number, and a node is either
// stored or part of a loop run. Stored nodes are kept in CSR form — the k-th
// stored node covers static instruction instrIdx[k] and depends on
// deps[depStart[k]:depStart[k+1]] — in pointer-free chunked slabs, so
// recording a replay of millions of nodes allocates one 64 KiB chunk per
// 16 Ki entries, copies nothing it has already recorded and leaves the
// collector a few dozen objects with nothing inside them to scan (this tool
// runs in the deferred tier, behind live traffic). A byte loop the VM runs
// as a kernel is one run record (see run and template): its k iterations
// cost one entry each in loads instead of about four per node. The last
// writer of every guest byte lives in a two-level table of lazily allocated
// shadow pages, the shape of the taint tracker's shadow: an access is two
// indexed loads and no address is ever hashed. Everything is dropped with
// the Slicer; nothing is pooled between attacks.
//
// A Slicer records one machine's execution: its loop templates are keyed by
// their heads' indexes in that machine's code.
type Slicer struct {
	opts  Options
	nodes int32 // dynamic instructions recorded, stored and in runs

	instrIdx slab // static instruction per stored node
	depStart slab // CSR row offsets into deps; n == instrIdx.n+1
	deps     slab // flattened dependence lists (sequence numbers)

	runs  []run      // loop runs, in sequence order
	loads slab       // per run iteration: its loadb's memory dependence, or -1
	tmpls []template // per loop head the VM has run as a kernel

	last [numLocs + 1]int32 // the last writer of each location, or -1

	shadow [1 << shadowDirBits]*[1 << shadowLeafBits]*shadowPage

	steps []step // per static instruction of the machine's code, once executed
	tmp   step   // an instruction from no machine's code
	sym   int32  // while deriving a template, the symbolic writer of memory; else 0

	truncated bool
}

// New returns an empty slicer.
func New(opts Options) *Slicer {
	if opts.MaxNodes == 0 {
		opts.MaxNodes = DefaultMaxNodes
	}
	s := &Slicer{opts: opts}
	s.depStart.push(0)
	for i := range s.last {
		s.last[i] = -1
	}
	return s
}

// Name implements vm.Tool.
func (s *Slicer) Name() string { return "analysis.slicing" }

// NodeCount returns the number of dynamic instructions recorded.
func (s *Slicer) NodeCount() int { return int(s.nodes) }

// Truncated reports whether recording stopped because MaxNodes was reached.
func (s *Slicer) Truncated() bool { return s.truncated }

func (s *Slicer) addDep(d int32) {
	if d >= 0 {
		s.deps.push(d)
	}
}

// page returns the shadow of guest page pn. Without create it returns nil
// for a page no recorded instruction has written.
func (s *Slicer) page(pn uint32, create bool) *shadowPage {
	leaf := s.shadow[pn>>shadowLeafBits]
	if leaf == nil {
		if !create {
			return nil
		}
		leaf = new([1 << shadowLeafBits]*shadowPage)
		s.shadow[pn>>shadowLeafBits] = leaf
	}
	p := leaf[pn&(1<<shadowLeafBits-1)]
	if p == nil {
		if !create {
			return nil
		}
		p = new(shadowPage)
		leaf[pn&(1<<shadowLeafBits-1)] = p
	}
	return p
}

// depMem adds a dependence on the last writer of each of the size bytes at
// addr, in address order.
func (s *Slicer) depMem(addr, size uint32) {
	if s.sym != 0 {
		s.addDep(s.sym)
		return
	}
	off := addr & (vm.PageSize - 1)
	if off+size > vm.PageSize {
		// Straddles a page, or wraps the address space: byte by byte.
		for i := uint32(0); i < size; i++ {
			s.depMem(addr+i, 1)
		}
		return
	}
	if p := s.page(addr>>vm.PageShift, false); p != nil {
		for _, w := range p[off : off+size] {
			s.addDep(w - 1) // 0, never written, becomes the -1 addDep skips
		}
	}
}

// writeMem makes seq the last writer of the size bytes at addr.
func (s *Slicer) writeMem(addr, size uint32, seq int32) {
	if s.sym != 0 {
		return
	}
	off := addr & (vm.PageSize - 1)
	if off+size > vm.PageSize {
		for i := uint32(0); i < size; i++ {
			s.writeMem(addr+i, 1, seq)
		}
		return
	}
	p := s.page(addr>>vm.PageShift, true)
	for i := off; i < off+size; i++ {
		p[i] = seq + 1
	}
}

// BeforeInstr implements vm.InstrHook: it records the dynamic instruction and
// its dependences. Effective addresses are computed from the pre-execution
// register state.
func (s *Slicer) BeforeInstr(m *vm.Machine, idx int, in *vm.Instr) {
	if int(s.nodes) >= s.opts.MaxNodes {
		s.truncated = true
		return
	}
	var st *step
	if uint(idx) < uint(len(s.steps)) && s.steps[idx].ok {
		st = &s.steps[idx]
	} else {
		st = s.step(m, idx, in) // idx's first execution
	}
	s.record(&m.Regs, st, s.nodes)
	s.instrIdx.push(int32(idx))
	s.depStart.push(s.deps.n)
	s.nodes++
}

// step is the recording rules for one static instruction, decoded from its
// opcode's vm.Effects: the locations whose last writers it depends on, in
// order (the last branch first when control dependences are recorded), its
// memory access, and the locations it writes.
type step struct {
	uses  [5]uint8 // right-aligned: the last nuse
	nuse  uint8
	defs  [2]uint8 // locSink where unused
	size  uint8    // of the memory access; 0 for none
	write bool
	base  vm.Reg
	disp  int32
	ok    bool // decoded
}

// step decodes in's rules and keeps them for index idx of m's code, which in
// is whenever a machine calls its hooks; an instruction from no machine's
// code is decoded into tmp at every call.
func (s *Slicer) step(m *vm.Machine, idx int, in *vm.Instr) *step {
	if s.steps == nil {
		s.steps = make([]step, len(m.Code()))
	}
	st := &s.tmp
	if uint(idx) < uint(len(s.steps)) {
		st = &s.steps[idx]
	}
	*st = s.decode(in)
	return st
}

// decode works in's step out of its opcode's effects. The registers its
// operands name are in range: the loader refuses code that names one past bp.
func (s *Slicer) decode(in *vm.Instr) step {
	e := in.Op.Effects()
	st := step{size: uint8(e.Mem.Size), write: e.Mem.Write, base: in.Reg(e.Mem.Base), disp: e.Mem.Disp(in), ok: true}
	var ub, db [8]uint8
	uses, defs := ub[:0], db[:0]
	if s.opts.IncludeControlDeps {
		uses = append(uses, uint8(locBranch))
	}
	for _, r := range e.Reads {
		// A call reads SP to push its return address, but the recording
		// rules have never made it depend on SP's last writer; the graph
		// keeps that shape.
		if r != vm.SP || in.Op != vm.OpCall && in.Op != vm.OpCallReg {
			uses = append(uses, uint8(in.Reg(r)))
		}
	}
	for _, r := range e.Writes {
		defs = append(defs, uint8(in.Reg(r)))
	}
	if e.ReadsFlags {
		uses = append(uses, uint8(locFlags))
	}
	if e.WritesFlags {
		defs = append(defs, uint8(locFlags))
	}
	if e.Branch {
		defs = append(defs, uint8(locBranch))
	}
	if len(uses) > len(st.uses) || len(defs) > len(st.defs) {
		panic(fmt.Sprintf("slicing: %v touches more locations than a step holds", in.Op))
	}
	st.nuse = uint8(copy(st.uses[len(st.uses)-len(uses):], uses))
	st.defs = [2]uint8{uint8(locSink), uint8(locSink)}
	copy(st.defs[:], defs)
	return st
}

// record is the recording rules: it pushes the dependences of the
// instruction st decodes, executed as node seq from registers regs, onto deps
// and makes seq the last writer of what it writes.
func (s *Slicer) record(regs *[vm.NumRegs]uint32, st *step, seq int32) {
	// One jump into straight-line code rather than a loop, whose exit, at a
	// different count from one instruction to the next, the branch
	// predictor missed often enough to slow recording by a tenth.
	u := &st.uses
	switch st.nuse {
	case 5:
		s.addDep(s.last[u[0]])
		fallthrough
	case 4:
		s.addDep(s.last[u[1]])
		fallthrough
	case 3:
		s.addDep(s.last[u[2]])
		fallthrough
	case 2:
		s.addDep(s.last[u[3]])
		fallthrough
	case 1:
		s.addDep(s.last[u[4]])
	}
	if st.size != 0 {
		addr := regs[st.base] + uint32(st.disp)
		if st.write {
			s.writeMem(addr, uint32(st.size), seq)
		} else {
			s.depMem(addr, uint32(st.size))
		}
	}
	s.last[st.defs[0]] = seq
	s.last[st.defs[1]] = seq
}

// A template is what the recording rules make of one iteration of a byte
// loop's span of n instructions, in terms of the run it is part of. Node j of
// iteration i of a run is sequence number first+i·n+j, covers static
// instruction head+j, and has the dependences of row j (iteration 0) or
// n+j (every later one): codes[rows[r]:rows[r+1]], each of which is
//
//	c >= 0:      node first+(i-1)·n+c — the same iteration or the previous one
//	codeLoad:    the last writer of the byte the loadb read, the run's loads[i]
//	-2-e:        the writer of location entries[e] when the run began
//
// where a negative writer is skipped, as addDep skips it. After the run,
// each location of exit[·].loc was last written by node exit[·].node of the
// last iteration, and a copy's storeb (node storeNode) is the last writer of
// the bytes it wrote. A template is derived once per Slicer and loop, by the
// same rules BeforeInstr records with (derive), under the slicer's own
// IncludeControlDeps.
type template struct {
	head, n int32
	inv     uint64 // ceil(2^64/n): a node's iteration is the high word of its offset times inv
	ok      bool   // derived; a loop whose span the rules do not fit runs per instruction
	entries []int
	codes   []int32
	rows    []int32
	exit    []struct{ loc, node int32 }
}

const codeLoad = -1

// storeNode is a copy's storeb in its span, after the head's loadb, as
// vm.ByteLoop describes it.
const storeNode = 1

// maxEntries bounds the entry writers a run keeps; a recognised loop reads
// at most three locations before it writes them (its source pointer, its
// second counter, destination or character, and the last branch).
const maxEntries = 4

// run is one kernel run of a byte loop: nodes [first, end) of template tmpl,
// the writers of its template's entry locations when it began, and where its
// iterations' memory dependences start in loads. skipped counts the nodes
// of every run up to this one, so a stored node after it and before the next
// run is stored node seq-skipped.
type run struct {
	first, end int32
	skipped    int32
	tmpl       int32
	loads      int32
	entry      [maxEntries]int32
}

// LoopBound implements vm.LoopHook. A run records nothing LoopRan cannot
// apply, so the bound is the iterations that fit in what MaxNodes leaves:
// none when not even one does, and the loop then runs one instruction at a
// time, so a recording is cut short at the same node as without kernels. It
// is also 0 for a loop whose span the recording rules do not fit (a template
// that cannot be derived).
func (s *Slicer) LoopBound(m *vm.Machine, l *vm.ByteLoop, most uint64) uint64 {
	t := s.template(m, l)
	room := int64(s.opts.MaxNodes) - int64(s.nodes)
	if t < 0 || room <= 0 {
		return 0
	}
	return min(most, uint64(room)/uint64(s.tmpls[t].n))
}

// LoopRan implements vm.LoopHook: it records the k iterations as one run.
// Iteration by iteration it keeps the last writer of the byte its loadb
// read and, in a copy, makes the iteration's storeb the last writer of the
// byte it wrote, so that an overlapping copy reads the run's own stores. It
// then leaves the last writers as the last iteration left them.
func (s *Slicer) LoopRan(m *vm.Machine, l *vm.ByteLoop, k uint64) {
	ti := s.template(m, l)
	t := &s.tmpls[ti]
	kn := int32(k) * t.n
	r := run{first: s.nodes, end: s.nodes + kn, skipped: kn, tmpl: int32(ti), loads: s.loads.n}
	if len(s.runs) > 0 {
		r.skipped += s.runs[len(s.runs)-1].skipped
	}
	for e, loc := range t.entries {
		r.entry[e] = s.last[loc]
	}
	store := r.first + storeNode + 1 // seq+1 of the next storeb, as the shadow holds it
	for src, dst := l.Src, l.Dst; k > 0; {
		so, do := src&(vm.PageSize-1), dst&(vm.PageSize-1)
		n := uint32(min(k, uint64(vm.PageSize-so)))
		var dp *shadowPage
		if l.Copy {
			n = min(n, vm.PageSize-do)
			dp = s.page(dst>>vm.PageShift, true)
		}
		sp := s.page(src>>vm.PageShift, false) // dp itself when they are one page
		for i := uint32(0); i < n; i++ {
			w := int32(0)
			if sp != nil {
				w = sp[so+i]
			}
			s.loads.push(w - 1)
			if dp != nil {
				dp[do+i] = store
				store += t.n
			}
		}
		src, dst, k = src+n, dst+n, k-uint64(n)
	}
	for _, x := range t.exit {
		s.last[x.loc] = r.end - t.n + x.node
	}
	s.runs = append(s.runs, r)
	s.nodes = r.end
}

// template returns the index in tmpls of l's loop's template, deriving it on
// the loop's first run, or -1 if the loop runs one instruction at a time.
func (s *Slicer) template(m *vm.Machine, l *vm.ByteLoop) int {
	i := 0
	for i < len(s.tmpls) && s.tmpls[i].head != int32(l.Load) {
		i++
	}
	if i == len(s.tmpls) {
		s.tmpls = append(s.tmpls, s.derive(m, l))
	}
	if !s.tmpls[i].ok {
		return -1
	}
	return i
}

// derive works out l's loop's template by running the recording rules
// (record) over two iterations of its span with symbolic writers: node u of
// the two iterations is sequence number u, the entry writer of location loc
// is 2n+loc, and a memory read adds 2n+numLocs (s.sym). Iteration 1's rows
// and last writers are then every later iteration's, shifted. The rows are
// pushed on the dependence slab's tail and handed back, and the real last
// writers are restored, so deriving allocates no graph storage. The span's
// memory accesses must be a loadb's at its head, a storeb's at a copy's
// Load+1 and none elsewhere, as vm.ByteLoop describes it.
func (s *Slicer) derive(m *vm.Machine, l *vm.ByteLoop) template {
	t := template{head: int32(l.Load), n: int32(l.N)}
	span := m.Code()[l.Load : l.Load+l.N]
	want := map[int]vm.MemAccess{0: vm.OpLoadB.Effects().Mem}
	if l.Copy {
		want[storeNode] = vm.OpStoreB.Effects().Mem
	}
	for j := range span {
		if span[j].Op.Effects().Mem != want[j] {
			return t
		}
	}
	n2 := 2 * t.n
	saved, base := s.last, s.deps.n
	defer func() { s.last, s.sym = saved, 0; s.deps.truncate(base) }()
	for loc := range numLocs {
		s.last[loc] = n2 + int32(loc)
	}
	s.sym = n2 + int32(numLocs)
	t.rows = append(make([]int32, 0, n2+1), 0)
	for u := int32(0); u < n2; u++ {
		j := int(u % t.n)
		from := s.deps.n
		s.record(&m.Regs, s.step(m, l.Load+j, &span[j]), u)
		for p := from; p < s.deps.n; p++ {
			c := s.deps.at(p)
			switch {
			case c == s.sym:
				c = codeLoad
			case c >= n2:
				e := 0
				for e < len(t.entries) && t.entries[e] != int(c-n2) {
					e++
				}
				if e == len(t.entries) {
					t.entries = append(t.entries, int(c-n2))
				}
				c = -2 - int32(e)
			case u < t.n:
				c += t.n // iteration 0's rows are read relative to iteration -1
			}
			t.codes = append(t.codes, c)
		}
		t.rows = append(t.rows, int32(len(t.codes)))
	}
	if len(t.entries) > maxEntries {
		return t
	}
	for loc, w := range s.last[:numLocs] {
		switch {
		case w >= n2: // never written in the loop
		case w < t.n:
			return t // written in the first iteration only
		default:
			t.exit = append(t.exit, struct{ loc, node int32 }{int32(loc), w - t.n})
		}
	}
	t.inv, t.ok = ^uint64(0)/uint64(t.n)+1, true
	return t
}

// cursor reads the graph node by node; every reader goes through it. It
// remembers the stretch of sequence numbers the last node it read lies in —
// one run, or the stored nodes between two runs — so that a search moving
// among neighbouring nodes finds where each is kept without a search.
type cursor struct {
	s      *Slicer
	lo, hi int32 // the stretch: [lo, hi)
	r      *run  // its run, or nil for stored nodes
	skip   int32 // for stored nodes: the run nodes before it
	buf    [8]int32
}

func (s *Slicer) cursor() *cursor { return &cursor{s: s} }

// find returns the run node seq is in and its offset there, or nil and the
// stored node seq is.
func (c *cursor) find(seq int32) (r *run, k int32) {
	if seq < c.lo || seq >= c.hi {
		runs := c.s.runs
		ri := sort.Search(len(runs), func(i int) bool { return runs[i].first > seq }) - 1
		c.lo, c.hi, c.r, c.skip = 0, math.MaxInt32, nil, 0
		if ri+1 < len(runs) {
			c.hi = runs[ri+1].first
		}
		if ri >= 0 {
			if r := &runs[ri]; seq < r.end {
				c.lo, c.hi, c.r = r.first, r.end, r
			} else {
				c.lo, c.skip = r.end, r.skipped
			}
		}
	}
	if c.r == nil {
		return nil, seq - c.skip
	}
	return c.r, seq - c.r.first
}

// iteration splits offset off of a run of t into its iteration and node.
func (t *template) iteration(off int32) (i, j int32) {
	hi, _ := bits.Mul64(uint64(off), t.inv)
	return int32(hi), off - int32(hi)*t.n
}

// instr returns node seq's static instruction.
func (c *cursor) instr(seq int32) int32 {
	r, k := c.find(seq)
	if r == nil {
		return c.s.instrIdx.at(k)
	}
	t := &c.s.tmpls[r.tmpl]
	_, j := t.iteration(k)
	return t.head + j
}

// node returns node seq's static instruction and its dependences, in the
// order BeforeInstr records them. The dependences are valid until the next
// call.
func (c *cursor) node(seq int32) (idx int32, deps []int32) {
	s := c.s
	r, k := c.find(seq)
	if r == nil {
		return s.instrIdx.at(k), s.deps.span(s.depStart.at(k), s.depStart.at(k+1), c.buf[:0])
	}
	t := &s.tmpls[r.tmpl]
	i, j := t.iteration(k)
	row := j
	if i > 0 {
		row += t.n
	}
	prev := r.first + (i-1)*t.n
	deps = c.buf[:0]
	for _, code := range t.codes[t.rows[row]:t.rows[row+1]] {
		d := prev + code
		switch {
		case code == codeLoad:
			d = s.loads.at(r.loads + i)
		case code < codeLoad:
			d = r.entry[-2-code]
		}
		if d >= 0 {
			deps = append(deps, d)
		}
	}
	return t.head + j, deps
}

// Slice is the result of a backward slice computation.
type Slice struct {
	// FromSeq is the dynamic instruction the slice was computed from.
	FromSeq int
	// NodeSeqs are the dynamic instructions in the slice.
	NodeSeqs []int
	// InstrSet is the set of static instruction indices covered by the slice.
	InstrSet map[int]bool
}

// Contains reports whether the static instruction idx is in the slice.
func (sl *Slice) Contains(idx int) bool { return sl.InstrSet[idx] }

// Instrs returns the sorted static instruction indices in the slice.
func (sl *Slice) Instrs() []int {
	out := make([]int, 0, len(sl.InstrSet))
	for idx := range sl.InstrSet {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

// Size returns the number of dynamic instructions in the slice.
func (sl *Slice) Size() int { return len(sl.NodeSeqs) }

// seqSet is a set of node sequence numbers: a bitmap allocated one chunk of
// nodes at a time, on first touch, so a search pays for the part of the graph
// it visits rather than for everything recorded.
type seqSet []*[chunkLen / 64]uint64

// add inserts seq and reports whether it was absent.
func (v seqSet) add(seq int32) bool {
	c := v[seq>>chunkBits]
	if c == nil {
		c = new([chunkLen / 64]uint64)
		v[seq>>chunkBits] = c
	}
	w, bit := &c[(seq&chunkMask)>>6], uint64(1)<<(seq&63)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// below returns the largest member of v that is at most seq, or -1.
func (v seqSet) below(seq int32) int32 {
	for seq >= 0 {
		c := v[seq>>chunkBits]
		if c == nil {
			seq = seq&^chunkMask - 1
			continue
		}
		// The bits of seq's word up to seq's own.
		if w := c[(seq&chunkMask)>>6] & (^uint64(0) >> (63 - seq&63)); w != 0 {
			return seq&^63 + int32(63-bits.LeadingZeros64(w))
		}
		seq = seq&^63 - 1
	}
	return -1
}

// instrSet is a set of static instruction indexes, a bitmap grown to the
// largest one added: a search that visits hundreds of thousands of nodes of
// a few thousand instructions asks it, not a map, whether it has seen one.
type instrSet []uint64

// add inserts idx and reports whether it was absent.
func (v *instrSet) add(idx int32) bool {
	w := int(idx >> 6)
	if w >= len(*v) {
		*v = append(*v, make([]uint64, w+1-len(*v))...)
	}
	bit := uint64(1) << (idx & 63)
	if (*v)[w]&bit != 0 {
		return false
	}
	(*v)[w] |= bit
	return true
}

// reach explores the dependence graph backward from the last node, breadth
// first. visit sees each node and its static instruction as it is dequeued,
// before its dependences are followed; returning false ends the search
// there. reach returns the number of nodes discovered (dequeued or still
// queued).
func (s *Slicer) reach(visit func(idx int32) bool) int {
	from := s.nodes - 1
	seen := make(seqSet, (s.nodes+chunkMask)>>chunkBits)
	seen.add(from)
	c := s.cursor()
	queue := []int32{from}
	for head := 0; head < len(queue); head++ {
		idx, deps := c.node(queue[head])
		if !visit(idx) {
			break
		}
		for _, d := range deps {
			if seen.add(d) {
				queue = append(queue, d)
			}
		}
	}
	return len(queue)
}

// BackwardSlice computes the backward slice from the dynamic instruction with
// the given sequence number.
//
// A node depends only on nodes recorded before it, so one pass down from
// fromSeq that follows each node of the slice as it passes it finds the
// whole slice. The pass reads the graph in the order it is kept, and run by
// run, so where each node is kept is found without a search.
func (s *Slicer) BackwardSlice(fromSeq int) (*Slice, error) {
	if fromSeq < 0 || fromSeq >= s.NodeCount() {
		return nil, fmt.Errorf("slicing: sequence %d out of range (have %d nodes)", fromSeq, s.NodeCount())
	}
	seen := make(seqSet, (s.nodes+chunkMask)>>chunkBits)
	seen.add(int32(fromSeq))
	c := s.cursor()
	var instrs instrSet
	sl := &Slice{FromSeq: fromSeq, InstrSet: make(map[int]bool)}
	n := 0
	for seq := int32(fromSeq); seq >= 0; seq = seen.below(seq - 1) {
		n++
		idx, deps := c.node(seq)
		if instrs.add(idx) {
			sl.InstrSet[int(idx)] = true
		}
		for _, d := range deps {
			seen.add(d)
		}
	}
	sl.NodeSeqs = make([]int, 0, n)
	for ch, words := range seen {
		if words == nil {
			continue
		}
		for w, word := range words {
			for ; word != 0; word &= word - 1 {
				sl.NodeSeqs = append(sl.NodeSeqs, ch<<chunkBits|w<<6|bits.TrailingZeros64(word))
			}
		}
	}
	return sl, nil
}

// BackwardSliceFromLast computes the backward slice from the most recently
// recorded dynamic instruction (normally the faulting one).
func (s *Slicer) BackwardSliceFromLast() (*Slice, error) {
	return s.BackwardSlice(s.NodeCount() - 1)
}

// LastSeqOf returns the sequence number of the most recent dynamic instance
// of the given static instruction, or -1.
func (s *Slicer) LastSeqOf(instrIdx int) int {
	c := s.cursor()
	for seq := s.nodes - 1; seq >= 0; seq-- {
		if int(c.instr(seq)) == instrIdx {
			return int(seq)
		}
	}
	return -1
}

// Verify checks whether every given static instruction is contained in the
// slice; it returns the ones that are not. The paper uses exactly this check:
// "if they identify an issue which is not in the slice, then they are
// incorrect".
func (sl *Slice) Verify(instrs ...int) (missing []int) {
	for _, idx := range instrs {
		if idx >= 0 && !sl.Contains(idx) {
			missing = append(missing, idx)
		}
	}
	return missing
}

// VerifyBackward answers the consistency cross-check without materialising
// the slice: it explores the dependence graph backward from the most recently
// recorded node (normally the faulting one) and reports which of the given
// static instructions were NOT reached. The search stops as soon as every
// instruction of interest has been found, so when the implicated instructions
// sit near the failure — the common case — only a fraction of the graph is
// visited and no slice node set is allocated. nodesExplored and
// instrsExplored count the dynamic and static instructions visited; on early
// exit they undercount the full slice by construction. Negative instruction
// indices are ignored, like Slice.Verify.
func (s *Slicer) VerifyBackward(instrs []int) (missing []int, nodesExplored, instrsExplored int) {
	want := make(map[int]bool)
	for _, idx := range instrs {
		if idx >= 0 {
			want[idx] = true
		}
	}
	remaining := len(want)
	var instrSeen instrSet
	switch {
	case s.nodes == 0:
	case remaining == 0:
		nodesExplored = 1 // the root is touched even with nothing to look for
	default:
		nodesExplored = s.reach(func(idx int32) bool {
			if instrSeen.add(idx) {
				instrsExplored++
				if want[int(idx)] {
					remaining--
				}
			}
			return remaining > 0
		})
	}
	for idx := range want {
		if idx>>6 >= len(instrSeen) || instrSeen[idx>>6]&(1<<(idx&63)) == 0 {
			missing = append(missing, idx)
		}
	}
	sort.Ints(missing)
	return missing, nodesExplored, instrsExplored
}
