// Package slicing implements dynamic backward slicing: during replay it
// records, for every executed instruction, the dynamic instructions whose
// results it consumed (through registers, memory, condition flags and —
// optionally — control flow). A backward slice from the failure point is the
// set of instructions that influenced it; the paper uses it as a sanity check
// on the other analysis tools (anything they blame must be in the slice) and
// as the most thorough, most expensive analysis step.
package slicing

import (
	"fmt"
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
type slab struct {
	chunks []*[chunkLen]int32
	n      int32
}

func (b *slab) push(v int32) {
	off := b.n & chunkMask
	if off == 0 {
		b.chunks = append(b.chunks, new([chunkLen]int32))
	}
	b.chunks[len(b.chunks)-1][off] = v
	b.n++
}

func (b *slab) at(i int32) int32 { return b.chunks[i>>chunkBits][i&chunkMask] }

// shadowPage holds, for each byte of one guest page, seq+1 of the dynamic
// instruction that last wrote it; 0 means never written.
type shadowPage [vm.PageSize]int32

// The 2^(32-PageShift) guest pages are split evenly between the two levels
// of the last-writer shadow table.
const (
	shadowLeafBits = (32 - vm.PageShift) / 2
	shadowDirBits  = 32 - vm.PageShift - shadowLeafBits
)

// Slicer is the dynamic-slicing tool; attach it with vm.Machine.AttachTool
// before replaying from a checkpoint.
//
// The dependence graph is stored in CSR form — node seq i covers static
// instruction instrIdx[i] and depends on deps[depStart[i]:depStart[i+1]] —
// in three pointer-free chunked slabs, so recording a replay of millions of
// nodes allocates one 64 KiB chunk per 16 Ki entries, copies nothing it has
// already recorded and leaves the collector a few dozen objects with nothing
// inside them to scan (this tool runs in the deferred tier, behind live
// traffic). The last writer of every guest byte lives in a two-level table of
// lazily allocated shadow pages, the shape of the taint tracker's shadow: an
// access is two indexed loads and no address is ever hashed. Everything is
// dropped with the Slicer; nothing is pooled between attacks.
type Slicer struct {
	opts Options

	instrIdx slab // static instruction per node, indexed by seq
	depStart slab // CSR row offsets into deps; n == instrIdx.n+1
	deps     slab // flattened dependence lists (sequence numbers)

	lastRegWriter   [vm.NumRegs]int32
	lastFlagsWriter int32
	lastBranch      int32

	shadow [1 << shadowDirBits]*[1 << shadowLeafBits]*shadowPage

	truncated bool
}

// New returns an empty slicer.
func New(opts Options) *Slicer {
	if opts.MaxNodes == 0 {
		opts.MaxNodes = DefaultMaxNodes
	}
	s := &Slicer{
		opts:            opts,
		lastFlagsWriter: -1,
		lastBranch:      -1,
	}
	s.depStart.push(0)
	for i := range s.lastRegWriter {
		s.lastRegWriter[i] = -1
	}
	return s
}

// Name implements vm.Tool.
func (s *Slicer) Name() string { return "analysis.slicing" }

// NodeCount returns the number of dynamic instructions recorded.
func (s *Slicer) NodeCount() int { return int(s.instrIdx.n) }

// Truncated reports whether recording stopped because MaxNodes was reached.
func (s *Slicer) Truncated() bool { return s.truncated }

// row returns the bounds of node i's dependence row in deps.
func (s *Slicer) row(i int32) (from, to int32) {
	return s.depStart.at(i), s.depStart.at(i + 1)
}

func (s *Slicer) addDep(d int32) {
	if d >= 0 {
		s.deps.push(d)
	}
}

func (s *Slicer) depReg(r vm.Reg) {
	if r < vm.NumRegs {
		s.addDep(s.lastRegWriter[r])
	}
}

func (s *Slicer) writeReg(r vm.Reg, seq int32) {
	if r < vm.NumRegs {
		s.lastRegWriter[r] = seq
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
	if int(s.instrIdx.n) >= s.opts.MaxNodes {
		s.truncated = true
		return
	}
	seq := s.instrIdx.n

	if s.opts.IncludeControlDeps {
		s.addDep(s.lastBranch)
	}

	switch in.Op {
	case vm.OpNop, vm.OpHalt:

	case vm.OpMovI:
		s.writeReg(in.Rd, seq)
	case vm.OpMov, vm.OpLea:
		s.depReg(in.Rs)
		s.writeReg(in.Rd, seq)

	case vm.OpLoadB, vm.OpLoadW:
		size := uint32(4)
		if in.Op == vm.OpLoadB {
			size = 1
		}
		s.depReg(in.Rs)
		s.depMem(m.Regs[in.Rs]+uint32(in.Imm), size)
		s.writeReg(in.Rd, seq)

	case vm.OpStoreB, vm.OpStoreW:
		size := uint32(4)
		if in.Op == vm.OpStoreB {
			size = 1
		}
		s.depReg(in.Rd)
		s.depReg(in.Rs)
		s.writeMem(m.Regs[in.Rd]+uint32(in.Imm), size, seq)

	case vm.OpAdd, vm.OpSub, vm.OpMul, vm.OpDiv, vm.OpMod, vm.OpAnd, vm.OpOr, vm.OpXor, vm.OpShl, vm.OpShr:
		s.depReg(in.Rd)
		s.depReg(in.Rs)
		s.writeReg(in.Rd, seq)
	case vm.OpAddI, vm.OpSubI, vm.OpMulI, vm.OpDivI, vm.OpModI, vm.OpAndI, vm.OpOrI, vm.OpXorI, vm.OpShlI, vm.OpShrI:
		s.depReg(in.Rd)
		s.writeReg(in.Rd, seq)

	case vm.OpCmp:
		s.depReg(in.Rd)
		s.depReg(in.Rs)
		s.lastFlagsWriter = seq
	case vm.OpCmpI:
		s.depReg(in.Rd)
		s.lastFlagsWriter = seq

	case vm.OpJmp:
		s.lastBranch = seq
	case vm.OpJz, vm.OpJnz, vm.OpJlt, vm.OpJle, vm.OpJgt, vm.OpJge:
		s.addDep(s.lastFlagsWriter)
		s.lastBranch = seq
	case vm.OpJmpReg:
		s.depReg(in.Rd)
		s.lastBranch = seq

	case vm.OpCall:
		s.writeMem(m.Regs[vm.SP]-4, 4, seq)
		s.writeReg(vm.SP, seq)
		s.lastBranch = seq
	case vm.OpCallReg:
		s.depReg(in.Rd)
		s.writeMem(m.Regs[vm.SP]-4, 4, seq)
		s.writeReg(vm.SP, seq)
		s.lastBranch = seq
	case vm.OpRet:
		s.depReg(vm.SP)
		s.depMem(m.Regs[vm.SP], 4)
		s.writeReg(vm.SP, seq)
		s.lastBranch = seq

	case vm.OpPush:
		s.depReg(in.Rd)
		s.depReg(vm.SP)
		s.writeMem(m.Regs[vm.SP]-4, 4, seq)
		s.writeReg(vm.SP, seq)
	case vm.OpPushI:
		s.depReg(vm.SP)
		s.writeMem(m.Regs[vm.SP]-4, 4, seq)
		s.writeReg(vm.SP, seq)
	case vm.OpPop:
		s.depReg(vm.SP)
		s.depMem(m.Regs[vm.SP], 4)
		s.writeReg(in.Rd, seq)
		s.writeReg(vm.SP, seq)

	case vm.OpSyscall:
		// Syscalls read the argument registers and write R0; their memory
		// effects (recv buffers) are treated as fresh definitions by the
		// InputHook path of other tools, so here only register flow is kept.
		s.depReg(vm.R0)
		s.depReg(vm.R1)
		s.depReg(vm.R2)
		s.depReg(vm.R3)
		s.writeReg(vm.R0, seq)
	}

	s.instrIdx.push(int32(idx))
	s.depStart.push(s.deps.n)
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

// reach explores the dependence graph backward from node from, breadth
// first. visit, if non-nil, sees each node as it is dequeued, before its
// dependences are followed; returning false ends the search there. reach
// returns the nodes discovered (dequeued or still queued) and their count.
func (s *Slicer) reach(from int32, visit func(seq int32) bool) (seen seqSet, n int) {
	seen = make(seqSet, len(s.instrIdx.chunks))
	seen.add(from)
	queue := []int32{from}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		if visit != nil && !visit(cur) {
			break
		}
		for j, end := s.row(cur); j < end; j++ {
			if d := s.deps.at(j); seen.add(d) {
				queue = append(queue, d)
			}
		}
	}
	return seen, len(queue)
}

// BackwardSlice computes the backward slice from the dynamic instruction with
// the given sequence number.
func (s *Slicer) BackwardSlice(fromSeq int) (*Slice, error) {
	if fromSeq < 0 || fromSeq >= s.NodeCount() {
		return nil, fmt.Errorf("slicing: sequence %d out of range (have %d nodes)", fromSeq, s.NodeCount())
	}
	seen, n := s.reach(int32(fromSeq), nil)

	// Ascending iteration keeps NodeSeqs sorted without a separate sort pass.
	sl := &Slice{FromSeq: fromSeq, NodeSeqs: make([]int, 0, n), InstrSet: make(map[int]bool)}
	for c, words := range seen {
		if words == nil {
			continue
		}
		for w, word := range words {
			for ; word != 0; word &= word - 1 {
				seq := int32(c<<chunkBits | w<<6 | bits.TrailingZeros64(word))
				sl.NodeSeqs = append(sl.NodeSeqs, int(seq))
				sl.InstrSet[int(s.instrIdx.at(seq))] = true
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
	for i := s.instrIdx.n - 1; i >= 0; i-- {
		if int(s.instrIdx.at(i)) == instrIdx {
			return int(i)
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
	instrSeen := make(map[int]bool)
	switch {
	case s.instrIdx.n == 0:
	case remaining == 0:
		nodesExplored = 1 // the root is touched even with nothing to look for
	default:
		_, nodesExplored = s.reach(s.instrIdx.n-1, func(seq int32) bool {
			idx := int(s.instrIdx.at(seq))
			if !instrSeen[idx] {
				instrSeen[idx] = true
				if want[idx] {
					remaining--
				}
			}
			return remaining > 0
		})
	}
	for idx := range want {
		if !instrSeen[idx] {
			missing = append(missing, idx)
		}
	}
	sort.Ints(missing)
	return missing, nodesExplored, len(instrSeen)
}
