package vm

import (
	"bytes"
	"fmt"
	"maps"
	"sort"
	"sync"
)

// PageSize is the granularity of guest memory mapping and of copy-on-write
// checkpointing.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// maxSnapChainDepth bounds how many incremental snapshot deltas may chain
// before a snapshot is flattened eagerly. The cap keeps Restore/Fork of an
// arbitrary snapshot O(mapped pages) instead of O(history), and bounds the
// memory retained by the delta chain; amortised over the chain, flattening
// adds O(mapped/maxSnapChainDepth) work per snapshot.
const maxSnapChainDepth = 32

// patchMaxRunBytes is the largest dirty run Snapshot() captures as a sub-page
// patch. A page whose run grew beyond it (a sequential writer filling the
// page) is frozen whole instead — zero copy at snapshot time, one full-page
// COW clone on the next write — which is exactly the pre-sub-page behaviour,
// so bulk-writing guests cannot regress.
const patchMaxRunBytes = PageSize / 2

// maxPageRuns is how many disjoint dirty runs a page tracks per epoch before
// new writes start merging into the nearest existing run. A single watermark
// regressed to whole-page capture for alternating-end writers (a guest
// touching both a page's header and trailer each request blows one [lo,hi)
// span past patchMaxRunBytes); a small fixed list keeps those guests sub-page
// while bounding the per-write tracking cost.
const maxPageRuns = 3

// byteRun is one dirty byte span [lo, hi) within a page.
type byteRun struct {
	lo, hi uint16
}

// page is one 4 KiB guest page. owner identifies the Memory that may write
// the page in place; a nil owner marks the page frozen — captured by a
// snapshot (or adopted from one), shared copy-on-write, and never written in
// place again by anyone.
//
// Owned pages additionally carry up to maxPageRuns dirty runs: the disjoint
// byte spans written since the last snapshot epoch (nruns == 0 means clean).
// Snapshot() uses them to capture only the runs — sub-page patches chained to
// the parent snapshot's version of the page — instead of freezing the whole
// page, when the page's epoch-start content is reconstructible from the
// parent chain (inParent). The run fields are only ever touched while the
// page is owned; frozen pages are immutable, as before.
type page struct {
	owner    *Memory
	nruns    uint8
	inParent bool
	// hashed/hash cache the page's content hash once frozen (see
	// PageRef.Hash; guarded by pageHashMu, never set on owned pages).
	hashed bool
	hash   [32]byte
	runs   [maxPageRuns]byteRun
	data   [PageSize]byte
}

func (p *page) clone(owner *Memory) *page {
	// A page cloned from a frozen page existed, with exactly this content, in
	// the snapshot chain the freeze belongs to: its future dirty runs can be
	// captured as patches against that parent version.
	np := &page{owner: owner, inParent: true}
	np.data = p.data
	return np
}

// markRun records the write [off, end) in the page's dirty-run list. The
// single-run overlap case — a guest hammering one spot or streaming
// sequentially, by far the hottest pattern — is handled here inline (two
// compares, like the old single-watermark scheme, and no coalescing since
// there is nothing to merge with); everything else goes to markRunSlow.
func (p *page) markRun(off, end uint16) {
	if p.nruns == 1 {
		r := &p.runs[0]
		if off <= r.hi && end >= r.lo {
			if off < r.lo {
				r.lo = off
			}
			if end > r.hi {
				r.hi = end
			}
			return
		}
	}
	p.markRunSlow(off, end)
}

// markRunSlow is the multi-run path: extend the run the write overlaps or
// touches, start a new run while slots are free, and once the list is full
// merge into the run whose extension captures the fewest extra bytes.
func (p *page) markRunSlow(off, end uint16) {
	n := int(p.nruns)
	for i := 0; i < n; i++ {
		r := &p.runs[i]
		if off <= r.hi && end >= r.lo {
			if off < r.lo {
				r.lo = off
			}
			if end > r.hi {
				r.hi = end
			}
			p.coalesceRuns(i)
			return
		}
	}
	if n < maxPageRuns {
		p.runs[n] = byteRun{lo: off, hi: end}
		p.nruns++
		return
	}
	// All slots taken and the write is disjoint from every run: absorb it
	// into the run that grows least, trading a few captured gap bytes for the
	// bounded list.
	best, bestCost := 0, PageSize+1
	for i := 0; i < n; i++ {
		r := p.runs[i]
		cost := 0
		if off < r.lo {
			cost = int(r.lo) - int(off)
		} else {
			cost = int(end) - int(r.hi)
		}
		if cost < bestCost {
			best, bestCost = i, cost
		}
	}
	r := &p.runs[best]
	if off < r.lo {
		r.lo = off
	}
	if end > r.hi {
		r.hi = end
	}
	p.coalesceRuns(best)
}

// coalesceRuns merges any run that the just-extended run i now overlaps or
// touches, keeping the list disjoint. With at most three runs a single pass
// restarted on merge is cheap and simple.
func (p *page) coalesceRuns(i int) {
	for {
		merged := false
		ri := &p.runs[i]
		for j := int(p.nruns) - 1; j >= 0; j-- {
			if j == i {
				continue
			}
			rj := p.runs[j]
			if rj.lo > ri.hi || rj.hi < ri.lo {
				continue
			}
			if rj.lo < ri.lo {
				ri.lo = rj.lo
			}
			if rj.hi > ri.hi {
				ri.hi = rj.hi
			}
			// Remove run j by swapping the last run into its slot.
			last := int(p.nruns) - 1
			p.runs[j] = p.runs[last]
			p.nruns--
			if i == last {
				i = j
				ri = &p.runs[i]
			}
			merged = true
			break
		}
		if !merged {
			return
		}
	}
}

// Memory is a sparse, paged, byte-addressable 32-bit guest address space with
// generation-tagged dirty tracking and copy-on-write snapshot support. Page
// zero is never mapped, so NULL pointer dereferences fault.
//
// Snapshots are incremental and sub-page aware: Snapshot() captures only the
// pages written, mapped or unmapped since the previous snapshot (the dirty
// set), chaining the delta to that previous snapshot — and a page whose
// writes stayed within a small byte run is captured as a run patch rather
// than a whole page. Steady-state checkpoints are therefore O(dirty bytes),
// not O(all mapped pages).
type Memory struct {
	// pages is the live page table. It may be shared read-only with the
	// snapshot it was restored from (pagesShared); any structural mutation
	// (mapping, unmapping, COW-cloning an entry) first takes a private copy.
	pages       map[uint32]*page
	pagesShared bool

	// dirty holds the pages written or mapped since the last snapshot; dels
	// holds the pages unmapped since the last snapshot. A page captured as a
	// sub-page patch stays owned by this Memory across the snapshot (its
	// watermark resets), so owned pages are a superset of the dirty set.
	dirty map[uint32]struct{}
	dels  map[uint32]struct{}

	// owned counts the pages in the table owned by this Memory; the rest are
	// frozen, i.e. shared copy-on-write with snapshots.
	owned int

	// lastSnap is the snapshot the dirty/dels sets are relative to.
	lastSnap *MemSnapshot

	// One-entry translation caches for the interpreter hot path: the last
	// page resolved for a read (rtlb) and the last page resolved writable
	// (wtlb), keyed by page number. A wtlb hit carries the writablePage
	// invariants with it — the page is owned, watermarked and in the dirty
	// set — so a hot write skips the owner check, the dirty-set insert and
	// the page-table lookup, leaving only the watermark update and the store.
	// Snapshot/Restore/Unmap invalidate (see invalidateTLB); the COW clone in
	// writablePage redirects rtlb so reads never see a stale frozen page.
	rtlb   *page
	wtlb   *page
	rtlbPN uint32
	wtlbPN uint32
}

// tlbMissPN is the page-number value carried by an empty TLB entry. No guest
// address can reach it (addr>>PageShift is at most 1<<(32-PageShift) - 1), so
// a PN compare alone decides a hit and the dispatch-loop fast paths
// (blocks_tooled.go) need no nil check. Invariant: whenever rtlb/wtlb is nil
// the matching PN is tlbMissPN.
const tlbMissPN = ^uint32(0)

// invalidateTLB drops the one-entry translation caches. Any operation that
// freezes pages, resets dirty-run watermarks, or replaces page-table entries
// wholesale must call it: a stale wtlb entry would let writes bypass
// copy-on-write and dirty tracking.
func (m *Memory) invalidateTLB() {
	m.rtlb, m.wtlb = nil, nil
	m.rtlbPN, m.wtlbPN = tlbMissPN, tlbMissPN
}

// NewMemory returns an empty address space with no pages mapped.
func NewMemory() *Memory {
	return &Memory{
		pages:  make(map[uint32]*page),
		dirty:  make(map[uint32]struct{}),
		dels:   make(map[uint32]struct{}),
		rtlbPN: tlbMissPN,
		wtlbPN: tlbMissPN,
	}
}

// MemSnapshot is a copy-on-write snapshot of a Memory: an immutable delta
// (the pages dirtied since the previous snapshot) chained to that previous
// snapshot. It shares pages with the live memory until the live side writes
// to them.
//
// Page sharing is goroutine-safe by construction: every page captured by a
// snapshot is frozen (owner nil) before the snapshot is handed out, and a
// frozen page is never written in place — every Memory holding one clones it
// privately before writing. Concurrent Forks/Restores of one snapshot and
// concurrent execution of the resulting Memories — each confined to its own
// goroutine — therefore only ever read the shared pages. As with any shared
// value, handing a snapshot to another goroutine must itself synchronise
// (channel send, WaitGroup, goroutine start).
type MemSnapshot struct {
	delta map[uint32]*page
	// patch holds the sub-page captures: for each page, only the dirty byte
	// run written this epoch, applied over the parent chain's version of the
	// page when the snapshot is flattened. A page appears in delta or patch,
	// never both; the run bytes of all patches share one backing buffer, so
	// a steady-state checkpoint allocates O(1) regardless of how many pages
	// it patches.
	patch    []patchRun
	patched  int // distinct pages in patch (a page may contribute several runs)
	dels     []uint32
	count    int // total mapped pages at snapshot time
	captured int // bytes of page data captured (runs + PageSize per full page)
	depth    int // chain length at creation

	// mu guards flat and parent: flatten memoises the full page table and
	// drops the parent link. Deltas, patches and dels are immutable after
	// creation.
	mu     sync.Mutex
	parent *MemSnapshot
	flat   map[uint32]*page // memoised full page table (see flatten)
}

// patchRun is one sub-page capture: the bytes of a page's dirty run, copied
// out at snapshot time. The rest of the page is the parent snapshot's
// version, reconstructed lazily by flatten.
type patchRun struct {
	pn   uint32
	off  uint16
	data []byte
}

// Pages returns the number of pages mapped at the time of the snapshot.
func (s *MemSnapshot) Pages() int { return s.count }

// DeltaPages returns the number of pages the snapshot had to capture —
// whole (frozen) or as a sub-page patch — i.e. the pages dirtied since the
// previous snapshot.
func (s *MemSnapshot) DeltaPages() int { return len(s.delta) + s.patched }

// CapturedBytes returns how many bytes of page data the snapshot captured:
// the dirty-run length for pages captured as sub-page patches, a full
// PageSize for pages frozen whole. The checkpoint cost charged to the
// guest's virtual clock is proportional to this, not to Pages().
func (s *MemSnapshot) CapturedBytes() int { return s.captured }

// flatten materialises (and memoises) the snapshot's full page table by
// walking its delta chain down to the nearest already-flattened ancestor and
// applying the collected deltas oldest-first into one fresh map — the
// intermediate ancestors are read, not themselves materialised, so one
// flatten costs O(mapped + chained deltas) total, no matter the depth.
// Afterwards the parent link is dropped so ancestors evicted from checkpoint
// rings become collectable. Safe for concurrent use; a concurrent flatten of
// an ancestor is benign (its deltas are immutable, and either its memoised
// table or its chain yields the same pages).
func (s *MemSnapshot) flatten() map[uint32]*page {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.flat != nil {
		return s.flat
	}
	chain := []*MemSnapshot{s}
	var base map[uint32]*page
	for cur := s.parent; cur != nil; {
		cur.mu.Lock()
		flat, parent := cur.flat, cur.parent
		cur.mu.Unlock()
		if flat != nil {
			base = flat
			break
		}
		chain = append(chain, cur)
		cur = parent
	}
	flat := make(map[uint32]*page, s.count)
	for pn, p := range base {
		flat[pn] = p
	}
	// built holds the pages this walk has itself reconstructed. Nothing else
	// can reach them before s.flat is published, so a later link's patch to
	// the same page goes into the page in place: a hot page costs one copy
	// per flatten, not one per link of the chain.
	var built map[uint32]*page
	for i := len(chain) - 1; i >= 0; i-- {
		c := chain[i]
		for _, pn := range c.dels {
			delete(flat, pn)
		}
		for pn, p := range c.delta {
			flat[pn] = p
		}
		for _, pr := range c.patch {
			// Reconstruct the full page lazily: the parent chain's version
			// (what flat holds at this point of the walk) with the captured
			// dirty run applied on top. The result is frozen and private to
			// this flatten, so it is safe to share from here on.
			np := flat[pr.pn]
			if np == nil || built[pr.pn] != np {
				prev := np
				np = &page{}
				if prev != nil {
					np.data = prev.data
				}
				if built == nil {
					built = make(map[uint32]*page)
				}
				built[pr.pn] = np
				flat[pr.pn] = np
			}
			copy(np.data[pr.off:], pr.data)
		}
	}
	s.flat = flat
	s.parent = nil
	return flat
}

func pageNum(addr uint32) uint32  { return addr >> PageShift }
func pageOff(addr uint32) uint32  { return addr & (PageSize - 1) }
func pageBase(addr uint32) uint32 { return addr &^ (PageSize - 1) }

// ownPages takes a private copy of the page table if it is still shared with
// the snapshot it was restored from. Called before any structural mutation.
func (m *Memory) ownPages() {
	if m.pagesShared {
		m.pages = maps.Clone(m.pages)
		m.pagesShared = false
	}
}

// MapRegion maps (and zeroes) all pages covering [base, base+size). Mapping an
// already-mapped page leaves its contents intact.
func (m *Memory) MapRegion(base, size uint32) {
	if size == 0 {
		return
	}
	first := pageNum(base)
	last := pageNum(base + size - 1)
	for pn := first; ; pn++ {
		if _, ok := m.pages[pn]; !ok {
			m.ownPages()
			// A freshly mapped page has no version in the parent chain (even
			// if an older snapshot held one before an unmap, its content was
			// different), so it is never patch-captured: inParent stays false
			// and the next snapshot freezes it whole.
			m.pages[pn] = &page{owner: m}
			m.owned++
			m.dirty[pn] = struct{}{}
			delete(m.dels, pn)
		}
		if pn == last {
			break
		}
	}
}

// UnmapRegion removes all pages fully covered by [base, base+size).
func (m *Memory) UnmapRegion(base, size uint32) {
	if size == 0 {
		return
	}
	m.invalidateTLB()
	first := pageNum(base)
	last := pageNum(base + size - 1)
	for pn := first; ; pn++ {
		if p, ok := m.pages[pn]; ok {
			m.ownPages()
			if p.owner == m {
				m.owned--
			}
			delete(m.pages, pn)
			delete(m.dirty, pn)
			m.dels[pn] = struct{}{}
		}
		if pn == last {
			break
		}
	}
}

// IsMapped reports whether the page containing addr is mapped.
func (m *Memory) IsMapped(addr uint32) bool {
	_, ok := m.pages[pageNum(addr)]
	return ok
}

// MappedPages returns the number of mapped pages.
func (m *Memory) MappedPages() int { return len(m.pages) }

// DirtyPages returns the number of pages written or newly mapped since the
// last snapshot — the work the next Snapshot() will have to do, and the page
// count the checkpoint manager charges to the guest's virtual clock.
func (m *Memory) DirtyPages() int { return len(m.dirty) }

// MappedPageBases returns the base addresses of all mapped pages in ascending
// order. It is used by analysis tools that walk memory (heap walkers, core
// dump analysis).
func (m *Memory) MappedPageBases() []uint32 {
	out := make([]uint32, 0, len(m.pages))
	for pn := range m.pages {
		out = append(out, pn<<PageShift)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *Memory) pageFor(addr uint32) (*page, bool) {
	p, ok := m.pages[pageNum(addr)]
	if ok {
		m.rtlb, m.rtlbPN = p, pageNum(addr)
	}
	return p, ok
}

// writablePage returns the page for addr, cloning it first if it is frozen
// (shared with a snapshot or adopted from one: copy-on-write), and extends
// the page's dirty-run watermark to cover the n bytes about to be written at
// addr. n must not run past the end of the page; bulk writers split at page
// boundaries before calling.
func (m *Memory) writablePage(addr, n uint32) (*page, bool) {
	pn := pageNum(addr)
	p, ok := m.pages[pn]
	if !ok {
		return nil, false
	}
	if p.owner != m {
		m.ownPages()
		p = p.clone(m)
		m.pages[pn] = p
		m.owned++
		m.dirty[pn] = struct{}{}
		if m.rtlbPN == pn {
			// Reads must see the clone, not the frozen original.
			m.rtlb = p
		}
	} else if p.nruns == 0 {
		// An owned page surviving from a previous epoch (it was captured as a
		// sub-page patch): its first write of the new epoch re-enters the
		// dirty set.
		m.dirty[pn] = struct{}{}
	}
	off := uint16(pageOff(addr))
	p.markRun(off, off+uint16(n))
	// The page now satisfies every wtlb invariant: owned, watermarked
	// (markRun ran with n >= 1) and in the dirty set.
	m.wtlb, m.wtlbPN = p, pn
	return p, true
}

// ReadU8 reads one byte. ok is false if the page is unmapped.
func (m *Memory) ReadU8(addr uint32) (byte, bool) {
	if p := m.rtlb; p != nil && pageNum(addr) == m.rtlbPN {
		return p.data[pageOff(addr)], true
	}
	p, ok := m.pageFor(addr)
	if !ok {
		return 0, false
	}
	return p.data[pageOff(addr)], true
}

// WriteU8 writes one byte. ok is false if the page is unmapped.
func (m *Memory) WriteU8(addr uint32, v byte) bool {
	if p := m.wtlb; p != nil && pageNum(addr) == m.wtlbPN {
		off := uint16(pageOff(addr))
		// Hand-inlined markRun single-run case: the interpreter's store hot
		// path must not pay a call per byte (markRun exceeds the inline
		// budget), and a wtlb hit almost always extends run 0.
		if r := &p.runs[0]; p.nruns == 1 && off <= r.hi && off+1 >= r.lo {
			if off < r.lo {
				r.lo = off
			}
			if off+1 > r.hi {
				r.hi = off + 1
			}
		} else {
			p.markRun(off, off+1)
		}
		p.data[off] = v
		return true
	}
	p, ok := m.writablePage(addr, 1)
	if !ok {
		return false
	}
	p.data[pageOff(addr)] = v
	return true
}

// ReadWord reads a 32-bit little-endian word, possibly spanning pages.
func (m *Memory) ReadWord(addr uint32) (uint32, bool) {
	off := pageOff(addr)
	if off <= PageSize-4 {
		p := m.rtlb
		if p == nil || pageNum(addr) != m.rtlbPN {
			var ok bool
			p, ok = m.pageFor(addr)
			if !ok {
				return 0, false
			}
		}
		d := p.data[off : off+4]
		return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24, true
	}
	var v uint32
	for i := uint32(0); i < 4; i++ {
		b, ok := m.ReadU8(addr + i)
		if !ok {
			return 0, false
		}
		v |= uint32(b) << (8 * i)
	}
	return v, true
}

// WriteWord writes a 32-bit little-endian word, possibly spanning pages.
func (m *Memory) WriteWord(addr uint32, v uint32) bool {
	off := pageOff(addr)
	if off <= PageSize-4 {
		p := m.wtlb
		if p != nil && pageNum(addr) == m.wtlbPN {
			o := uint16(off)
			// Hand-inlined markRun single-run case; see WriteU8.
			if r := &p.runs[0]; p.nruns == 1 && o <= r.hi && o+4 >= r.lo {
				if o < r.lo {
					r.lo = o
				}
				if o+4 > r.hi {
					r.hi = o + 4
				}
			} else {
				p.markRun(o, o+4)
			}
		} else {
			var ok bool
			p, ok = m.writablePage(addr, 4)
			if !ok {
				return false
			}
		}
		p.data[off] = byte(v)
		p.data[off+1] = byte(v >> 8)
		p.data[off+2] = byte(v >> 16)
		p.data[off+3] = byte(v >> 24)
		return true
	}
	for i := uint32(0); i < 4; i++ {
		if !m.WriteU8(addr+i, byte(v>>(8*i))) {
			return false
		}
	}
	return true
}

// ReadBytes copies n bytes starting at addr into a new slice. It walks whole
// page runs — one page lookup and one copy per page — rather than reading
// byte-at-a-time, which is what makes bulk guest I/O (send buffers, core
// images) cheap.
func (m *Memory) ReadBytes(addr uint32, n int) ([]byte, bool) {
	out := make([]byte, n)
	for off := 0; off < n; {
		p, ok := m.pageFor(addr)
		if !ok {
			return nil, false
		}
		copied := copy(out[off:], p.data[pageOff(addr):])
		off += copied
		addr += uint32(copied)
	}
	return out, true
}

// WriteBytes copies data into guest memory starting at addr, one page-sized
// copy at a time. Like the byte-at-a-time path it replaces, a write that runs
// into an unmapped page fails after the preceding pages were modified.
func (m *Memory) WriteBytes(addr uint32, data []byte) bool {
	for off := 0; off < len(data); {
		n := PageSize - int(pageOff(addr))
		if rem := len(data) - off; n > rem {
			n = rem
		}
		p, ok := m.writablePage(addr, uint32(n))
		if !ok {
			return false
		}
		copy(p.data[pageOff(addr):], data[off:off+n])
		off += n
		addr += uint32(n)
	}
	return true
}

// ReadCString reads a NUL-terminated string starting at addr, up to max
// bytes, scanning one page run at a time.
func (m *Memory) ReadCString(addr uint32, max int) (string, bool) {
	var out []byte
	for max > 0 {
		p, ok := m.pageFor(addr)
		if !ok {
			return "", false
		}
		chunk := p.data[pageOff(addr):]
		if len(chunk) > max {
			chunk = chunk[:max]
		}
		if i := bytes.IndexByte(chunk, 0); i >= 0 {
			return string(append(out, chunk[:i]...)), true
		}
		out = append(out, chunk...)
		max -= len(chunk)
		addr += uint32(len(chunk))
	}
	return string(out), true
}

// Snapshot captures the current memory contents copy-on-write. The snapshot
// stays valid until discarded; the live memory clones pages lazily on its
// next write to each captured page.
//
// Snapshot is incremental and sub-page aware: it captures only the pages
// dirtied since the previous snapshot, and a page whose dirty run is small
// (and whose epoch-start content the parent chain can reconstruct) is
// captured as a byte-run patch — the run is copied out and the live page
// stays writable, so a guest scattering small writes pays neither a full
// page of capture per touched page nor a 4 KiB COW clone on its next write.
// Pages dirtied beyond patchMaxRunBytes (or with no parent version) are
// frozen whole, as before. The first snapshot of a Memory (everything dirty)
// is equivalent to a full scan.
func (m *Memory) Snapshot() *MemSnapshot {
	m.invalidateTLB()
	if len(m.dirty) == 0 && len(m.dels) == 0 && m.lastSnap != nil {
		// Nothing changed since the previous snapshot; the snapshots are
		// indistinguishable, so a quiet guest checkpoints for free.
		return m.lastSnap
	}
	// First pass: decide per dirty page between a sub-page patch and a
	// whole-page freeze (freezing as it goes), and size the patch containers.
	// Everything is allocated lazily: a steady-state checkpoint usually
	// produces only patches, and its delta map would sit empty forever. A
	// patched page may carry several runs, so the patchRun entries themselves
	// are built in the second pass once the run count is known.
	type patchPage struct {
		pn uint32
		p  *page
	}
	var delta map[uint32]*page
	var patchPages []patchPage
	captured := 0
	runBytes := 0
	patchedRuns := 0
	for pn := range m.dirty {
		p := m.pages[pn]
		if p.inParent && p.nruns != 0 {
			runLen := 0
			for i := 0; i < int(p.nruns); i++ {
				runLen += int(p.runs[i].hi) - int(p.runs[i].lo)
			}
			if runLen <= patchMaxRunBytes {
				if patchPages == nil {
					patchPages = make([]patchPage, 0, len(m.dirty))
				}
				patchPages = append(patchPages, patchPage{pn: pn, p: p})
				patchedRuns += int(p.nruns)
				runBytes += runLen
				captured += runLen
				continue
			}
		}
		p.nruns = 0
		p.owner = nil // freeze: all future writes copy
		m.owned--
		if delta == nil {
			delta = make(map[uint32]*page, len(m.dirty))
		}
		delta[pn] = p
		captured += PageSize
	}
	// Second pass: copy every patched run into one backing buffer, so a
	// steady-state checkpoint allocates O(1) however many pages it patches.
	// The live pages stay owned and writable; their content now equals this
	// snapshot's version, so the next epoch's runs patch against this
	// snapshot in turn.
	var patch []patchRun
	if len(patchPages) > 0 {
		patch = make([]patchRun, 0, patchedRuns)
		backing := make([]byte, runBytes)
		used := 0
		for _, pp := range patchPages {
			p := pp.p
			for i := 0; i < int(p.nruns); i++ {
				r := p.runs[i]
				n := copy(backing[used:], p.data[r.lo:r.hi])
				patch = append(patch, patchRun{pn: pp.pn, off: r.lo, data: backing[used : used+n : used+n]})
				used += n
			}
			p.nruns = 0
		}
	}
	var dels []uint32
	for pn := range m.dels {
		dels = append(dels, pn)
	}
	snap := &MemSnapshot{parent: m.lastSnap, delta: delta, patch: patch, patched: len(patchPages), dels: dels, count: len(m.pages), captured: captured}
	if snap.parent == nil {
		if len(dels) == 0 && len(patch) == 0 {
			snap.flat = delta // a chain root is its own page table
		}
	} else {
		snap.depth = snap.parent.depth + 1
		if snap.depth >= maxSnapChainDepth {
			snap.flatten()
			snap.depth = 0
		}
	}
	m.resetDirtyTracking(snap)
	return snap
}

// SnapshotFull captures the current memory contents by scanning every mapped
// page, ignoring dirty tracking — the pre-incremental behaviour. It produces
// a self-contained (chain-free) snapshot observationally identical to
// Snapshot()'s. It is kept as the reference implementation for differential
// tests and as the baseline the snapshot micro-benchmarks compare against.
func (m *Memory) SnapshotFull() *MemSnapshot {
	m.invalidateTLB()
	pages := make(map[uint32]*page, len(m.pages))
	for pn, p := range m.pages {
		if p.owner == m {
			// Freeze only privately-owned pages: already-frozen pages may be
			// shared with concurrently-running forks, and even a redundant
			// owner write would race their reads.
			p.nruns = 0
			p.owner = nil
		}
		pages[pn] = p
	}
	m.owned = 0
	snap := &MemSnapshot{delta: pages, count: len(pages), captured: len(pages) * PageSize}
	snap.flat = pages
	m.resetDirtyTracking(snap)
	return snap
}

// resetDirtyTracking starts a fresh dirty epoch relative to snap. Small sets
// are cleared in place (no allocation per steady-state snapshot); a set that
// grew large is replaced, because clearing a map walks its whole grown
// bucket array forever after.
func (m *Memory) resetDirtyTracking(snap *MemSnapshot) {
	const resetThreshold = 64
	if len(m.dirty) > resetThreshold {
		m.dirty = make(map[uint32]struct{})
	} else {
		clear(m.dirty)
	}
	if len(m.dels) > resetThreshold {
		m.dels = make(map[uint32]struct{})
	} else {
		clear(m.dels)
	}
	m.lastSnap = snap
}

// Restore replaces the live memory contents with the snapshot's. The snapshot
// remains valid and may be restored again.
//
// Restore reuses the snapshot's (memoised) page table directly instead of
// rebuilding page and COW-arming maps from scratch: every snapshot page is
// already frozen, so copy-on-write needs no re-arming, and the table itself
// is shared until the first structural change. The restored Memory's dirty
// epoch restarts relative to the restored snapshot, so the next Snapshot()
// captures exactly what the re-execution touched.
func (m *Memory) Restore(s *MemSnapshot) {
	m.invalidateTLB()
	m.pages = s.flatten()
	m.pagesShared = true
	m.owned = 0 // every page in a flattened table is frozen
	m.resetDirtyTracking(s)
}

// Fork derives a new, independent Memory whose contents equal the snapshot's.
// All pages start out shared copy-on-write with the snapshot (and with every
// other Memory derived from it); the forked memory clones pages lazily as it
// writes. The fork may be used from a different goroutine than the snapshot's
// origin Memory, which is what lets analysis clones replay concurrently.
func (s *MemSnapshot) Fork() *Memory {
	m := NewMemory()
	m.Restore(s)
	return m
}

// CopyOnWritePending returns the number of live pages still shared
// copy-on-write with snapshots (frozen pages in the live table). It is
// exported for tests and overhead accounting.
func (m *Memory) CopyOnWritePending() int { return len(m.pages) - m.owned }

// Dump formats a small hex dump around addr, for diagnostics.
func (m *Memory) Dump(addr uint32, n int) string {
	bs, ok := m.ReadBytes(addr, n)
	if !ok {
		return fmt.Sprintf("<unmapped near %#x>", addr)
	}
	return fmt.Sprintf("% x", bs)
}
