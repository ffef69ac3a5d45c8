// Package heap implements the guest heap allocator. All allocator metadata
// (chunk headers) lives inline in guest memory, exactly like the paper's
// malloc: heap overflows corrupt the next chunk's header, double frees are
// detected at free() time ("crash in lib. free; heap inconsistent"), and
// analysis tools can walk the heap image to check consistency and to find the
// chunk containing any address — which is how the modified red-zone technique
// of the memory-bug detector and the heap-bounds VSEF are implemented.
//
// Like dlmalloc, allocations at or above a threshold are served from a
// separate, far-away region (the "mmap zone"); a sufficiently long overflow
// of a small main-arena chunk therefore runs off the end of the mapped main
// arena and segfaults at the overflowing store, which is how the paper's
// Squid exploit crashes inside strcat.
package heap

import (
	"errors"
	"fmt"

	"sweeper/internal/vm"
)

// Chunk header layout: two 32-bit words immediately before the payload.
//
//	word 0: payload size in bytes
//	word 1: status magic (allocated or free)
const (
	// HeaderSize is the inline per-chunk metadata size in bytes.
	HeaderSize = 8
	// MagicAlloc marks a live chunk.
	MagicAlloc = 0xA110C8ED
	// MagicFree marks a freed chunk.
	MagicFree = 0xF7EE0BAD
	// minPayload is the smallest payload a chunk will be split down to.
	minPayload = 8
	// DefaultMmapThreshold is the allocation size at or above which chunks
	// are served from the separate large-object (mmap) zone.
	DefaultMmapThreshold = 256 << 10
)

// ErrOutOfMemory is returned when the heap region is exhausted; the guest
// receives a NULL pointer, as from a real malloc.
var ErrOutOfMemory = errors.New("heap: out of memory")

// CorruptionError models the allocator detecting corrupted metadata (the
// analogue of glibc aborting with "double free or corruption"). The process
// runtime converts it into a heap-corruption fault at the calling syscall.
type CorruptionError struct {
	Addr   uint32 // address of the suspect chunk payload or header
	Detail string
}

// Error implements the error interface.
func (e *CorruptionError) Error() string {
	return fmt.Sprintf("heap corruption at %#x: %s", e.Addr, e.Detail)
}

// Chunk describes one heap chunk as seen by walking the inline metadata.
type Chunk struct {
	HeaderAddr uint32
	Addr       uint32 // payload address
	Size       uint32 // payload size
	Allocated  bool
	Corrupt    bool
	Reason     string
}

// End returns the first address past the chunk's payload.
func (c Chunk) End() uint32 { return c.Addr + c.Size }

// Contains reports whether addr falls within the chunk's payload.
func (c Chunk) Contains(addr uint32) bool { return addr >= c.Addr && addr < c.End() }

// arena is one contiguous allocation region managed with inline headers.
type arena struct {
	base   uint32
	limit  uint32 // size of the region
	brk    uint32 // first unused address
	mapped uint32 // first unmapped address (page aligned)
}

// ArenaState is the host-side state of one arena.
type ArenaState struct {
	Brk    uint32
	Mapped uint32
}

// State is the allocator's host-side state, captured and restored by
// checkpoints (chunk metadata itself lives in guest memory and is captured by
// the memory snapshot).
type State struct {
	Main    ArenaState
	Mmap    ArenaState
	Mallocs uint64
	Frees   uint64
}

// Allocator manages the guest heap region [base, base+size): the lower half
// is the main arena, the upper half the large-object (mmap) zone.
type Allocator struct {
	mem       *vm.Memory
	main      arena
	mmap      arena
	threshold uint32

	mallocs uint64
	frees   uint64
}

// New creates an allocator for the given guest memory region. No pages are
// mapped until the first allocation.
func New(mem *vm.Memory, base, size uint32) *Allocator {
	half := (size / 2) &^ (vm.PageSize - 1)
	if half == 0 {
		half = size
	}
	a := &Allocator{
		mem:       mem,
		main:      arena{base: base, limit: half, brk: base, mapped: base},
		mmap:      arena{base: base + half, limit: size - half, brk: base + half, mapped: base + half},
		threshold: DefaultMmapThreshold,
	}
	return a
}

// SetMmapThreshold sets the size at or above which allocations are served
// from the large-object zone. It must be called before the first allocation.
func (a *Allocator) SetMmapThreshold(t uint32) {
	if t == 0 {
		t = DefaultMmapThreshold
	}
	a.threshold = t
}

// MmapThreshold returns the current large-object threshold (process cloning
// uses it to recreate an allocator with identical placement policy).
func (a *Allocator) MmapThreshold() uint32 { return a.threshold }

// Base returns the lowest heap address.
func (a *Allocator) Base() uint32 { return a.main.base }

// Brk returns the current top of the main arena (first unused address).
func (a *Allocator) Brk() uint32 { return a.main.brk }

// MmapBase returns the base of the large-object zone.
func (a *Allocator) MmapBase() uint32 { return a.mmap.base }

// Stats returns the number of malloc and free calls serviced.
func (a *Allocator) Stats() (mallocs, frees uint64) { return a.mallocs, a.frees }

// Save captures the host-side allocator state for a checkpoint.
func (a *Allocator) Save() State {
	return State{
		Main:    ArenaState{Brk: a.main.brk, Mapped: a.main.mapped},
		Mmap:    ArenaState{Brk: a.mmap.brk, Mapped: a.mmap.mapped},
		Mallocs: a.mallocs,
		Frees:   a.frees,
	}
}

// Restore reinstates host-side allocator state saved by Save.
func (a *Allocator) Restore(s State) {
	a.main.brk = s.Main.Brk
	a.main.mapped = s.Main.Mapped
	a.mmap.brk = s.Mmap.Brk
	a.mmap.mapped = s.Mmap.Mapped
	a.mallocs = s.Mallocs
	a.frees = s.Frees
}

func align4(n uint32) uint32 { return (n + 3) &^ 3 }

func (a *Allocator) readHeader(hdr uint32) (size, magic uint32, ok bool) {
	size, ok1 := a.mem.ReadWord(hdr)
	magic, ok2 := a.mem.ReadWord(hdr + 4)
	return size, magic, ok1 && ok2
}

func (a *Allocator) writeHeader(hdr, size, magic uint32) bool {
	return a.mem.WriteWord(hdr, size) && a.mem.WriteWord(hdr+4, magic)
}

// ensureMapped maps pages of the arena up to addr (exclusive).
func (a *Allocator) ensureMapped(ar *arena, addr uint32) bool {
	if addr <= ar.mapped {
		return true
	}
	end := ar.base + ar.limit
	if addr > end {
		return false
	}
	newMapped := (addr + vm.PageSize - 1) &^ (vm.PageSize - 1)
	if newMapped > end {
		newMapped = end
	}
	a.mem.MapRegion(ar.mapped, newMapped-ar.mapped)
	ar.mapped = newMapped
	return true
}

func (a *Allocator) allocFrom(ar *arena, need uint32) (uint32, error) {
	// First fit over existing chunks.
	hdr := ar.base
	for hdr < ar.brk {
		csize, magic, ok := a.readHeader(hdr)
		if !ok {
			return 0, &CorruptionError{Addr: hdr, Detail: "chunk header unmapped during malloc walk"}
		}
		if magic != MagicAlloc && magic != MagicFree {
			return 0, &CorruptionError{Addr: hdr + HeaderSize, Detail: "corrupted chunk header magic during malloc walk"}
		}
		if hdr+HeaderSize+csize < hdr || hdr+HeaderSize+align4(csize) > ar.brk {
			return 0, &CorruptionError{Addr: hdr + HeaderSize, Detail: "corrupted chunk size during malloc walk"}
		}
		if magic == MagicFree && csize >= need {
			// Reuse; split if worthwhile.
			if csize >= need+HeaderSize+minPayload {
				restHdr := hdr + HeaderSize + need
				a.writeHeader(restHdr, csize-need-HeaderSize, MagicFree)
				a.writeHeader(hdr, need, MagicAlloc)
			} else {
				a.writeHeader(hdr, csize, MagicAlloc)
			}
			return hdr + HeaderSize, nil
		}
		hdr += HeaderSize + align4(csize)
	}

	// Extend the break.
	newBrk := ar.brk + HeaderSize + need
	if newBrk < ar.brk || newBrk > ar.base+ar.limit {
		return 0, ErrOutOfMemory
	}
	if !a.ensureMapped(ar, newBrk) {
		return 0, ErrOutOfMemory
	}
	hdr = ar.brk
	ar.brk = newBrk
	if !a.writeHeader(hdr, need, MagicAlloc) {
		return 0, ErrOutOfMemory
	}
	return hdr + HeaderSize, nil
}

// Malloc allocates size bytes and returns the payload address. It returns 0
// and ErrOutOfMemory when the region is exhausted, or a *CorruptionError when
// walking the chunk list encounters corrupted metadata (the behaviour a real
// allocator exhibits after a heap overflow has smashed a header).
func (a *Allocator) Malloc(size uint32) (uint32, error) {
	a.mallocs++
	if size == 0 {
		size = 1
	}
	need := align4(size)
	if need >= a.threshold && a.mmap.limit > 0 {
		return a.allocFrom(&a.mmap, need)
	}
	return a.allocFrom(&a.main, need)
}

func (a *Allocator) arenaFor(addr uint32) *arena {
	if addr >= a.mmap.base && addr < a.mmap.base+a.mmap.limit {
		return &a.mmap
	}
	if addr >= a.main.base && addr < a.main.base+a.main.limit {
		return &a.main
	}
	return nil
}

// Free releases the chunk whose payload starts at addr. Freeing an already
// freed chunk or a non-chunk address returns a *CorruptionError, modelling
// the crash-inside-free that the paper's CVS double-free exploit produces.
func (a *Allocator) Free(addr uint32) error {
	a.frees++
	if addr == 0 {
		// free(NULL) is a no-op, as in C.
		return nil
	}
	ar := a.arenaFor(addr)
	if ar == nil || addr < ar.base+HeaderSize || addr >= ar.brk {
		return &CorruptionError{Addr: addr, Detail: "free of pointer outside heap"}
	}
	hdr := addr - HeaderSize
	size, magic, ok := a.readHeader(hdr)
	if !ok {
		return &CorruptionError{Addr: addr, Detail: "free of pointer with unmapped header"}
	}
	switch magic {
	case MagicAlloc:
		if hdr+HeaderSize+size > ar.brk {
			return &CorruptionError{Addr: addr, Detail: "freeing chunk with corrupted size"}
		}
		a.writeHeader(hdr, size, MagicFree)
		return nil
	case MagicFree:
		return &CorruptionError{Addr: addr, Detail: "double free"}
	default:
		return &CorruptionError{Addr: addr, Detail: "free of chunk with corrupted header magic"}
	}
}

// chunkAt decodes the chunk whose header sits at hdr in ar and returns the
// address of the next header. It is the one scanner behind every heap walk
// and allocates nothing on an intact heap. A corrupt chunk (header unmapped,
// bad magic, size past the break) ends its arena's scan: next is ar.brk.
func (a *Allocator) chunkAt(ar *arena, hdr uint32) (c Chunk, next uint32) {
	size, magic, ok := a.readHeader(hdr)
	c = Chunk{HeaderAddr: hdr, Addr: hdr + HeaderSize, Size: size}
	next = hdr + HeaderSize + align4(size)
	switch {
	case !ok:
		c.Reason = "header unmapped"
	case magic != MagicAlloc && magic != MagicFree:
		c.Reason = fmt.Sprintf("bad magic %#x", magic)
	default:
		c.Allocated = magic == MagicAlloc
		if next <= ar.brk && next >= hdr {
			return c, next
		}
		c.Reason = "size extends past break"
	}
	c.Corrupt = true
	return c, ar.brk
}

// arenas lists both arenas in scan order.
func (a *Allocator) arenas() [2]*arena { return [2]*arena{&a.main, &a.mmap} }

// Walk returns every chunk found by scanning the inline metadata of both
// arenas. A corrupted chunk terminates its arena's walk and is reported with
// Corrupt set.
func (a *Allocator) Walk() []Chunk {
	var out []Chunk
	for _, ar := range a.arenas() {
		for hdr := ar.base; hdr < ar.brk; {
			var c Chunk
			c, hdr = a.chunkAt(ar, hdr)
			out = append(out, c)
		}
	}
	return out
}

// CheckConsistency walks the heap and returns a description of the first
// corruption found, or ok=true if the heap metadata is intact. Core-dump
// analysis uses it to report "heap inconsistent".
func (a *Allocator) CheckConsistency() (ok bool, detail string, corruptChunk Chunk) {
	for _, ar := range a.arenas() {
		for hdr := ar.base; hdr < ar.brk; {
			var c Chunk
			if c, hdr = a.chunkAt(ar, hdr); c.Corrupt {
				return false, fmt.Sprintf("chunk at %#x: %s", c.Addr, c.Reason), c
			}
		}
	}
	return true, "", Chunk{}
}

// ChunkContaining returns the chunk whose payload contains addr. The
// heap-bounds VSEF calls it on every guarded store, so it scans only addr's
// own arena (an intact chunk never reaches past its arena's break) and stops
// at the first header above addr.
func (a *Allocator) ChunkContaining(addr uint32) (Chunk, bool) {
	ar := a.arenaFor(addr)
	if ar == nil {
		return Chunk{}, false
	}
	for hdr := ar.base; hdr < ar.brk && hdr < addr; {
		var c Chunk
		if c, hdr = a.chunkAt(ar, hdr); !c.Corrupt && c.Contains(addr) {
			return c, true
		}
	}
	return Chunk{}, false
}

// LiveChunks returns only the currently allocated chunks.
func (a *Allocator) LiveChunks() []Chunk {
	var out []Chunk
	for _, c := range a.Walk() {
		if c.Allocated && !c.Corrupt {
			out = append(out, c)
		}
	}
	return out
}

// InHeap reports whether addr lies inside heap address space used so far
// (either arena, up to its break).
func (a *Allocator) InHeap(addr uint32) bool {
	return (addr >= a.main.base && addr < a.main.brk) || (addr >= a.mmap.base && addr < a.mmap.brk)
}

// InHeapRegion reports whether addr lies anywhere inside the heap region,
// used or not.
func (a *Allocator) InHeapRegion(addr uint32) bool {
	return addr >= a.main.base && addr < a.mmap.base+a.mmap.limit
}
