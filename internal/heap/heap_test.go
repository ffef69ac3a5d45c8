package heap

import (
	"strings"
	"testing"
	"testing/quick"

	"sweeper/internal/vm"
)

const (
	testBase = uint32(0x08200000)
	testSize = uint32(1 << 20)
)

func newAlloc() (*Allocator, *vm.Memory) {
	mem := vm.NewMemory()
	return New(mem, testBase, testSize), mem
}

func TestMallocBasics(t *testing.T) {
	a, mem := newAlloc()
	p1, err := a.Malloc(100)
	if err != nil || p1 == 0 {
		t.Fatalf("malloc: %v", err)
	}
	if p1 != testBase+HeaderSize {
		t.Errorf("first chunk at %#x", p1)
	}
	if !mem.IsMapped(p1) {
		t.Error("allocated memory not mapped")
	}
	p2, err := a.Malloc(50)
	if err != nil || p2 <= p1 {
		t.Fatalf("second malloc: %#x, %v", p2, err)
	}
	if mallocs, frees := a.Stats(); mallocs != 2 || frees != 0 {
		t.Errorf("stats %d/%d", mallocs, frees)
	}
	// Zero-size allocations are still distinct chunks.
	p3, err := a.Malloc(0)
	if err != nil || p3 == 0 || p3 == p2 {
		t.Errorf("malloc(0) = %#x, %v", p3, err)
	}
}

func TestFreeAndReuse(t *testing.T) {
	a, _ := newAlloc()
	p1, _ := a.Malloc(64)
	p2, _ := a.Malloc(64)
	if err := a.Free(p1); err != nil {
		t.Fatalf("free: %v", err)
	}
	// A same-size allocation reuses the freed chunk (first fit).
	p3, _ := a.Malloc(64)
	if p3 != p1 {
		t.Errorf("expected reuse of %#x, got %#x", p1, p3)
	}
	_ = p2
}

func TestFreeNullIsNoop(t *testing.T) {
	a, _ := newAlloc()
	if err := a.Free(0); err != nil {
		t.Errorf("free(NULL) should succeed: %v", err)
	}
}

func TestChunkSplitting(t *testing.T) {
	a, _ := newAlloc()
	p1, _ := a.Malloc(256)
	a.Free(p1)
	p2, _ := a.Malloc(32)
	if p2 != p1 {
		t.Fatalf("small allocation should reuse the free chunk head")
	}
	// The remainder must still be usable.
	p3, _ := a.Malloc(100)
	if p3 == 0 {
		t.Fatal("remainder allocation failed")
	}
	if p3 >= a.Brk() {
		t.Error("remainder allocation should come from the split chunk, not the brk")
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	a, _ := newAlloc()
	p, _ := a.Malloc(32)
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	err := a.Free(p)
	ce, ok := err.(*CorruptionError)
	if !ok || !strings.Contains(ce.Detail, "double free") {
		t.Errorf("expected double free corruption, got %v", err)
	}
	if ce.Addr != p {
		t.Errorf("corruption address %#x, want %#x", ce.Addr, p)
	}
}

func TestWildFreeDetected(t *testing.T) {
	a, _ := newAlloc()
	a.Malloc(32)
	if err := a.Free(testBase + 9999); err == nil {
		t.Error("free of a non-chunk address should be corruption")
	}
	if err := a.Free(0xDEAD0000); err == nil {
		t.Error("free of a pointer outside the heap should be corruption")
	}
}

func TestHeapOverflowCorruptsNextChunk(t *testing.T) {
	a, mem := newAlloc()
	p1, _ := a.Malloc(32)
	p2, _ := a.Malloc(32)
	// Overflow p1 into p2's header.
	for i := uint32(0); i < 32+HeaderSize; i++ {
		mem.WriteU8(p1+i, 0x41)
	}
	ok, detail, chunk := a.CheckConsistency()
	if ok {
		t.Fatal("consistency check should fail after the overflow")
	}
	if chunk.Addr != p2 {
		t.Errorf("corrupt chunk reported at %#x, want %#x (%s)", chunk.Addr, p2, detail)
	}
	// malloc/free now report corruption, like glibc aborting.
	if _, err := a.Malloc(16); err == nil {
		t.Error("malloc after corruption should fail")
	}
	if err := a.Free(p2); err == nil {
		t.Error("free of the corrupted chunk should fail")
	}
}

func TestWalkAndLiveChunks(t *testing.T) {
	a, _ := newAlloc()
	p1, _ := a.Malloc(16)
	p2, _ := a.Malloc(24)
	p3, _ := a.Malloc(32)
	a.Free(p2)
	chunks := a.Walk()
	if len(chunks) != 3 {
		t.Fatalf("walk found %d chunks, want 3", len(chunks))
	}
	live := a.LiveChunks()
	if len(live) != 2 || live[0].Addr != p1 || live[1].Addr != p3 {
		t.Errorf("live chunks wrong: %+v", live)
	}
	for _, c := range chunks {
		if c.Size%4 != 0 {
			t.Errorf("chunk size %d not aligned", c.Size)
		}
	}
}

func TestChunkContaining(t *testing.T) {
	a, _ := newAlloc()
	p, _ := a.Malloc(40)
	c, ok := a.ChunkContaining(p + 10)
	if !ok || c.Addr != p || !c.Allocated {
		t.Errorf("ChunkContaining failed: %+v ok=%v", c, ok)
	}
	if _, ok := a.ChunkContaining(p + 100); ok {
		t.Error("address outside any chunk should not be found")
	}
	if !c.Contains(p) || c.Contains(c.End()) {
		t.Error("Contains boundary conditions wrong")
	}
}

// TestChunkEndAtSharesOneMoment: a lookup is reused only for the same address
// at the same moment, so a header smashed between two moments is seen, and
// Malloc, Free and Restore forget the lookup.
func TestChunkEndAtSharesOneMoment(t *testing.T) {
	a, mem := newAlloc()
	p, _ := a.Malloc(40)
	q, _ := a.Malloc(40)
	now := Moment{7, 100}
	if end, allocated, ok := a.ChunkEndAt(now, q+4); !ok || !allocated || end != q+40 {
		t.Fatalf("lookup: end %#x allocated=%v ok=%v, want %#x true true", end, allocated, ok, q+40)
	}
	saved := a.Save()
	mem.WriteWord(p-HeaderSize+4, 0xbad) // p's magic: the walk to q now stops at p
	if _, _, ok := a.ChunkEndAt(now, q+4); !ok {
		t.Error("a second lookup at the same moment was not shared")
	}
	if _, _, ok := a.ChunkEndAt(Moment{8, 100}, q+4); ok {
		t.Error("a lookup at the next moment reused the last one")
	}
	mem.WriteWord(p-HeaderSize+4, MagicAlloc)
	for i, step := range []struct {
		name   string
		forget func()
	}{{"Restore", func() { a.Restore(saved) }}, {"Free", func() { a.Free(p) }}, {"Malloc", func() { a.Malloc(8) }}} {
		now := Moment{uint64(10 + i), 100}
		magic, _ := mem.ReadWord(p - HeaderSize + 4)
		mem.WriteWord(p-HeaderSize+4, 0xbad)
		a.ChunkEndAt(now, q+4) // not found: remembered
		mem.WriteWord(p-HeaderSize+4, magic)
		step.forget()
		if end, _, ok := a.ChunkEndAt(now, q+4); !ok || end != q+40 {
			t.Errorf("after %s: end %#x ok=%v, want q's chunk", step.name, end, ok)
		}
	}
}

func TestMmapThresholdSeparatesLargeAllocations(t *testing.T) {
	a, _ := newAlloc()
	a.SetMmapThreshold(4096)
	small, _ := a.Malloc(128)
	big, _ := a.Malloc(8192)
	if small >= a.MmapBase() {
		t.Error("small allocation should live in the main arena")
	}
	if big < a.MmapBase() {
		t.Errorf("large allocation at %#x should live in the mmap zone (base %#x)", big, a.MmapBase())
	}
	// Both arenas are visible to the walkers.
	if _, ok := a.ChunkContaining(big + 4); !ok {
		t.Error("mmap-zone chunk not found by ChunkContaining")
	}
	if !a.InHeap(big) || !a.InHeapRegion(big) {
		t.Error("mmap-zone address should be reported as heap")
	}
	if err := a.Free(big); err != nil {
		t.Errorf("freeing an mmap-zone chunk: %v", err)
	}
}

func TestOutOfMemory(t *testing.T) {
	mem := vm.NewMemory()
	a := New(mem, testBase, 4*vm.PageSize)
	var last uint32
	for i := 0; i < 100; i++ {
		p, err := a.Malloc(1024)
		if err != nil {
			if err != ErrOutOfMemory {
				t.Fatalf("expected ErrOutOfMemory, got %v", err)
			}
			if p != 0 {
				t.Error("failed malloc should return 0")
			}
			return
		}
		last = p
	}
	t.Fatalf("allocator never ran out of memory (last=%#x)", last)
}

func TestSaveRestore(t *testing.T) {
	a, mem := newAlloc()
	p1, _ := a.Malloc(64)
	state := a.Save()
	memSnap := mem.Snapshot()

	p2, _ := a.Malloc(128)
	a.Free(p1)

	a.Restore(state)
	mem.Restore(memSnap)
	// After restore, the heap looks exactly as at the snapshot: one live chunk.
	live := a.LiveChunks()
	if len(live) != 1 || live[0].Addr != p1 {
		t.Errorf("live after restore: %+v", live)
	}
	// And allocation proceeds deterministically: the next chunk lands where
	// p2 did the first time.
	p2again, _ := a.Malloc(128)
	if p2again != p2 {
		t.Errorf("post-restore allocation at %#x, want %#x", p2again, p2)
	}
}

func TestCorruptionErrorString(t *testing.T) {
	e := &CorruptionError{Addr: 0x1234, Detail: "double free"}
	if !strings.Contains(e.Error(), "0x1234") || !strings.Contains(e.Error(), "double free") {
		t.Errorf("error string %q", e.Error())
	}
}

// TestQuickAllocatorInvariants drives the allocator with random alloc/free
// sequences and checks the inline metadata stays consistent, chunks never
// overlap, and every live pointer is found by ChunkContaining.
func TestQuickAllocatorInvariants(t *testing.T) {
	prop := func(ops []uint16) bool {
		a, _ := newAlloc()
		var live []uint32
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				size := uint32(op%512) + 1
				p, err := a.Malloc(size)
				if err != nil {
					return false
				}
				live = append(live, p)
			} else {
				idx := int(op/3) % len(live)
				if err := a.Free(live[idx]); err != nil {
					return false
				}
				live = append(live[:idx], live[idx+1:]...)
			}
		}
		if ok, _, _ := a.CheckConsistency(); !ok {
			return false
		}
		// No two walked chunks overlap and all live pointers are found.
		chunks := a.Walk()
		for i := 1; i < len(chunks); i++ {
			prev, cur := chunks[i-1], chunks[i]
			if prev.HeaderAddr < testBase+testSize/2 && cur.HeaderAddr < testBase+testSize/2 {
				if prev.End() > cur.HeaderAddr {
					return false
				}
			}
		}
		for _, p := range live {
			c, ok := a.ChunkContaining(p)
			if !ok || !c.Allocated || c.Addr != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
