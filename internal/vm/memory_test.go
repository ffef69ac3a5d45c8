package vm

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestMemoryUnmappedAccess(t *testing.T) {
	m := NewMemory()
	if _, ok := m.ReadU8(0x1000); ok {
		t.Error("read of unmapped page should fail")
	}
	if m.WriteU8(0x1000, 1) {
		t.Error("write to unmapped page should fail")
	}
	if _, ok := m.ReadWord(0x1000); ok {
		t.Error("word read of unmapped page should fail")
	}
	if m.WriteWord(0x1000, 1) {
		t.Error("word write to unmapped page should fail")
	}
}

func TestMemoryMapAndRW(t *testing.T) {
	m := NewMemory()
	m.MapRegion(0x1000, 2*PageSize)
	if !m.IsMapped(0x1000) || !m.IsMapped(0x1000+PageSize) {
		t.Fatal("pages not mapped")
	}
	if m.IsMapped(0x1000 + 2*PageSize) {
		t.Fatal("page beyond region should not be mapped")
	}
	if !m.WriteU8(0x1234, 0xAB) {
		t.Fatal("write failed")
	}
	if b, _ := m.ReadU8(0x1234); b != 0xAB {
		t.Errorf("read back %#x, want 0xAB", b)
	}
	if !m.WriteWord(0x1500, 0xDEADBEEF) {
		t.Fatal("word write failed")
	}
	if w, _ := m.ReadWord(0x1500); w != 0xDEADBEEF {
		t.Errorf("word read back %#x", w)
	}
}

func TestMemoryWordLittleEndian(t *testing.T) {
	m := NewMemory()
	m.MapRegion(0x2000, PageSize)
	m.WriteWord(0x2000, 0x04030201)
	for i, want := range []byte{1, 2, 3, 4} {
		if b, _ := m.ReadU8(0x2000 + uint32(i)); b != want {
			t.Errorf("byte %d = %d, want %d", i, b, want)
		}
	}
}

func TestMemoryWordSpanningPages(t *testing.T) {
	m := NewMemory()
	m.MapRegion(0x1000, 2*PageSize)
	addr := uint32(0x1000 + PageSize - 2)
	if !m.WriteWord(addr, 0xCAFEBABE) {
		t.Fatal("cross-page word write failed")
	}
	if w, ok := m.ReadWord(addr); !ok || w != 0xCAFEBABE {
		t.Errorf("cross-page word read = %#x, ok=%v", w, ok)
	}
}

func TestMemoryBytesAndCString(t *testing.T) {
	m := NewMemory()
	m.MapRegion(0x3000, PageSize)
	if !m.WriteBytes(0x3000, []byte("hello\x00world")) {
		t.Fatal("WriteBytes failed")
	}
	bs, ok := m.ReadBytes(0x3000, 5)
	if !ok || string(bs) != "hello" {
		t.Errorf("ReadBytes = %q", bs)
	}
	s, ok := m.ReadCString(0x3000, 64)
	if !ok || s != "hello" {
		t.Errorf("ReadCString = %q", s)
	}
	if _, ok := m.ReadBytes(0x3000+PageSize-2, 8); ok {
		t.Error("ReadBytes crossing into unmapped memory should fail")
	}
}

func TestMemoryUnmapRegion(t *testing.T) {
	m := NewMemory()
	m.MapRegion(0x4000, 2*PageSize)
	m.UnmapRegion(0x4000, PageSize)
	if m.IsMapped(0x4000) {
		t.Error("page should be unmapped")
	}
	if !m.IsMapped(0x4000 + PageSize) {
		t.Error("second page should remain mapped")
	}
}

func TestMemorySnapshotCopyOnWrite(t *testing.T) {
	m := NewMemory()
	m.MapRegion(0x1000, PageSize)
	m.WriteU8(0x1000, 1)

	snap := m.Snapshot()
	if m.CopyOnWritePending() == 0 {
		t.Error("snapshot should leave pages in shared state")
	}
	// Mutate live memory after the snapshot.
	m.WriteU8(0x1000, 2)
	if m.CopyOnWritePending() != 0 {
		t.Error("write should have broken sharing for that page")
	}
	if b, _ := m.ReadU8(0x1000); b != 2 {
		t.Errorf("live value = %d, want 2", b)
	}

	// Restore: the pre-write value comes back.
	m.Restore(snap)
	if b, _ := m.ReadU8(0x1000); b != 1 {
		t.Errorf("restored value = %d, want 1", b)
	}

	// The snapshot can be restored repeatedly.
	m.WriteU8(0x1000, 7)
	m.Restore(snap)
	if b, _ := m.ReadU8(0x1000); b != 1 {
		t.Errorf("second restore value = %d, want 1", b)
	}
}

func TestMemoryMultipleSnapshots(t *testing.T) {
	m := NewMemory()
	m.MapRegion(0x1000, PageSize)
	m.WriteU8(0x1000, 10)
	s1 := m.Snapshot()
	m.WriteU8(0x1000, 20)
	s2 := m.Snapshot()
	m.WriteU8(0x1000, 30)

	m.Restore(s1)
	if b, _ := m.ReadU8(0x1000); b != 10 {
		t.Errorf("restore s1 = %d, want 10", b)
	}
	m.Restore(s2)
	if b, _ := m.ReadU8(0x1000); b != 20 {
		t.Errorf("restore s2 = %d, want 20", b)
	}
}

func TestMemorySnapshotNewPagesDisappearOnRestore(t *testing.T) {
	m := NewMemory()
	m.MapRegion(0x1000, PageSize)
	snap := m.Snapshot()
	m.MapRegion(0x8000, PageSize)
	m.WriteU8(0x8000, 5)
	m.Restore(snap)
	if m.IsMapped(0x8000) {
		t.Error("pages mapped after the snapshot should vanish on restore")
	}
}

func TestMemoryMappedPageBasesSorted(t *testing.T) {
	m := NewMemory()
	m.MapRegion(0x9000, PageSize)
	m.MapRegion(0x1000, PageSize)
	m.MapRegion(0x5000, PageSize)
	bases := m.MappedPageBases()
	if len(bases) != 3 {
		t.Fatalf("got %d pages, want 3", len(bases))
	}
	for i := 1; i < len(bases); i++ {
		if bases[i-1] >= bases[i] {
			t.Errorf("bases not sorted: %v", bases)
		}
	}
}

// TestMemoryQuickReadBackWrites is a property test: any byte written to mapped
// memory reads back identically, and snapshots never observe later writes.
func TestMemoryQuickReadBackWrites(t *testing.T) {
	const base = uint32(0x10000)
	const size = uint32(4 * PageSize)
	prop := func(offsets []uint16, values []byte) bool {
		m := NewMemory()
		m.MapRegion(base, size)
		n := len(offsets)
		if len(values) < n {
			n = len(values)
		}
		written := make(map[uint32]byte)
		for i := 0; i < n; i++ {
			addr := base + uint32(offsets[i])%size
			if !m.WriteU8(addr, values[i]) {
				return false
			}
			written[addr] = values[i]
		}
		snap := m.Snapshot()
		// Overwrite everything after the snapshot.
		for addr := range written {
			m.WriteU8(addr, 0xFF)
		}
		m.Restore(snap)
		for addr, want := range written {
			if got, ok := m.ReadU8(addr); !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMemoryIncrementalSnapshotIsODirty(t *testing.T) {
	m := NewMemory()
	m.MapRegion(0x10000, 64*PageSize)
	s1 := m.Snapshot()
	if s1.DeltaPages() != 64 {
		t.Errorf("first snapshot delta = %d pages, want all 64", s1.DeltaPages())
	}
	// Steady state: two pages written -> two pages captured.
	m.WriteU8(0x10000, 1)
	m.WriteU8(0x10000+7*PageSize, 2)
	if m.DirtyPages() != 2 {
		t.Errorf("DirtyPages = %d, want 2", m.DirtyPages())
	}
	s2 := m.Snapshot()
	if s2.DeltaPages() != 2 {
		t.Errorf("steady snapshot delta = %d pages, want 2", s2.DeltaPages())
	}
	if s2.Pages() != 64 {
		t.Errorf("steady snapshot Pages = %d, want 64", s2.Pages())
	}
	if m.DirtyPages() != 0 {
		t.Errorf("DirtyPages after snapshot = %d, want 0", m.DirtyPages())
	}
	// The incremental snapshot still restores the complete image.
	m.WriteU8(0x10000, 99)
	m.Restore(s2)
	if b, _ := m.ReadU8(0x10000); b != 1 {
		t.Errorf("restored byte = %d, want 1", b)
	}
	if b, _ := m.ReadU8(0x10000 + 63*PageSize); b != 0 {
		t.Errorf("untouched page should restore to zero, got %d", b)
	}
}

func TestMemorySubPageRunCapture(t *testing.T) {
	m := NewMemory()
	m.MapRegion(0x10000, 8*PageSize)
	first := m.Snapshot()
	if got, want := first.CapturedBytes(), 8*PageSize; got != want {
		t.Errorf("first snapshot captured %d bytes, want all %d", got, want)
	}
	// Small scattered writes: the pages are frozen, so the writes clone them
	// (inParent), and the next snapshot captures only the runs.
	m.WriteBytes(0x10000+100, []byte{1, 2, 3, 4})
	m.WriteU8(0x10000+3*PageSize+9, 7)
	s2 := m.Snapshot()
	if got := s2.CapturedBytes(); got != 5 {
		t.Errorf("scattered snapshot captured %d bytes, want 5 (two runs)", got)
	}
	if got := s2.DeltaPages(); got != 2 {
		t.Errorf("scattered snapshot DeltaPages = %d, want 2", got)
	}
	// The patched pages stayed writable: the next epoch's runs are captured
	// against s2 without any whole-page COW clone in between.
	m.WriteBytes(0x10000+200, []byte{9, 9})
	s3 := m.Snapshot()
	if got := s3.CapturedBytes(); got != 2 {
		t.Errorf("second run snapshot captured %d bytes, want 2", got)
	}
	// Every chained snapshot restores its exact epoch content.
	if b, _ := s2.Fork().ReadU8(0x10000 + 100); b != 1 {
		t.Errorf("s2 fork byte = %d, want 1", b)
	}
	if b, _ := s2.Fork().ReadU8(0x10000 + 200); b != 0 {
		t.Errorf("s2 fork must not see the later run, got %d", b)
	}
	if b, _ := s3.Fork().ReadU8(0x10000 + 200); b != 9 {
		t.Errorf("s3 fork byte = %d, want 9", b)
	}
	if b, _ := s3.Fork().ReadU8(0x10000 + 3*PageSize + 9); b != 7 {
		t.Errorf("s3 fork must keep the earlier patch, got %d", b)
	}
}

// TestMemoryCaptureByWritePattern runs the three write shapes that bound the
// sub-page design for 16 checkpoint epochs over a 256-page arena and pins what
// the snapshots capture against what page-granular capture would (touched
// pages times PageSize), with the first and last epoch's snapshots restoring
// byte-identically to a shadow copy of the arena.
func TestMemoryCaptureByWritePattern(t *testing.T) {
	const (
		arena  = uint32(0x100000)
		pages  = 256
		epochs = 16
	)
	type write struct{ page, off, n int }
	for _, tc := range []struct {
		name      string
		touched   int // pages written per epoch
		writes    func(epoch, i int) []write
		reduction int // page-granular bytes / captured bytes
	}{
		// 8 bytes at a shifting offset in each of 64 pages.
		{"scattered", 64, func(e, i int) []write {
			return []write{{i * 4, (e*97 + i*131) % (PageSize - 8), 8}}
		}, 512},
		// 8 bytes at the header and 8 at the trailer of each of 64 pages: one
		// [lo,hi) watermark per page spans nearly all of it and freezes the
		// page whole; the run list keeps both spans.
		{"alternating", 64, func(e, i int) []write {
			return []write{{i * 4, 0, 8}, {i * 4, PageSize - 8, 8}}
		}, 256},
		// 16 whole pages: large runs fall back to whole-page freezing, so
		// the sub-page path neither wins nor regresses.
		{"sequential", 16, func(e, i int) []write {
			return []write{{(e*16 + i) % pages, 0, PageSize}}
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMemory()
			m.MapRegion(arena, pages*PageSize)
			shadow := make([]byte, pages*PageSize)
			m.Snapshot() // captures everything; the epochs start after it
			type retained struct {
				snap   *MemSnapshot
				shadow []byte
			}
			var keep []retained
			captured := 0
			for e := 0; e < epochs; e++ {
				for i := 0; i < tc.touched; i++ {
					for _, w := range tc.writes(e, i) {
						at := w.page*PageSize + w.off
						for j := 0; j < w.n; j++ {
							shadow[at+j] = byte(e*3 + i + j)
						}
						if !m.WriteBytes(arena+uint32(at), shadow[at:at+w.n]) {
							t.Fatalf("epoch %d: write at +%#x failed", e, at)
						}
					}
				}
				s := m.Snapshot()
				captured += s.CapturedBytes()
				if e == 0 || e == epochs-1 {
					keep = append(keep, retained{s, append([]byte(nil), shadow...)})
				}
			}
			if want := epochs * tc.touched * PageSize / tc.reduction; captured != want {
				t.Errorf("captured %d bytes over %d epochs, want %d (1/%d of page-granular capture)",
					captured, epochs, want, tc.reduction)
			}
			for i, r := range keep {
				got, ok := r.snap.Fork().ReadBytes(arena, len(r.shadow))
				if !ok || !bytes.Equal(got, r.shadow) {
					t.Errorf("retained snapshot %d does not restore byte-identically", i)
				}
			}
		})
	}
}

func TestMemoryAlternatingEndWritesStaySubPage(t *testing.T) {
	m := NewMemory()
	m.MapRegion(0x10000, PageSize)
	m.Snapshot()
	// The carried-forward watermark bug: touching a page's header AND trailer
	// in one epoch spans nearly the whole page with a single [lo,hi) run and
	// regresses to whole-page freezing. The run list must capture the two
	// small spans instead, epoch after epoch.
	for epoch := 0; epoch < 4; epoch++ {
		m.WriteBytes(0x10000, []byte{byte(epoch), 1, 2, 3})            // header
		m.WriteBytes(0x10000+PageSize-8, []byte{4, 5, 6, byte(epoch)}) // trailer
		s := m.Snapshot()
		if got := s.CapturedBytes(); got != 8 {
			t.Fatalf("epoch %d: alternating-end snapshot captured %d bytes, want 8 (two 4-byte runs)", epoch, got)
		}
		f := s.Fork()
		if b, _ := f.ReadU8(0x10000); b != byte(epoch) {
			t.Errorf("epoch %d: header byte = %d, want %d", epoch, b, epoch)
		}
		if b, _ := f.ReadU8(0x10000 + PageSize - 5); b != byte(epoch) {
			t.Errorf("epoch %d: trailer byte = %d, want %d", epoch, b, epoch)
		}
	}
}

func TestMemoryRunListMergesAndFallsBack(t *testing.T) {
	m := NewMemory()
	m.MapRegion(0x10000, PageSize)
	m.Snapshot()
	// More disjoint spots than run slots: the extra writes merge into the
	// nearest run, so capture grows by the gaps but stays sub-page.
	offsets := []uint32{0, 1000, 2000, 3000, 4000}
	for _, off := range offsets {
		m.WriteU8(0x10000+off, 0xEE)
	}
	s := m.Snapshot()
	got := s.CapturedBytes()
	if got < len(offsets) || got > patchMaxRunBytes {
		t.Errorf("five-spot snapshot captured %d bytes, want within [%d, %d]", got, len(offsets), patchMaxRunBytes)
	}
	f := s.Fork()
	for _, off := range offsets {
		if b, _ := f.ReadU8(0x10000 + off); b != 0xEE {
			t.Errorf("restored byte at +%d = %#x, want 0xEE", off, b)
		}
	}
	// Adjacent and overlapping writes coalesce back into one run.
	m.WriteBytes(0x10000+100, []byte{1, 1})
	m.WriteBytes(0x10000+104, []byte{2, 2})
	m.WriteBytes(0x10000+102, []byte{3, 3}) // bridges the two runs
	s2 := m.Snapshot()
	if got := s2.CapturedBytes(); got != 6 {
		t.Errorf("bridged runs captured %d bytes, want one 6-byte run", got)
	}
}

func TestMemoryLargeRunFallsBackToWholePage(t *testing.T) {
	m := NewMemory()
	m.MapRegion(0x10000, PageSize)
	m.Snapshot()
	// A run beyond the patch cutoff freezes the page whole, like the
	// pre-sub-page design (zero copy now, full COW clone on the next write).
	big := make([]byte, patchMaxRunBytes+1)
	for i := range big {
		big[i] = byte(i)
	}
	m.WriteBytes(0x10000, big)
	s := m.Snapshot()
	if got := s.CapturedBytes(); got != PageSize {
		t.Errorf("large-run snapshot captured %d bytes, want a whole page (%d)", got, PageSize)
	}
	if b, _ := s.Fork().ReadU8(0x10000 + 1); b != 1 {
		t.Errorf("restored byte = %d, want 1", b)
	}
}

func TestMemoryRemappedPageIsNotPatched(t *testing.T) {
	m := NewMemory()
	m.MapRegion(0x10000, PageSize)
	m.WriteU8(0x10000, 0xAA)
	m.Snapshot()
	// Unmap + remap within one epoch: the fresh zero page has no parent
	// version (the parent's content differs), so it must be captured whole.
	m.UnmapRegion(0x10000, PageSize)
	m.MapRegion(0x10000, PageSize)
	m.WriteU8(0x10000+5, 1)
	s := m.Snapshot()
	if got := s.CapturedBytes(); got != PageSize {
		t.Errorf("remapped page captured %d bytes, want a whole page", got)
	}
	f := s.Fork()
	if b, _ := f.ReadU8(0x10000); b != 0 {
		t.Errorf("remapped page byte 0 = %#x, want 0 (not the pre-unmap 0xAA)", b)
	}
	if b, _ := f.ReadU8(0x10000 + 5); b != 1 {
		t.Errorf("remapped page byte 5 = %d, want 1", b)
	}
}

func TestMemoryNoopSnapshotIsFree(t *testing.T) {
	m := NewMemory()
	m.MapRegion(0x1000, 4*PageSize)
	s1 := m.Snapshot()
	s2 := m.Snapshot()
	if s1 != s2 {
		t.Error("a snapshot with nothing dirtied should reuse the previous snapshot")
	}
	m.WriteU8(0x1000, 1)
	if s3 := m.Snapshot(); s3 == s2 {
		t.Error("a snapshot after a write must be distinct")
	}
}

func TestMemorySnapshotFullMatchesIncremental(t *testing.T) {
	m := NewMemory()
	m.MapRegion(0x1000, 4*PageSize)
	m.WriteBytes(0x1000, []byte{1, 2, 3})
	m.Snapshot()
	m.WriteU8(0x2000, 42)
	inc := m.Snapshot()
	m.WriteU8(0x2000, 43)
	full := m.SnapshotFull()
	if got, _ := inc.Fork().ReadU8(0x2000); got != 42 {
		t.Errorf("incremental snapshot byte = %d, want 42", got)
	}
	if got, _ := full.Fork().ReadU8(0x2000); got != 43 {
		t.Errorf("full snapshot byte = %d, want 43", got)
	}
	if inc.Pages() != full.Pages() {
		t.Errorf("page counts differ: incremental %d, full %d", inc.Pages(), full.Pages())
	}
}

func TestMemoryUnmapAcrossSnapshots(t *testing.T) {
	m := NewMemory()
	m.MapRegion(0x1000, 2*PageSize)
	m.WriteU8(0x1000, 7)
	s1 := m.Snapshot()
	m.UnmapRegion(0x1000, PageSize)
	s2 := m.Snapshot()
	if s2.Pages() != 1 {
		t.Errorf("post-unmap snapshot Pages = %d, want 1", s2.Pages())
	}
	m.Restore(s1)
	if b, ok := m.ReadU8(0x1000); !ok || b != 7 {
		t.Errorf("restore s1: byte = %d (ok=%v), want 7", b, ok)
	}
	m.Restore(s2)
	if m.IsMapped(0x1000) {
		t.Error("restore s2: unmapped page came back")
	}
	if !m.IsMapped(0x1000 + PageSize) {
		t.Error("restore s2: second page should remain mapped")
	}
	// Remap after restore: page must read as zeroed even though an old
	// snapshot still holds the previous contents.
	m.MapRegion(0x1000, PageSize)
	if b, _ := m.ReadU8(0x1000); b != 0 {
		t.Errorf("remapped page reads %d, want 0", b)
	}
}

func TestMemorySnapshotChainDeepRestore(t *testing.T) {
	m := NewMemory()
	m.MapRegion(0x1000, PageSize)
	var snaps []*MemSnapshot
	for i := 0; i < 3*maxSnapChainDepth; i++ {
		m.WriteU8(0x1000, byte(i))
		snaps = append(snaps, m.Snapshot())
	}
	for i, s := range snaps {
		f := s.Fork()
		if b, _ := f.ReadU8(0x1000); b != byte(i) {
			t.Fatalf("snapshot %d forks byte %d, want %d", i, b, byte(i))
		}
	}
}

func TestPageHelpers(t *testing.T) {
	if pageNum(0) != 0 || pageNum(PageSize) != 1 || pageNum(PageSize-1) != 0 {
		t.Error("pageNum incorrect")
	}
	if pageOff(PageSize+5) != 5 {
		t.Error("pageOff incorrect")
	}
	if pageBase(PageSize+5) != PageSize {
		t.Error("pageBase incorrect")
	}
}

func TestMemoryDump(t *testing.T) {
	m := NewMemory()
	if s := m.Dump(0x1000, 4); s == "" {
		t.Error("dump of unmapped memory should describe the situation")
	}
	m.MapRegion(0x1000, PageSize)
	m.WriteBytes(0x1000, []byte{1, 2, 3, 4})
	if s := m.Dump(0x1000, 4); s != "01 02 03 04" {
		t.Errorf("dump = %q", s)
	}
}
