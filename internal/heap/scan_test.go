package heap

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sweeper/internal/vm"
)

// referenceWalk is the walk the package shipped before the cursor scanner
// (chunkAt) replaced it: every chunk of both arenas materialised into a slice,
// a corrupt chunk (header unmapped, bad magic, size past the break) reported
// and ending its arena. The scanner's four callers are checked against it.
func referenceWalk(a *Allocator) []Chunk {
	var out []Chunk
	for _, ar := range []*arena{&a.main, &a.mmap} {
		for hdr := ar.base; hdr < ar.brk; {
			size, ok1 := a.mem.ReadWord(hdr)
			magic, ok2 := a.mem.ReadWord(hdr + 4)
			c := Chunk{HeaderAddr: hdr, Addr: hdr + HeaderSize, Size: size}
			next := hdr + HeaderSize + (size+3)&^3
			switch {
			case !ok1 || !ok2:
				c.Corrupt, c.Reason = true, "header unmapped"
			case magic != MagicAlloc && magic != MagicFree:
				c.Corrupt, c.Reason = true, fmt.Sprintf("bad magic %#x", magic)
			default:
				c.Allocated = magic == MagicAlloc
				if next > ar.brk || next < hdr {
					c.Corrupt, c.Reason = true, "size extends past break"
				}
			}
			out = append(out, c)
			if c.Corrupt {
				break
			}
			hdr = next
		}
	}
	return out
}

func referenceContaining(chunks []Chunk, addr uint32) (Chunk, bool) {
	for _, c := range chunks {
		if !c.Corrupt && c.Contains(addr) {
			return c, true
		}
	}
	return Chunk{}, false
}

// checkAgainstReference compares Walk, LiveChunks, CheckConsistency and
// ChunkContaining (at every chunk's edges plus random addresses inside and
// just outside the heap region) with the reference walk.
func checkAgainstReference(t *testing.T, label string, a *Allocator, r *rand.Rand) {
	t.Helper()
	want := referenceWalk(a)
	if got := a.Walk(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Walk\n got %+v\nwant %+v", label, got, want)
	}
	var live []Chunk
	wantOK, wantDetail, wantCorrupt := true, "", Chunk{}
	for _, c := range want {
		if c.Allocated && !c.Corrupt {
			live = append(live, c)
		}
		if c.Corrupt && wantOK {
			wantOK, wantDetail, wantCorrupt = false, fmt.Sprintf("chunk at %#x: %s", c.Addr, c.Reason), c
		}
	}
	if got := a.LiveChunks(); !reflect.DeepEqual(got, live) {
		t.Fatalf("%s: LiveChunks\n got %+v\nwant %+v", label, got, live)
	}
	if ok, detail, c := a.CheckConsistency(); ok != wantOK || detail != wantDetail || c != wantCorrupt {
		t.Fatalf("%s: CheckConsistency = %v %q %+v, want %v %q %+v", label, ok, detail, c, wantOK, wantDetail, wantCorrupt)
	}
	addrs := []uint32{0, a.main.base - 1, a.main.base, a.mmap.base - 1, a.mmap.base, a.mmap.base + a.mmap.limit, ^uint32(0)}
	for _, c := range want {
		addrs = append(addrs, c.HeaderAddr, c.Addr-1, c.Addr, c.Addr+c.Size/2, c.End()-1, c.End(), c.End()+3)
	}
	for i := 0; i < 64; i++ {
		addrs = append(addrs, a.main.base-64+uint32(r.Intn(int(a.main.limit+a.mmap.limit)+128)))
	}
	for _, addr := range addrs {
		wc, wok := referenceContaining(want, addr)
		if gc, gok := a.ChunkContaining(addr); gok != wok || gc != wc {
			t.Fatalf("%s: ChunkContaining(%#x) = %+v %v, want %+v %v", label, addr, gc, gok, wc, wok)
		}
	}
}

// TestScannerMatchesReferenceWalk drives random malloc/free sequences through
// both arenas (a low mmap threshold sends the larger requests to the mmap
// zone), comparing with the reference walk as the heap evolves, then corrupts
// the image in each of the three ways a walk can end and compares again.
func TestScannerMatchesReferenceWalk(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		a, mem := newAlloc()
		a.SetMmapThreshold(2048)
		var live []uint32
		for op := 0; op < 120; op++ {
			if len(live) == 0 || r.Intn(3) != 0 {
				size := uint32(1 + r.Intn(600))
				if r.Intn(5) == 0 {
					size = uint32(2048 + r.Intn(4096))
				}
				p, err := a.Malloc(size)
				if err != nil {
					t.Fatalf("seed %d: malloc(%d): %v", seed, size, err)
				}
				live = append(live, p)
			} else {
				i := r.Intn(len(live))
				if err := a.Free(live[i]); err != nil {
					t.Fatalf("seed %d: free: %v", seed, err)
				}
				live = append(live[:i], live[i+1:]...)
			}
			if op%10 == 9 {
				checkAgainstReference(t, fmt.Sprintf("seed %d op %d", seed, op), a, r)
			}
		}
		chunks := referenceWalk(a)
		victim := chunks[r.Intn(len(chunks))]
		switch seed % 3 {
		case 0: // bad magic, as a heap overflow leaves it
			mem.WriteWord(victim.HeaderAddr+4, 0x41414141)
		case 1: // size past the break
			mem.WriteWord(victim.HeaderAddr, 0x7fffff00+uint32(r.Intn(64)))
		case 2: // header unmapped
			mem.UnmapRegion(victim.HeaderAddr&^(vm.PageSize-1), vm.PageSize)
		}
		checkAgainstReference(t, fmt.Sprintf("seed %d corrupted", seed), a, r)
		if ok, _, _ := a.CheckConsistency(); ok {
			t.Fatalf("seed %d: corruption kind %d went unnoticed", seed, seed%3)
		}
	}
}

// TestHeapChecksDoNotAllocate: the heap-bounds VSEF runs ChunkContaining on
// every guarded store and the free guard runs CheckConsistency on every
// guarded call; on an intact heap neither may allocate.
func TestHeapChecksDoNotAllocate(t *testing.T) {
	a, _ := newAlloc()
	a.SetMmapThreshold(2048)
	var last uint32
	for i := 0; i < 200; i++ {
		last, _ = a.Malloc(uint32(8 + i%300))
	}
	big, _ := a.Malloc(4000)
	for name, f := range map[string]func(){
		"ChunkContaining (main arena, last chunk)": func() { a.ChunkContaining(last + 4) },
		"ChunkContaining (mmap zone)":              func() { a.ChunkContaining(big + 100) },
		"ChunkContaining (miss)":                   func() { a.ChunkContaining(a.Brk() + 64) },
		"CheckConsistency":                         func() { a.CheckConsistency() },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}
}
