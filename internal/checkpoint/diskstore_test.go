package checkpoint_test

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sweeper/internal/checkpoint"
	"sweeper/internal/exploit"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

func TestDiskStoreSaveLoadRoundTrip(t *testing.T) {
	p := newCVSProcess(t, 6)
	if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
		t.Fatalf("serving failed: %v", stop.Reason)
	}
	m := checkpoint.NewManager(checkpoint.Policy{IntervalMs: 1, MaxKept: 5})
	snap := m.Checkpoint(p)

	ds, err := checkpoint.OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	layout := p.Machine.Layout()
	if err := ds.Save("guest-0", snap, layout); err != nil {
		t.Fatal(err)
	}
	if err := ds.Sync(); err != nil {
		t.Fatal(err)
	}

	loaded, err := ds.Load("guest-0")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Pages != snap.Mem.Pages() {
		t.Fatalf("loaded %d pages, snapshot had %d", loaded.Pages, snap.Mem.Pages())
	}
	if loaded.Regs != snap.Regs || loaded.Rng != snap.Rng || loaded.Alloc != snap.Alloc {
		t.Fatal("register/allocator/rng state did not round-trip")
	}
	if loaded.Layout != layout {
		t.Fatalf("layout did not round-trip: %+v vs %+v", loaded.Layout, layout)
	}

	// Restoring the loaded image into a fresh process must reproduce the
	// machine state: same served count observable via continued serving.
	fresh := newCVSProcess(t, 0)
	fresh.RestorePersisted(loaded.Mem, loaded.Regs, loaded.Alloc, loaded.Rng)
	if fresh.Machine.Mem.MappedPages() != loaded.Pages {
		t.Fatalf("restored process maps %d pages, want %d", fresh.Machine.Mem.MappedPages(), loaded.Pages)
	}
	if fresh.Machine.Cycles() != snap.Regs.Cycles {
		t.Fatalf("virtual clock not restored: %d vs %d", fresh.Machine.Cycles(), snap.Regs.Cycles)
	}
	// The restored guest serves new traffic from where the checkpoint left off.
	fresh.Proxy().Submit([]byte("Directory anon /repo/anon\n"), "client", false)
	if stop := fresh.Run(0); stop.Reason != vm.StopWaitInput {
		t.Fatalf("restored process cannot serve: %v", stop.Reason)
	}
	if fresh.ServedRequests() != 1 {
		t.Fatalf("restored process served %d, want 1", fresh.ServedRequests())
	}
}

// guestPath is guest's directory in the store rooted at dir.
func guestPath(dir, guest string) string {
	return filepath.Join(dir, "guests", hex.EncodeToString([]byte(guest)))
}

// TestDiskStoreDeltaChainAndSharing: saves after the first write only the
// page delta each serving interval dirtied, the guest keeps one manifest
// however many saves it makes, and guests with identical content share
// page files.
func TestDiskStoreDeltaChainAndSharing(t *testing.T) {
	p := newCVSProcess(t, 12)
	m := checkpoint.NewManager(checkpoint.Policy{IntervalMs: 1, MaxKept: 50})
	dir := t.TempDir()
	ds, err := checkpoint.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	layout := p.Machine.Layout()

	// The first save writes every page; subsequent saves should write only
	// the pages each serving interval dirtied.
	if err := ds.Save("g", m.Checkpoint(p), layout); err != nil {
		t.Fatal(err)
	}
	firstWritten, _ := ds.PageStats()
	var lastSnap *proc.Snapshot
	for i := 0; i < 4; i++ {
		// Fresh traffic each interval, so every save has real dirtied pages
		// (Save writes nothing when no page changed).
		p.Proxy().Submit(exploit.CVSBenign(100+i), "client", false)
		if stop := p.Run(0); stop.Reason != vm.StopWaitInput && stop.Reason != vm.StopInstrBudget {
			t.Fatalf("run stopped: %v", stop.Reason)
		}
		lastSnap = m.Checkpoint(p)
		if err := ds.Save("g", lastSnap, layout); err != nil {
			t.Fatal(err)
		}
	}
	written, _ := ds.PageStats()
	// Four incremental saves must not have rewritten the whole address
	// space each time — only the handful of pages each interval dirtied.
	if delta := written - firstWritten; delta >= lastSnap.Mem.Pages() {
		t.Errorf("incremental saves wrote %d page files for a %d-page image; expected only dirtied pages", delta, lastSnap.Mem.Pages())
	}

	if files, err := os.ReadDir(guestPath(dir, "g")); err != nil || len(files) != 1 || files[0].Name() != "full.json" {
		t.Errorf("guest directory holds %v (%v) after five saves, want only its manifest full.json", files, err)
	}
	loaded, err := ds.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Seq != lastSnap.SeqNo {
		t.Fatalf("loaded seq %d, want latest %d", loaded.Seq, lastSnap.SeqNo)
	}
	if loaded.Pages != lastSnap.Mem.Pages() {
		t.Fatalf("loaded %d pages, want %d", loaded.Pages, lastSnap.Mem.Pages())
	}

	// A second guest with identical content shares page files: saving the
	// same snapshot under another name writes zero new pages.
	before, _ := ds.PageStats()
	if err := ds.Save("g2", lastSnap, layout); err != nil {
		t.Fatal(err)
	}
	after, shared := ds.PageStats()
	if after != before {
		t.Errorf("identical snapshot for a second guest wrote %d new page files, want 0", after-before)
	}
	if shared == 0 {
		t.Error("no page references were deduplicated onto existing files")
	}
}

// TestDiskStoreLoadReadsOnlyTheManifest: whatever else lies in a guest's
// directory, Load returns exactly the last save. A stale delta record folded
// onto a newer manifest restores its registers over a mix of old and new
// pages, every one hash-valid.
func TestDiskStoreLoadReadsOnlyTheManifest(t *testing.T) {
	p := newCVSProcess(t, 12)
	m := checkpoint.NewManager(checkpoint.Policy{IntervalMs: 1, MaxKept: 50})
	dir := t.TempDir()
	ds, err := checkpoint.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	layout := p.Machine.Layout()
	gdir := guestPath(dir, "g")
	stray := filepath.Join(gdir, "delta.1.json")

	// Eighteen saves: with a chain folded every 16 records, the last one
	// installs a new full manifest and then unlinks the chain. The stray file
	// is the chain's first record as it stood before that save, put back as
	// a crash before the unlink leaves it; where no record was written, the
	// second save's manifest stands in for it.
	const saves = 18
	var record, second []byte
	var last *proc.Snapshot
	for i := 0; i < saves; i++ {
		p.Proxy().Submit(exploit.CVSBenign(100+i), "client", false)
		if stop := p.Run(0); stop.Reason != vm.StopWaitInput && stop.Reason != vm.StopInstrBudget {
			t.Fatalf("run stopped: %v", stop.Reason)
		}
		last = m.Checkpoint(p)
		if i == saves-1 {
			record, _ = os.ReadFile(stray)
		}
		if err := ds.Save("g", last, layout); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if second, err = os.ReadFile(filepath.Join(gdir, "full.json")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if record == nil {
		record = second
	}
	if err := os.WriteFile(stray, record, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := checkpoint.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := fresh.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Seq != last.SeqNo || loaded.Regs != last.Regs || loaded.Pages != last.Mem.Pages() {
		t.Fatalf("loaded seq %d (%d pages, regs equal %v), want the last save's seq %d (%d pages)",
			loaded.Seq, loaded.Pages, loaded.Regs == last.Regs, last.SeqNo, last.Mem.Pages())
	}
}

// TestDiskStoreRejectsManifestEntriesThatAreNotPages: the manifest is
// untrusted after a crash or tamper. An entry that is not a lowercase hex
// SHA-256 is refused before any file is opened, and a page file longer than
// a page is refused without reading it whole. Each is a broken checkpoint,
// not a missing one: the error must not read as os.ErrNotExist, which the
// fleet takes for "nothing persisted" and would not count as a fallback.
func TestDiskStoreRejectsManifestEntriesThatAreNotPages(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(t *testing.T, dir, hash string) string // returns the new manifest entry
	}{
		{"parent traversal", func(t *testing.T, dir, hash string) string {
			outside := filepath.Join(filepath.Dir(dir), "outside")
			if err := os.WriteFile(outside, make([]byte, vm.PageSize), 0o644); err != nil {
				t.Fatal(err)
			}
			return "../../outside"
		}},
		{"upper-case hash", func(t *testing.T, dir, hash string) string {
			return strings.ToUpper(hash)
		}},
		{"page file too long", func(t *testing.T, dir, hash string) string {
			path := filepath.Join(dir, "pages", hash)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(data, make([]byte, 4*vm.PageSize)...), 0o644); err != nil {
				t.Fatal(err)
			}
			return hash
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newCVSProcess(t, 2)
			if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
				t.Fatalf("serving failed: %v", stop.Reason)
			}
			dir := filepath.Join(t.TempDir(), "store")
			ds, err := checkpoint.OpenDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.Save("g", checkpoint.NewManager(checkpoint.DefaultPolicy()).Checkpoint(p), p.Machine.Layout()); err != nil {
				t.Fatal(err)
			}
			manifest := filepath.Join(guestPath(dir, "g"), "full.json")
			data, err := os.ReadFile(manifest)
			if err != nil {
				t.Fatal(err)
			}
			var m struct {
				Meta  json.RawMessage   `json:"meta"`
				Pages map[string]string `json:"pages"`
			}
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			var pn string
			for k := range m.Pages {
				if pn == "" || k < pn {
					pn = k
				}
			}
			m.Pages[pn] = tc.tamper(t, dir, m.Pages[pn])
			if data, err = json.Marshal(&m); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(manifest, data, 0o644); err != nil {
				t.Fatal(err)
			}

			fresh, err := checkpoint.OpenDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			_, err = fresh.Load("g")
			if err == nil {
				t.Fatal("Load accepted the tampered manifest")
			}
			if errors.Is(err, os.ErrNotExist) {
				t.Fatalf("Load reported a tampered manifest as a missing one: %v", err)
			}
		})
	}
}
