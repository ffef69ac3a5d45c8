package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"sweeper/internal/heap"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// DiskStore persists guest checkpoints as content-addressed pages plus one
// small manifest per guest, so a restarted daemon can hand each guest its
// last consistent checkpoint instead of a cold image.
//
// Layout under the store directory:
//
//	pages/<hex sha256>       — one immutable 4 KiB page content; written
//	                           once, referenced by every manifest (and every
//	                           guest) whose checkpoint contains a page with
//	                           that content.
//	guests/<guest>/full.json — the guest's manifest: register/allocator/RNG
//	                           state, layout, and the page-number → hash table
//	                           of the whole address space. Replaced whole by
//	                           tmp + rename, so a crash leaves either the
//	                           previous checkpoint or the new one, never a mix.
//	                           Nothing else in the guest's directory is read.
//
// Page files are the CXL-style shape of content-addressed immutable pages
// shared by many consumers. Within a daemon the same sharing happens in
// memory through vm.BaseStore — Load interns every page it reads, so N
// restored guests (or N restarted daemons in one process) pay for one copy
// of each distinct page.
//
// Save diffs by frozen-page identity (vm.PageRef.Same), so a steady-state
// persist hashes and writes only the pages dirtied since the previous one.
type DiskStore struct {
	dir      string
	pagesDir string

	mu     sync.Mutex
	guests map[string]*guestPersist
	// dirty lists files written since the last Sync; Sync fsyncs them so a
	// clean shutdown puts every persisted checkpoint on stable storage.
	dirty map[string]struct{}

	pagesWritten int // page files created (not deduplicated away)
	pagesShared  int // page references that hit an existing file
}

// guestPersist is what the guest's manifest on disk holds, by page identity.
type guestPersist struct {
	refs   map[uint32]vm.PageRef // page table at last persist, by identity
	hashes map[uint32]string     // hex hashes matching refs
}

// manifestName is the one manifest file in a guest's directory.
const manifestName = "full.json"

type persistMeta struct {
	Seq       int            `json:"seq"`
	TakenAtMs uint64         `json:"taken_at_ms"`
	Regs      vm.RegSnapshot `json:"regs"`
	Alloc     heap.State     `json:"alloc"`
	Rng       uint32         `json:"rng"`
	Layout    vm.Layout      `json:"layout"`
}

type persistManifest struct {
	Meta  persistMeta       `json:"meta"`
	Pages map[string]string `json:"pages"` // decimal page number -> hex hash
}

// PersistedCheckpoint is a checkpoint loaded back from disk, with the
// memory image already interned through the process-wide vm.BaseStore.
type PersistedCheckpoint struct {
	Seq       int
	TakenAtMs uint64
	Regs      vm.RegSnapshot
	Alloc     heap.State
	Rng       uint32
	Layout    vm.Layout
	Mem       *vm.MemSnapshot
	Pages     int
}

// OpenDiskStore opens (creating if necessary) a checkpoint store rooted at
// dir.
func OpenDiskStore(dir string) (*DiskStore, error) {
	ds := &DiskStore{
		dir:      dir,
		pagesDir: filepath.Join(dir, "pages"),
		guests:   make(map[string]*guestPersist),
		dirty:    make(map[string]struct{}),
	}
	if err := os.MkdirAll(ds.pagesDir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: disk store: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "guests"), 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: disk store: %w", err)
	}
	return ds, nil
}

// PageStats returns how many page files Save created versus how many page
// references deduplicated onto an existing file.
func (ds *DiskStore) PageStats() (written, shared int) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.pagesWritten, ds.pagesShared
}

func guestDir(root, guest string) string {
	// Hex-encode the guest name so arbitrary names cannot escape the tree.
	return filepath.Join(root, "guests", hex.EncodeToString([]byte(guest)))
}

// Save persists the snapshot as guest's latest checkpoint. Only pages
// changed since the guest's previous Save are hashed and written; the
// manifest is then rewritten whole and installed atomically (tmp + rename),
// so a crash mid-save leaves the previous checkpoint loadable. A save in
// which no page changed writes nothing: the manifest already on disk
// restores the same memory image.
func (ds *DiskStore) Save(guest string, s *proc.Snapshot, layout vm.Layout) error {
	cur := make(map[uint32]vm.PageRef)
	s.Mem.VisitPages(func(pn uint32, ref vm.PageRef) { cur[pn] = ref })

	ds.mu.Lock()
	defer ds.mu.Unlock()
	gp := ds.guests[guest]
	if gp == nil {
		gp = &guestPersist{}
		ds.guests[guest] = gp
	}

	// Hash and write the pages not present (by identity) last time. The
	// image changed if any page's content did or the page count differs
	// (with every current page unchanged, an equal count means no page went).
	newHashes := make(map[uint32]string, len(cur))
	changed := gp.refs == nil || len(cur) != len(gp.refs)
	for pn, ref := range cur {
		if old, ok := gp.refs[pn]; ok && ref.Same(old) {
			newHashes[pn] = gp.hashes[pn]
			continue
		}
		h := ref.Hash()
		hexh := hex.EncodeToString(h[:])
		newHashes[pn] = hexh
		if hexh == gp.hashes[pn] {
			// New page identity, same content (e.g. a rollback rebuilt the
			// snapshot chain): the file exists and the manifest entry stands.
			continue
		}
		changed = true
		if err := ds.ensurePageFile(hexh, ref.Data()[:]); err != nil {
			return err
		}
	}

	if changed {
		m := persistManifest{
			Meta: persistMeta{
				Seq:       s.SeqNo,
				TakenAtMs: s.TakenAtMs,
				Regs:      s.Regs,
				Alloc:     s.Alloc,
				Rng:       s.Rng,
				Layout:    layout,
			},
			Pages: make(map[string]string, len(newHashes)),
		}
		for pn, h := range newHashes {
			m.Pages[strconv.FormatUint(uint64(pn), 10)] = h
		}
		gdir := guestDir(ds.dir, guest)
		if err := os.MkdirAll(gdir, 0o755); err != nil {
			return fmt.Errorf("checkpoint: disk store: %w", err)
		}
		if err := ds.writeJSON(filepath.Join(gdir, manifestName), &m); err != nil {
			return err
		}
	}
	gp.refs = cur
	gp.hashes = newHashes
	return nil
}

// ensurePageFile writes the content-addressed page file if it does not
// already exist. Caller holds ds.mu.
func (ds *DiskStore) ensurePageFile(hexh string, data []byte) error {
	path := filepath.Join(ds.pagesDir, hexh)
	if _, err := os.Stat(path); err == nil {
		ds.pagesShared++
		return nil
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("checkpoint: disk store: writing page: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: disk store: installing page: %w", err)
	}
	ds.pagesWritten++
	ds.dirty[path] = struct{}{}
	return nil
}

// writeJSON atomically installs a manifest. Caller holds ds.mu.
func (ds *DiskStore) writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: disk store: encoding %s: %w", filepath.Base(path), err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("checkpoint: disk store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: disk store: %w", err)
	}
	ds.dirty[path] = struct{}{}
	return nil
}

// Load reads guest's latest persisted checkpoint from its manifest. The
// manifest is untrusted: every entry must name a page by its 64-character
// lowercase hex hash before any page file is opened, and every page is read
// to at most one byte past vm.PageSize, verified against its hash and
// interned through the process-wide vm.BaseStore. An error wrapping
// os.ErrNotExist means the guest has no manifest; any error means the
// caller should fall back to a cold start.
func (ds *DiskStore) Load(guest string) (*PersistedCheckpoint, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	data, err := os.ReadFile(filepath.Join(guestDir(ds.dir, guest), manifestName))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: disk store: %w", err)
	}
	var m persistManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("checkpoint: disk store: corrupt manifest for %s: %w", guest, err)
	}
	table := make(map[uint32]string, len(m.Pages))
	for k, hexh := range m.Pages {
		pn, err := strconv.ParseUint(k, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: disk store: bad page number %q: %w", k, err)
		}
		if !isPageHash(hexh) {
			return nil, fmt.Errorf("checkpoint: disk store: page %d names %q, not a page hash", pn, hexh)
		}
		table[uint32(pn)] = hexh
	}

	pages := make(map[uint32][]byte, len(table))
	for pn, hexh := range table {
		data, err := ds.readPage(hexh)
		if err != nil {
			return nil, err
		}
		pages[pn] = data
	}
	mem := vm.DefaultBaseStore().InternSnapshot(pages)

	// Seed the save-side diff cache from what is now on disk, so the first
	// post-restore Save persists only what the guest dirties afterwards.
	gp := &guestPersist{
		refs:   make(map[uint32]vm.PageRef, len(pages)),
		hashes: table,
	}
	mem.VisitPages(func(pn uint32, ref vm.PageRef) { gp.refs[pn] = ref })
	ds.guests[guest] = gp

	return &PersistedCheckpoint{
		Seq:       m.Meta.Seq,
		TakenAtMs: m.Meta.TakenAtMs,
		Regs:      m.Meta.Regs,
		Alloc:     m.Meta.Alloc,
		Rng:       m.Meta.Rng,
		Layout:    m.Meta.Layout,
		Mem:       mem,
		Pages:     len(pages),
	}, nil
}

// isPageHash reports whether s is a page file name: a SHA-256 in lowercase
// hex, exactly as Save writes it.
func isPageHash(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// readPage reads one page file, bounded to a byte past vm.PageSize, and
// checks it against its hash. A missing page is a broken checkpoint, not an
// absent one, so the error does not wrap os.ErrNotExist. Caller holds ds.mu.
func (ds *DiskStore) readPage(hexh string) ([]byte, error) {
	f, err := os.Open(filepath.Join(ds.pagesDir, hexh))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: disk store: missing page %s: %v", hexh, err)
	}
	defer f.Close()
	// Room for one byte past a page, so that a longer file shows as one.
	// ReadFull reports a file of a page or less as an (unexpected) EOF.
	buf := make([]byte, vm.PageSize+1)
	n, err := io.ReadFull(f, buf)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, fmt.Errorf("checkpoint: disk store: reading page %s: %v", hexh, err)
	}
	if n != vm.PageSize {
		return nil, fmt.Errorf("checkpoint: disk store: page %s is not %d bytes", hexh, vm.PageSize)
	}
	data := buf[:n]
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != hexh {
		return nil, fmt.Errorf("checkpoint: disk store: page %s content does not match its hash", hexh)
	}
	return data, nil
}

// Sync fsyncs every file written since the last Sync, so a clean shutdown
// puts all persisted checkpoints on stable storage.
func (ds *DiskStore) Sync() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	var firstErr error
	for path := range ds.dirty {
		f, err := os.Open(path)
		if err != nil {
			if firstErr == nil && !errors.Is(err, os.ErrNotExist) {
				firstErr = err
			}
			continue
		}
		if err := f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		f.Close()
	}
	ds.dirty = make(map[string]struct{})
	if firstErr != nil {
		return fmt.Errorf("checkpoint: disk store: sync: %w", firstErr)
	}
	return nil
}
