package antibody

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Durable storage layout inside the store directory:
//
//	snapshot.json — compacted store image: {"antibodies": [...]} in global
//	                publication order, written atomically (tmp + rename).
//	wal.log       — append-only log of publishes since the last compaction.
//	                Each record is framed [4B BE payload len][4B BE IEEE
//	                CRC32 of payload][payload]; the payload is a JSON
//	                walRecord carrying the publication seq: a publish
//	                appends after it has released the store lock, so two
//	                records can reach the log out of order, and replay
//	                sorts by seq to restore publication order.
//
// On open, a torn final record (short frame or CRC mismatch — the tail a
// crash mid-append leaves behind) is truncated away; everything before it
// replays. Records whose IDs duplicate the snapshot (possible when a crash
// lands between compaction's rename and its log truncation) are absorbed by
// Publish's normal dedup.
const (
	walFileName      = "wal.log"
	snapshotFileName = "snapshot.json"
	walMaxRecord     = 16 << 20 // an antibody record beyond 16 MiB is corruption
)

// DurableOptions configures OpenDurable. Zero values get defaults.
type DurableOptions struct {
	// CompactEvery triggers snapshot compaction after this many WAL
	// appends (default 256). Compaction rewrites snapshot.json with the
	// full store and truncates the log.
	CompactEvery int
	// SyncEveryAppend fsyncs the log after every record. Off by default:
	// records are write()n immediately (no userspace buffering), so an
	// in-process crash loses nothing; only a kernel crash can lose the
	// unsynced tail. Sync/Close always fsync.
	SyncEveryAppend bool
}

type walRecord struct {
	Seq      uint64    `json:"seq"`
	Antibody *Antibody `json:"antibody"`
}

type walSnapshot struct {
	Antibodies []*Antibody `json:"antibodies"`
}

// wal is the open write-ahead log for one durable store. All fields are
// guarded by the owning Store's walMu.
type wal struct {
	dir     string
	f       *os.File
	appends int // records since last compaction
	opts    DurableOptions
}

// OpenDurable opens (creating if necessary) a durable store rooted at dir.
// It replays the snapshot and WAL into a fresh store, truncating a
// torn WAL tail, then compacts immediately so the log restarts empty with
// sequence numbers consistent with the rebuilt in-memory order. The replay
// preserves publication order, so federation Since cursors held by peers
// remain valid across a restart.
func OpenDurable(dir string, opts DurableOptions) (*Store, error) {
	if opts.CompactEvery <= 0 {
		opts.CompactEvery = 256
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("antibody: durable store: %w", err)
	}
	st := NewStore()

	// Replay snapshot first (already in publication order)…
	snapPath := filepath.Join(dir, snapshotFileName)
	if data, err := os.ReadFile(snapPath); err == nil {
		var snap walSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, fmt.Errorf("antibody: durable store: corrupt %s: %w", snapshotFileName, err)
		}
		for _, a := range snap.Antibodies {
			st.Publish(a)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("antibody: durable store: %w", err)
	}

	// …then the WAL, sorted by the seq each record carried when written.
	walPath := filepath.Join(dir, walFileName)
	f, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("antibody: durable store: %w", err)
	}
	recs, goodEnd, err := readWALRecords(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi, statErr := f.Stat(); statErr == nil && fi.Size() > goodEnd {
		// Torn tail from a crash mid-append: drop it.
		if err := f.Truncate(goodEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("antibody: durable store: truncating torn WAL tail: %w", err)
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	for _, r := range recs {
		st.Publish(r.Antibody)
	}

	w := &wal{dir: dir, f: f, opts: opts}
	st.wal = w
	// Compact immediately: the replay renumbered sequences contiguously, so
	// stale on-disk seqs must not mix with fresh appends in one log
	// generation.
	st.walMu.Lock()
	err = st.compactLocked()
	st.walMu.Unlock()
	if err != nil {
		f.Close()
		st.wal = nil
		return nil, err
	}
	return st, nil
}

// readWALRecords decodes every intact record and returns the offset just
// past the last good frame. A short frame, oversized length, or CRC
// mismatch ends the scan (torn tail) without error.
func readWALRecords(f *os.File) ([]walRecord, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("antibody: durable store: %w", err)
	}
	var (
		recs    []walRecord
		goodEnd int64
		hdr     [8]byte
	)
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			break // clean EOF or torn header
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if n == 0 || n > walMaxRecord {
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		var r walRecord
		if err := json.Unmarshal(payload, &r); err != nil || r.Antibody == nil {
			break
		}
		recs = append(recs, r)
		goodEnd += int64(len(hdr)) + int64(n)
	}
	return recs, goodEnd, nil
}

// walAppend durably records a publish. Called by Publish after the
// in-memory insert, outside the store lock; a no-op for in-memory stores.
// Append errors are counted, not fatal: losing durability must never take
// down the serving path.
func (st *Store) walAppend(seq uint64, a *Antibody) {
	st.walMu.Lock()
	defer st.walMu.Unlock()
	w := st.wal
	if w == nil {
		return
	}
	payload, err := json.Marshal(walRecord{Seq: seq, Antibody: a})
	if err != nil {
		return
	}
	frame := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	if _, err := w.f.Write(frame); err != nil {
		return
	}
	if w.opts.SyncEveryAppend {
		w.f.Sync()
	}
	w.appends++
	if w.appends >= w.opts.CompactEvery {
		st.compactLocked() // best-effort; the WAL keeps growing on failure
	}
}

// compactLocked rewrites snapshot.json from the full in-memory store and
// truncates the WAL. Caller holds walMu (and not the store lock — All takes
// it itself). A publish racing with compaction may land in both the
// snapshot and a later WAL append; load-time dedup absorbs the duplicate,
// and nothing is ever lost because the in-memory insert happens before the
// WAL append.
func (st *Store) compactLocked() error {
	w := st.wal
	if w == nil {
		return nil
	}
	snap := walSnapshot{Antibodies: st.All()}
	data, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("antibody: durable store: encoding snapshot: %w", err)
	}
	tmp := filepath.Join(w.dir, snapshotFileName+".tmp")
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("antibody: durable store: %w", err)
	}
	if _, err := tf.Write(data); err != nil {
		tf.Close()
		os.Remove(tmp)
		return fmt.Errorf("antibody: durable store: writing snapshot: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		os.Remove(tmp)
		return fmt.Errorf("antibody: durable store: syncing snapshot: %w", err)
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("antibody: durable store: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, snapshotFileName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("antibody: durable store: installing snapshot: %w", err)
	}
	syncDir(w.dir)
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("antibody: durable store: truncating WAL: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("antibody: durable store: %w", err)
	}
	w.f.Sync()
	w.appends = 0
	return nil
}

// Compact forces a snapshot compaction now. Exposed for tests and the
// clean-shutdown path.
func (st *Store) Compact() error {
	st.walMu.Lock()
	defer st.walMu.Unlock()
	return st.compactLocked()
}

// Sync fsyncs the WAL so every published antibody is on stable storage. A
// no-op for in-memory stores.
func (st *Store) Sync() error {
	st.walMu.Lock()
	defer st.walMu.Unlock()
	if st.wal == nil {
		return nil
	}
	return st.wal.f.Sync()
}

// Close flushes, fsyncs and detaches the WAL. The store remains usable in
// memory afterwards. A no-op for in-memory stores.
func (st *Store) Close() error {
	st.walMu.Lock()
	defer st.walMu.Unlock()
	w := st.wal
	if w == nil {
		return nil
	}
	st.wal = nil
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// DetachWAL abandons the WAL without flushing — the moral equivalent of a
// SIGKILL for the durability layer. Whatever the OS already has (every
// completed append — records are written unbuffered) survives; the file
// descriptor is simply closed. Used by the fault-injection harness.
func (st *Store) DetachWAL() {
	st.walMu.Lock()
	defer st.walMu.Unlock()
	if st.wal == nil {
		return
	}
	st.wal.f.Close()
	st.wal = nil
}

// Durable reports whether the store is backed by a WAL.
func (st *Store) Durable() bool {
	st.walMu.Lock()
	defer st.walMu.Unlock()
	return st.wal != nil
}

func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
