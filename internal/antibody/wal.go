package antibody

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// A durable store directory holds one file, wal.log: the store's publication
// log, appended to and never rewritten. Each record is framed [4B BE payload
// len][4B BE IEEE CRC32 of payload][payload]; the payload is a JSON walRecord
// holding the antibody and its key. A publish appends after it has released
// the store lock, so two records can reach the log out of order; the key
// restores publication order on replay.
//
// On open, a torn final record (a short frame, a CRC mismatch, or a payload
// that does not decode to a valid antibody — the tail a crash mid-append
// leaves behind) is truncated away; everything before it replays. A crash
// therefore loses at most the appends in flight when it struck, and the rest
// replay in publication order.
const walFileName = "wal.log"

// DurableOptions configures OpenDurable. It has no settings; the type stays
// so that callers written against it keep compiling.
type DurableOptions struct{}

// walRecord is one logged publication. Seq is an ordering key, not a cursor:
// the publication index plus the offset fixed at open (wal.offset).
type walRecord struct {
	Seq      uint64    `json:"seq"`
	Antibody *Antibody `json:"antibody"`
}

// wal is the open log of one durable store. Guarded by the Store's walMu.
type wal struct {
	f *os.File
	// offset is added to a publication index to form its record key. It is
	// fixed at open so that every new key sorts after every replayed one:
	// zero for a log whose keys are contiguous from 0, larger after a gap.
	offset uint64
}

// OpenDurable opens (creating if necessary) a durable store rooted at dir
// and replays its log in key order, truncating a torn tail. A clean log is
// only read. The replay preserves publication order, so federation Since
// cursors held by peers remain valid across a restart. A directory holding
// snapshot.json was written by an older store format, which is not read: it
// is refused, and the antibodies come back by federation replay or the
// directory is deleted.
func OpenDurable(dir string, _ DurableOptions) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("antibody: durable store: %w", err)
	}
	if _, err := os.Lstat(filepath.Join(dir, "snapshot.json")); err == nil {
		return nil, fmt.Errorf("antibody: durable store: %s holds snapshot.json, an older format that is no longer read", dir)
	}
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("antibody: durable store: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("antibody: durable store: %w", err)
	}
	recs, goodEnd := readWALRecords(f, fi.Size())
	if fi.Size() > goodEnd {
		if err := f.Truncate(goodEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("antibody: durable store: truncating torn WAL tail: %w", err)
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	st := NewStore()
	for _, r := range recs {
		st.Publish(r.Antibody)
	}
	w := &wal{f: f}
	if n := len(recs); n > 0 {
		if next := recs[n-1].Seq + 1; next > uint64(st.Len()) {
			w.offset = next - uint64(st.Len())
		}
	}
	st.wal = w
	return st, nil
}

// readWALRecords decodes every intact record of a log of the given size and
// returns the offset just past the last good frame. The first frame that is
// short, longer than the bytes left in the file, CRC-mismatched, or whose
// payload is not a valid antibody with a key below 2^63 ends the scan: it
// and everything after it are the torn tail. Nothing is allocated for a
// frame before it is known to fit in the file.
func readWALRecords(f *os.File, size int64) ([]walRecord, int64) {
	var (
		recs    []walRecord
		goodEnd int64
		hdr     [8]byte
	)
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			break // clean EOF or torn header
		}
		n := int64(binary.BigEndian.Uint32(hdr[0:4]))
		if n == 0 || n > size-goodEnd-int64(len(hdr)) {
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:8]) {
			break
		}
		var r walRecord
		if json.Unmarshal(payload, &r) != nil || r.Antibody.Validate() != nil || r.Seq > math.MaxInt64 {
			break
		}
		recs = append(recs, r)
		goodEnd += int64(len(hdr)) + n
	}
	return recs, goodEnd
}

// walAppend logs a publish as one frame at the end of the log. Called by
// Publish after the in-memory insert, outside the store lock; a no-op for
// in-memory stores. A failed append detaches the log — the antibody stays in
// memory and the serving path goes on, but nothing is appended after a frame
// that may be partial, so the log stays a prefix of the publications.
func (st *Store) walAppend(index int, a *Antibody) {
	st.walMu.Lock()
	defer st.walMu.Unlock()
	w := st.wal
	if w == nil {
		return
	}
	payload, err := json.Marshal(walRecord{Seq: uint64(index) + w.offset, Antibody: a})
	if err != nil {
		return
	}
	frame := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	if _, err := w.f.Write(frame); err != nil {
		w.f.Close()
		st.wal = nil
	}
}

// Close fsyncs and detaches the log. The store remains usable in memory
// afterwards. A no-op for in-memory stores.
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

// DetachWAL abandons the log without syncing it — the moral equivalent of a
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

// Durable reports whether the store is backed by a log.
func (st *Store) Durable() bool {
	st.walMu.Lock()
	defer st.walMu.Unlock()
	return st.wal != nil
}
