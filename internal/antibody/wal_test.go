package antibody

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

func mkAb(id, program string) *Antibody {
	return &Antibody{
		ID:      id,
		Program: program,
		Stage:   StageInitial,
		Sigs:    []*Signature{ExactSignature("sig-"+id, []byte(id))},
	}
}

func walFrame(t testing.TB, seq uint64, a *Antibody) []byte {
	t.Helper()
	payload, err := json.Marshal(walRecord{Seq: seq, Antibody: a})
	if err != nil {
		t.Fatal(err)
	}
	return rawFrame(payload)
}

// rawFrame frames an arbitrary payload the way walAppend does, CRC included.
func rawFrame(payload []byte) []byte {
	frame := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	return frame
}

// openLog writes data as a store directory's wal.log and opens it.
func openLog(t testing.TB, data []byte) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return st, dir
}

func ids(abs []*Antibody) []string {
	out := make([]string, len(abs))
	for i, a := range abs {
		out[i] = a.ID
	}
	return out
}

func TestDurableStoreSurvivesCloseAndReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("ab-%02d", i)
		st.Publish(mkAb(id, fmt.Sprintf("prog-%d", i%3)))
		want = append(want, id)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	all := st2.All()
	if len(all) != len(want) {
		t.Fatalf("reopened store has %d antibodies, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.ID != want[i] {
			t.Fatalf("publication order changed at %d: got %s want %s", i, a.ID, want[i])
		}
	}
	if got := st2.ForProgram("prog-0"); len(got) != 7 {
		t.Fatalf("per-program index not rebuilt: got %d for prog-0, want 7", len(got))
	}
}

func TestWALTornFinalRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		st.Publish(mkAb(fmt.Sprintf("ab-%d", i), "prog"))
	}
	st.DetachWAL() // crash-style: nothing synced or flushed

	// Simulate a crash mid-append: a good frame's header plus half its payload.
	walPath := filepath.Join(dir, walFileName)
	frame := walFrame(t, 99, mkAb("ab-torn", "prog"))
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)-7]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("open with torn tail should succeed: %v", err)
	}
	defer st2.Close()
	if st2.Len() != 5 {
		t.Fatalf("got %d antibodies after torn-tail recovery, want 5", st2.Len())
	}
	if _, ok := st2.Get("ab-torn"); ok {
		t.Fatal("torn record must not be replayed")
	}
}

func TestWALCorruptCRCTruncated(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st.Publish(mkAb("ab-good", "prog"))
	st.DetachWAL()

	walPath := filepath.Join(dir, walFileName)
	frame := walFrame(t, 7, mkAb("ab-bad", "prog"))
	frame[4] ^= 0xff // break the CRC
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(frame)
	f.Close()

	st2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 1 {
		t.Fatalf("got %d antibodies, want 1 (CRC-mismatched record dropped)", st2.Len())
	}
}

func TestWALDuplicateIDsInOneLog(t *testing.T) {
	// Publish never logs an ID twice, but a log is untrusted input: a
	// repeated ID replays once, in the position of its first key.
	var log []byte
	log = append(log, walFrame(t, 0, mkAb("ab-0", "prog"))...)
	log = append(log, walFrame(t, 1, mkAb("ab-1", "prog"))...)
	log = append(log, walFrame(t, 2, mkAb("ab-0", "prog"))...) // dup
	log = append(log, walFrame(t, 3, mkAb("ab-2", "prog"))...)
	st, _ := openLog(t, log)
	defer st.Close()
	if got := fmt.Sprint(ids(st.All())); got != "[ab-0 ab-1 ab-2]" {
		t.Fatalf("replayed %s, want [ab-0 ab-1 ab-2]", got)
	}
}

func TestSinceCursorStableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		st.Publish(mkAb(fmt.Sprintf("ab-%d", i), fmt.Sprintf("prog-%d", i%4)))
	}
	// A federation peer that pulled up to cursor 6 before the restart…
	before, cursor := st.Since(6)
	st.Close()

	st2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	// …must see exactly the same suffix from the reopened store.
	after, cursor2 := st2.Since(6)
	if len(after) != len(before) || cursor2 != cursor {
		t.Fatalf("Since(6) changed across restart: %d/%d vs %d/%d", len(after), cursor2, len(before), cursor)
	}
	for i := range after {
		if after[i].ID != before[i].ID {
			t.Fatalf("Since(6)[%d] = %s, want %s", i, after[i].ID, before[i].ID)
		}
	}
	// New publishes continue the cursor sequence.
	st2.Publish(mkAb("ab-new", "prog-0"))
	fresh, _ := st2.Since(cursor2)
	if len(fresh) != 1 || fresh[0].ID != "ab-new" {
		t.Fatalf("cursor did not resume cleanly: got %d records", len(fresh))
	}
}

func TestConcurrentPublishStormReplaysInOrder(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		each    = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				st.Publish(mkAb(fmt.Sprintf("ab-%d-%d", w, i), fmt.Sprintf("prog-%d", w%5)))
			}
		}(w)
	}
	wg.Wait()
	if st.Len() != workers*each {
		t.Fatalf("in-memory store has %d, want %d", st.Len(), workers*each)
	}
	want := ids(st.All())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Appends race each other to the file; the keys put them back in
	// publication order.
	st2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got := ids(st2.All())
	if len(got) != len(want) {
		t.Fatalf("reloaded store has %d, want %d (lost or duplicated publishes)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order changed at %d: replayed %s, published %s", i, got[i], want[i])
		}
	}
}

// TestWALGapKeysPlaceNewPublishesLast: a crash can tear an append that lost
// the race to the file, leaving a gap in the keys. Publishes after the reopen
// must still replay after every record that survived.
func TestWALGapKeysPlaceNewPublishesLast(t *testing.T) {
	var log []byte
	for _, k := range []uint64{0, 1, 3} {
		log = append(log, walFrame(t, k, mkAb(fmt.Sprintf("ab-%d", k), "prog"))...)
	}
	st, dir := openLog(t, log)
	st.Publish(mkAb("ab-new", "prog"))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := fmt.Sprint(ids(st2.All())); got != "[ab-0 ab-1 ab-3 ab-new]" {
		t.Fatalf("replayed %s, want [ab-0 ab-1 ab-3 ab-new]", got)
	}
}

// TestWALIsOneFileNeverRewritten: the log is the store. Publishes only ever
// append one frame to the same file, and opening a clean log writes nothing.
func TestWALIsOneFileNeverRewritten(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, walFileName)
	first, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 600; i++ {
		a := mkAb(fmt.Sprintf("ab-%03d", i), "prog")
		st.Publish(a)
		want = append(want, walFrame(t, uint64(i), a)...)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(first, fi) || fi.Size() != int64(len(want)) {
			t.Fatalf("after publish %d: same file %v, size %d, want the same file at %d bytes", i, os.SameFile(first, fi), fi.Size(), len(want))
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st2.DetachWAL()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != walFileName {
		t.Fatalf("store directory holds %d entries, want only %s", len(entries), walFileName)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("log is %d bytes and not the %d bytes of its frames", len(got), len(want))
	}
}

// TestWALFailedAppendDetachesLog: once an append fails, nothing more is
// written behind a frame that may be partial; the store keeps serving from
// memory and reports itself no longer durable.
func TestWALFailedAppendDetachesLog(t *testing.T) {
	st, dir := openLog(t, nil)
	st.Publish(mkAb("ab-0", "prog"))
	st.wal.f.Close() // the next write fails
	if !st.Publish(mkAb("ab-1", "prog")) || st.Len() != 2 {
		t.Fatal("a failed append refused the publish")
	}
	if st.Durable() {
		t.Fatal("store still reports a log after an append failed")
	}
	st2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := fmt.Sprint(ids(st2.All())); got != "[ab-0]" {
		t.Fatalf("replayed %s, want [ab-0]", got)
	}
}

// TestOpenDurableRefusesSnapshotDirectory: a store written by the older
// snapshot + log format is refused with an error naming the file, not read
// in part.
func TestOpenDurableRefusesSnapshotDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(`{"antibodies":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenDurable(dir, DurableOptions{})
	if err == nil {
		st.Close()
		t.Fatal("a directory holding snapshot.json was opened")
	}
	if !strings.Contains(err.Error(), "snapshot.json") {
		t.Fatalf("error %q does not name snapshot.json", err)
	}
}

// TestWALRecordWithNilVSEFNotReplayed: a record whose CRC holds but whose
// antibody fails Validate is a torn tail, not an antibody to install.
func TestWALRecordWithNilVSEFNotReplayed(t *testing.T) {
	log := walFrame(t, 0, mkAb("ab-good", "prog"))
	log = append(log, rawFrame([]byte(`{"seq":1,"antibody":{"id":"ab-bad","program":"prog","vsefs":[null]}}`))...)
	st, _ := openLog(t, log)
	defer st.Close()
	if got := fmt.Sprint(ids(st.All())); got != "[ab-good]" {
		t.Fatalf("replayed %s, want [ab-good]", got)
	}
}

// TestWALHugeHeaderAllocatesNothing: a frame header is read before its
// payload, so a header claiming more bytes than the file holds must be a
// torn tail before anything is allocated for it.
func TestWALHugeHeaderAllocatesNothing(t *testing.T) {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], 16<<20)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFileName), hdr[:], 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := OpenDurable(dir, DurableOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 0 {
		t.Fatalf("replayed %d antibodies from a bare header", st.Len())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("opening an 8-byte log allocated %d bytes", grew)
	}
}

// FuzzWALReplay opens arbitrary bytes as a store's log. Whatever the file
// holds, opening it never fails or panics, replays only valid antibodies,
// at most truncates the file, and is idempotent: a second open replays the
// same IDs in the same order and leaves the file byte-identical.
func FuzzWALReplay(f *testing.F) {
	frames := func(fs ...[]byte) []byte { return bytes.Join(fs, nil) }
	clean := frames(walFrame(f, 0, mkAb("ab-0", "p")), walFrame(f, 1, mkAb("ab-1", "p")), walFrame(f, 2, mkAb("ab-2", "q")))
	badCRC := walFrame(f, 1, mkAb("ab-1", "p"))
	badCRC[5] ^= 0xff
	var huge [8]byte
	binary.BigEndian.PutUint32(huge[0:4], 16<<20)
	f.Add(clean)
	f.Add(clean[:len(clean)-5])
	f.Add(frames(walFrame(f, 0, mkAb("ab-0", "p")), badCRC))
	f.Add(huge[:])
	f.Add(frames(walFrame(f, 2, mkAb("ab-2", "p")), walFrame(f, 0, mkAb("ab-0", "p")), walFrame(f, 1, mkAb("ab-1", "p"))))
	f.Add(frames(walFrame(f, 0, mkAb("ab-0", "p")), walFrame(f, 1, mkAb("ab-0", "p"))))
	f.Add(rawFrame([]byte(`{"seq":0,"antibody":{"id":"ab-0","program":"p","vsefs":[null]}}`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, dir := openLog(t, data)
		first := ids(st.All())
		for _, a := range st.All() {
			if err := a.Validate(); err != nil {
				t.Fatalf("replayed an invalid antibody: %v", err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, walFileName)
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("open rewrote the log instead of truncating it (%d -> %d bytes)", len(data), len(kept))
		}
		st2, err := OpenDurable(dir, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		second := ids(st2.All())
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(first, second) {
			t.Fatalf("second open replayed %v, first %v", second, first)
		}
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(kept, again) {
			t.Fatal("second open changed the log")
		}
	})
}
