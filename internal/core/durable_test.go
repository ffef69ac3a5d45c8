package core

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"sweeper/internal/apps"
	"sweeper/internal/exploit"
)

// newDurableFleetWith is newFleetWith rooted at a data directory: same app,
// same deterministic per-guest ASLR seeds, so a second generation on the
// same directory reconstructs identical layouts and can restart warm.
func newDurableFleetWith(t *testing.T, dir, appName string, guests int) (*Fleet, *apps.Spec) {
	t.Helper()
	spec, err := apps.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleetWithOptions(FleetOptions{DataDir: dir})
	for i := 0; i < guests; i++ {
		cfg := DefaultConfig()
		cfg.ASLRSeed = 42 + int64(i)*7919
		if _, err := f.AddGuest(fmt.Sprintf("%s-%d", appName, i), spec.Name, spec.Image, spec.Options, cfg); err != nil {
			t.Fatal(err)
		}
	}
	return f, spec
}

// TestDurableFleetWarmRestartFiltersBeforeServing is the restart half of the
// community-defence flow: generation 1 survives an attack and stops cleanly;
// generation 2 on the same data directory must come back with every antibody
// in its store, every guest warm-restored from its persisted checkpoint, and
// the exploit filtered at the proxy before any guest re-handles the attack.
func TestDurableFleetWarmRestartFiltersBeforeServing(t *testing.T) {
	dir := t.TempDir()
	const guests = 2

	f1, spec := newDurableFleetWith(t, dir, "cvs", guests)
	f1.Start()
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < guests; i++ {
		name := fmt.Sprintf("cvs-%d", i)
		for r := 0; r < 4; r++ {
			f1.Submit(name, exploit.Benign("cvs", r), "client", false)
		}
	}
	if !f1.Submit("cvs-0", payload, "worm", true) {
		t.Fatal("exploit filtered before any antibody existed")
	}
	f1.Drain()
	stored := len(f1.Store().All())
	if stored == 0 {
		t.Fatal("no antibodies reached the shared store")
	}
	served1 := statsOf(f1, "cvs-1")
	f1.Stop()

	f2, _ := newDurableFleetWith(t, dir, "cvs", guests)
	if d := f2.Durability(); d.Warnings != 0 || d.ColdFallbacks != 0 {
		t.Fatalf("restart durability = %+v, want no warnings or cold fallbacks", d)
	}
	if got := len(f2.Store().All()); got != stored {
		t.Fatalf("restarted store holds %d antibodies, want %d", got, stored)
	}
	if d := f2.Durability(); d.WarmRestarts != guests {
		t.Fatalf("warm restarts = %d, want %d", d.WarmRestarts, guests)
	}
	for i := 0; i < guests; i++ {
		name := fmt.Sprintf("cvs-%d", i)
		g, _ := f2.Guest(name)
		// Warm restore means the virtual clock continues from the persisted
		// state, not from a cold image at time zero.
		if g.Sweeper().Process().Machine.Cycles() == 0 {
			t.Errorf("guest %s restarted with a cold clock; warm restore did not take", name)
		}
		st := statsOf(f2, name)
		if !st.WarmRestarted {
			t.Errorf("guest %s not counted as warm-restarted", name)
		}
	}
	// Filters are installed at construction, not lazily on the serving loop:
	// the old exploit must bounce off the proxy even before Start().
	if f2.Submit("cvs-0", payload, "worm", true) {
		t.Error("restarted guest accepted the exploit before Start(); filters were not installed at construction")
	}
	f2.Start()
	f2.Drain() // the serving loops apply any remaining replayed inbox here
	for i := 0; i < guests; i++ {
		name := fmt.Sprintf("cvs-%d", i)
		if f2.Submit(name, payload, "worm", true) {
			t.Errorf("restarted guest %s accepted the exploit; filters were not reinstalled before serving", name)
		}
		g, _ := f2.Guest(name)
		if got := len(g.Sweeper().Attacks()); got != 0 {
			t.Errorf("restarted guest %s re-handled %d attacks, want 0 (inoculated from disk)", name, got)
		}
	}
	// The restored guest remembers its pre-restart service history.
	st1 := statsOf(f2, "cvs-1")
	if got := st1.RequestsServed; got != 0 {
		t.Logf("cvs-1 served %d requests after restart (pre-restart %d)", got, served1.RequestsServed)
	}
	f2.Stop()
}

// TestDurableFleetDegradesWithoutDataDir: an unusable data directory must
// never take the fleet down — it degrades to in-memory with counted
// warnings and still defends its guests.
func TestDurableFleetDegradesWithoutDataDir(t *testing.T) {
	// A file where the data directory should be makes both stores unopenable.
	dir := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, spec := newDurableFleetWith(t, dir, "cvs", 1)
	if d := f.Durability(); d.Warnings != 2 {
		t.Fatalf("durability warnings = %d, want 2 (antibody store + checkpoint store)", d.Warnings)
	}
	if f.Store().Durable() {
		t.Error("store claims durability with an unopenable data directory")
	}
	f.Start()
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}
	f.Submit("cvs-0", payload, "worm", true)
	f.Drain()
	if len(f.Store().All()) == 0 {
		t.Error("degraded fleet generated no antibodies; it must keep defending")
	}
	f.Stop()
}

// hashTree maps every file under root (relative path) to its content hash.
func hashTree(t *testing.T, root string) map[string][32]byte {
	t.Helper()
	out := make(map[string][32]byte)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		out[rel] = sha256.Sum256(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDurableStoreSurvivesStopStartByteIdentical: once a generation has
// stopped cleanly, an idle stop/start cycle (open, serve nothing new, stop)
// must leave every byte of the data directory exactly as it found it — no
// rewritten manifests, no new or rewritten pages, an antibody log that is
// only read — from the first restart on.
func TestDurableStoreSurvivesStopStartByteIdentical(t *testing.T) {
	dir := t.TempDir()

	f1, spec := newDurableFleetWith(t, dir, "cvs", 2)
	f1.Start()
	payload, err := exploit.Exploit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		f1.Submit("cvs-0", exploit.Benign("cvs", r), "client", false)
	}
	f1.Submit("cvs-0", payload, "worm", true)
	f1.Drain()
	stored := len(f1.Store().All())
	if stored == 0 {
		t.Fatal("no antibodies reached the shared store")
	}
	f1.Stop()

	cycle := func() map[string][32]byte {
		f, _ := newDurableFleetWith(t, dir, "cvs", 2)
		if got := len(f.Store().All()); got != stored {
			t.Fatalf("store holds %d antibodies after restart, want %d", got, stored)
		}
		f.Start()
		f.Drain()
		f.Stop()
		if d := f.Durability(); d.Warnings != 0 {
			t.Fatalf("idle cycle produced %d durability warnings", d.Warnings)
		}
		return hashTree(t, dir)
	}

	stopped := hashTree(t, dir)
	for c := 1; c <= 2; c++ {
		after := cycle()
		if len(after) != len(stopped) {
			t.Fatalf("idle cycle %d: file count %d -> %d", c, len(stopped), len(after))
		}
		for rel, h := range stopped {
			h2, ok := after[rel]
			if !ok {
				t.Errorf("idle cycle %d: file %s vanished", c, rel)
			} else if h != h2 {
				t.Errorf("idle cycle %d: file %s changed", c, rel)
			}
		}
	}
	if _, ok := stopped[filepath.Join("antibodies", "wal.log")]; !ok {
		t.Error("the antibody store is not one wal.log")
	}
}

// TestDurableFleetRefusesOlderAntibodyStore: an antibody directory in the
// older snapshot + log format is not read; the fleet counts one durability
// warning and defends with an in-memory store.
func TestDurableFleetRefusesOlderAntibodyStore(t *testing.T) {
	dir := t.TempDir()
	abDir := filepath.Join(dir, "antibodies")
	if err := os.MkdirAll(abDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(abDir, "snapshot.json"), []byte(`{"antibodies":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	f := NewFleetWithOptions(FleetOptions{DataDir: dir})
	defer f.Stop()
	if got := f.Durability().Warnings; got != 1 {
		t.Errorf("Warnings = %d, want 1", got)
	}
	if f.Store().Durable() {
		t.Error("the fleet opened an older-format antibody store as durable")
	}
}
