package experiments

import (
	"testing"
)

// TestCrashRecoverySmoke is the durability acceptance check, sized to the
// paper's community scale and run in the -short CI lane: one hundred durable
// in-process daemons converge on an attack wave, a seeded 20% of them are
// hard-stopped with crash semantics (WAL detached unsynced, no drain), a
// second wave lands on the survivors, and the crashed daemons restart from
// disk. The community must retain (nearly) every antibody across the crash,
// every restarted guest must come back warm with its filters reinstalled
// before serving, and the community must reconverge. No time is read here:
// bench/ times a restart (antibody.wal_replay_1k_ms, checkpoint.disk_load_us).
func TestCrashRecoverySmoke(t *testing.T) {
	cfg := CrashRecoveryConfig{
		Community:     100,
		Alpha:         0.05,
		CrashFraction: 0.2,
		Seed:          7,
		Root:          t.TempDir(),
	}
	res, err := RunCrashRecovery(cfg)
	if err != nil {
		t.Fatalf("RunCrashRecovery: %v", err)
	}
	t.Logf("N=%d producers=%d crashed=%d (producers %d) retained=%.1f%% warm=%d cold=%d immune=%d/%d "+
		"peer-down=%d peer-recovered=%d antibodies=%d converged=%v",
		res.N, res.Producers, res.Crashed, res.CrashedProducers,
		res.AntibodiesRetainedPct, res.WarmRestarts, res.ColdFallbacks,
		res.RestartedImmune, res.Crashed, res.PeerDown, res.PeerRecovered,
		res.AntibodiesTotal, res.Converged)

	if res.Crashed < res.N/10 {
		t.Fatalf("crashed only %d of %d daemons; the fault injection did not bite", res.Crashed, res.N)
	}
	// The durability floor: at least 95% of the antibodies present at the
	// moment of the crash must be back after the restart, before any
	// federation traffic. (WAL appends are unbuffered, so an in-process
	// crash should in fact lose nothing.)
	if res.AntibodiesRetainedPct < 95 {
		t.Fatalf("antibodies retained = %.1f%%, want >= 95%%", res.AntibodiesRetainedPct)
	}
	// Every restarted guest restores from its persisted checkpoint — no cold
	// fallbacks, no guest rebuilt from the program image.
	if res.WarmRestarts != res.Crashed || res.ColdFallbacks != 0 {
		t.Fatalf("warm restarts = %d, cold fallbacks = %d for %d crashed daemons",
			res.WarmRestarts, res.ColdFallbacks, res.Crashed)
	}
	// Filters are reinstalled from the replayed store before the guest takes
	// traffic: every restarted daemon filters the first wave's exploit
	// without re-handling the attack and without asking the federation.
	if res.RestartedImmune != res.Crashed {
		t.Fatalf("only %d of %d restarted daemons filtered the first wave's exploit", res.RestartedImmune, res.Crashed)
	}
	if !res.Converged {
		t.Fatalf("community did not reconverge on %d antibodies after the restarts", res.AntibodiesTotal)
	}
}
