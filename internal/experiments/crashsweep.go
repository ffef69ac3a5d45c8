package experiments

import (
	"fmt"

	"sweeper/internal/exploit"
)

// crashWarmup is each guest's benign requests before the first wave: live
// checkpoints on disk before anything crashes.
const crashWarmup = 8

// CrashRecoveryConfig sizes one crash-recovery fault-injection run: a
// community of Community durable daemons (each with its own data directory
// under Root) federated over the in-process hub, of which Alpha·Community
// are producers. After the community converges on the first attack wave, a
// seeded CrashFraction of the daemons is hard-stopped with crash semantics
// (WAL detached unsynced, no drain, no flush — the in-process equivalent of
// SIGKILL), a second attack wave lands on the survivors, and the crashed
// daemons restart from disk and rejoin. The run measures what the paper's
// community defence needs from durability: how much of the antibody store
// survives the crash, whether every guest comes back warm and immune, and
// whether the community reconverges. How long a restart takes is bench/'s to
// say (antibody.wal_replay_1k_ms, checkpoint.disk_load_us).
type CrashRecoveryConfig struct {
	// Community is the number of daemons (default 100).
	Community int
	// Alpha is the producer fraction (default 0.05).
	Alpha float64
	// CrashFraction is the fraction of daemons hard-stopped mid-run
	// (default 0.2). At least one producer always survives.
	CrashFraction float64
	// Seed drives the deterministic crash-victim selection (default 1).
	Seed uint64
	// Root is the directory holding each daemon's data directory. Required.
	Root string
}

func (c *CrashRecoveryConfig) defaults() error {
	if c.Community == 0 {
		c.Community = 100
	}
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	if c.CrashFraction == 0 {
		c.CrashFraction = 0.2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Root == "" {
		return fmt.Errorf("experiments: crash recovery needs a Root data directory")
	}
	if c.Community < 4 {
		return fmt.Errorf("experiments: crash recovery community needs at least 4 daemons, got %d", c.Community)
	}
	if c.CrashFraction <= 0 || c.CrashFraction >= 1 {
		return fmt.Errorf("experiments: crash fraction %g out of (0,1)", c.CrashFraction)
	}
	return nil
}

// CrashRecoveryResult is the outcome of one fault-injection run.
type CrashRecoveryResult struct {
	// N, Producers and Crashed are the realised community split.
	N         int
	Producers int
	Crashed   int
	// CrashedProducers counts producers among the crash victims (their
	// surviving pollers exercise the backoff path until the restart).
	CrashedProducers int
	// AntibodiesRetainedPct is 100 · (antibodies present after restart,
	// before rejoining the federation) / (antibodies present at the moment
	// of the crash), aggregated over the crashed daemons.
	AntibodiesRetainedPct float64
	// WarmRestarts and ColdFallbacks aggregate the restarted fleets'
	// durability counters: every restarted guest should restore warm.
	WarmRestarts  int
	ColdFallbacks int
	// RestartedImmune counts restarted daemons whose proxy filtered the
	// first wave's exploit immediately after restart — before rejoining the
	// federation — proving filters were reinstalled from disk, not re-learnt.
	RestartedImmune int
	// Converged says the post-crash community reached the full union within
	// the timeout; AntibodiesTotal is that union's size.
	Converged       bool
	AntibodiesTotal int
	// PeerDown and PeerRecovered aggregate the survivors' federation
	// transition counters: crashing producers trips their pollers into
	// backoff, restarting them recovers the peers.
	PeerDown      int
	PeerRecovered int
}

// RunCrashRecovery runs one fault-injection point: converge, crash, attack
// the survivors, restart from disk, reconverge.
func RunCrashRecovery(cfg CrashRecoveryConfig) (*CrashRecoveryResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	n := cfg.Community
	producers := max(int(cfg.Alpha*float64(n)+0.5), 1)
	if producers >= n {
		return nil, fmt.Errorf("experiments: crash recovery needs at least one consumer (%d producers of %d)", producers, n)
	}
	res := &CrashRecoveryResult{N: n, Producers: producers}

	// Durable single-guest daemons, every one linked to every producer
	// (producers among themselves too).
	c, err := newCommunity(communitySpec{members: n, producers: producers, root: cfg.Root, warmup: crashWarmup})
	if err != nil {
		return nil, err
	}
	defer c.close()
	wave1, err := exploit.ExploitVariant(c.app, 0)
	if err != nil {
		return nil, err
	}
	wave2, err := exploit.ExploitVariant(c.app, 1)
	if err != nil {
		return nil, err
	}
	prods := c.members[:producers]
	for _, m := range c.members {
		if err := m.link(false, prods...); err != nil {
			return nil, err
		}
	}

	// Wave 1, with nobody down: attack every producer, let gossip converge
	// the whole community.
	for _, m := range prods {
		m.wormContact(wave1)
	}
	want := storeUnion(prods)
	if want == 0 {
		return nil, fmt.Errorf("experiments: crash recovery: wave 1 produced no antibodies")
	}
	if !awaitStores(c.members, want) {
		return nil, fmt.Errorf("experiments: crash recovery: community never converged on wave 1 (%d antibodies)", want)
	}
	c.drain() // verify-then-adopt everything that arrived

	// Seeded crash selection: the first CrashFraction·N of a seeded shuffle,
	// passing over a producer that would leave none standing.
	rng := newWormRNG(cfg.Seed)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	var crashed []*member
	standing := producers
	for _, i := range perm[:min(max(int(cfg.CrashFraction*float64(n)+0.5), 1), n-1)] {
		if i < producers {
			if standing == 1 {
				continue
			}
			standing--
		}
		crashed = append(crashed, c.members[i])
	}
	res.Crashed, res.CrashedProducers = len(crashed), producers-standing

	// Hard-stop the victims. Their endpoints disappear too, so surviving
	// pollers see a dead peer and back off.
	preCrash := make([]int, len(crashed)) // store size at the moment of the kill
	for k, m := range crashed {
		preCrash[k] = m.fleet.Store().Len()
		m.kill()
	}

	// Wave 2 lands while they are down: the first surviving producer handles
	// a fresh variant and the survivors converge on the grown union.
	survivors := c.live()
	survivors[0].wormContact(wave2) // members are in index order: a producer
	res.AntibodiesTotal = storeUnion(survivors)
	if !awaitStores(survivors, res.AntibodiesTotal) {
		return nil, fmt.Errorf("experiments: crash recovery: survivors never converged on wave 2")
	}

	// Restart the crashed daemons from disk: open the durable store (WAL
	// replay) and warm-restore the guest. Still off the federation, each must
	// hold what it held when it was killed, and filter the first wave's
	// exploit from that replayed store alone.
	retained, held := 0, 0
	for k, m := range crashed {
		if err := m.restart(); err != nil {
			return nil, err
		}
		// Capped: a push that landed between the count and the kill is not
		// retention.
		retained += min(m.fleet.Store().Len(), preCrash[k])
		held += preCrash[k]
		dur := m.fleet.Durability()
		res.WarmRestarts += dur.WarmRestarts
		res.ColdFallbacks += dur.ColdFallbacks
		m.fleet.Drain() // the serving loop applies the replayed inbox here
		if m.wormContact(wave1) {
			res.RestartedImmune++
		}
	}
	if held > 0 {
		res.AntibodiesRetainedPct = 100 * float64(retained) / float64(held)
	}
	// Rejoin: lazy links, because a producer among the restarted may not be
	// back on the hub yet when another dials it.
	for _, m := range crashed {
		if err := m.join(); err != nil {
			return nil, err
		}
		if err := m.link(true, prods...); err != nil {
			return nil, err
		}
	}
	res.Converged = awaitStores(c.members, res.AntibodiesTotal)
	c.drain()
	for _, m := range c.members {
		fs := m.rec.Snapshot()
		res.PeerDown += fs.PeerDown
		res.PeerRecovered += fs.PeerRecovered
	}
	return res, nil
}
