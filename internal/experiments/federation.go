package experiments

import (
	"fmt"

	"sweeper/internal/antibody"
	"sweeper/internal/core"
	"sweeper/internal/exploit"
	"sweeper/internal/metrics"
)

// FederatedEpidemicConfig sizes a live epidemic run against daemons
// federated over real loopback HTTP: the Figure 6 community-defence flow on
// the actual system instead of the SI model. The producers are attacked and
// generate antibodies; the consumers receive them over the wire, re-verify
// each by exploit replay, and adopt — after which the worm finds every
// daemon inoculated.
type FederatedEpidemicConfig struct {
	// Daemons is the community size N, at least 3 (the minimum interesting).
	Daemons int
	// Producers is α·N, how many daemons are attacked directly: at least one,
	// and at least one daemon fewer than Daemons is left a consumer.
	Producers int
}

// FederatedDaemonResult is the outcome at one daemon.
type FederatedDaemonResult struct {
	Name     string
	Addr     string
	Producer bool
	StoreLen int
	Guests   []core.GuestStats
	Fed      metrics.FederationStats
	// ExploitFiltered says the worm's exploit was dropped at the daemon's
	// proxy during the final sweep.
	ExploitFiltered bool
}

// FederatedEpidemicResult is the outcome of one live epidemic run.
type FederatedEpidemicResult struct {
	Daemons []FederatedDaemonResult
	// Converged says every store reached the full antibody union in time.
	Converged bool
	// AntibodiesTotal is the converged store size.
	AntibodiesTotal int
	// CorruptedSpread counts stores the corrupted antibody gossiped into
	// (rejection happens at adoption, not in transit, so this should equal
	// Daemons).
	CorruptedSpread int
	// CorruptedRejections counts guests that rejected the corrupted antibody.
	CorruptedRejections int
}

// RunFederatedEpidemic stands up cfg.Daemons daemons federated over loopback
// HTTP in a full mesh, attacks the producers, and measures the epidemic
// response of the actual system: antibody generation, gossip,
// verify-before-adopt at every consumer, and community-wide inoculation —
// then has a rogue publisher push a corrupted antibody, which must spread
// freely but be rejected by every verifying guest.
func RunFederatedEpidemic(cfg FederatedEpidemicConfig) (*FederatedEpidemicResult, error) {
	if cfg.Daemons < 3 || cfg.Producers < 1 || cfg.Producers >= cfg.Daemons {
		return nil, fmt.Errorf("experiments: federated epidemic needs 3 or more daemons, a producer and a consumer among them: got %d producers of %d",
			cfg.Producers, cfg.Daemons)
	}
	c, err := newCommunity(communitySpec{
		members: cfg.Daemons, producers: cfg.Producers, http: true, warmup: epidemicWarmup,
	})
	if err != nil {
		return nil, err
	}
	defer c.close()
	payload, err := exploit.Exploit(c.app)
	if err != nil {
		return nil, err
	}
	for _, m := range c.members {
		if err := m.link(false, c.members...); err != nil {
			return nil, err
		}
	}

	// Producers are attacked one after another with live gossip running: a
	// later producer may already be inoculated by an earlier one's antibody
	// before the worm reaches it. That is the community defence succeeding,
	// not a failed run — except for the first producer, where no antibody
	// can exist yet.
	producers := c.members[:cfg.Producers]
	for i, m := range producers {
		if m.wormContact(payload) && i == 0 {
			return nil, fmt.Errorf("experiments: exploit filtered at %s before any antibody existed", m.name)
		}
	}
	want := storeUnion(producers)
	if want == 0 {
		return nil, fmt.Errorf("experiments: producers generated no antibodies")
	}
	res := &FederatedEpidemicResult{AntibodiesTotal: want}
	res.Converged = awaitStores(c.members, want)
	c.drain() // every guest verifies and adopts what just arrived

	// Rogue publisher: a corrupted antibody (its exploit input no longer
	// exploits anything, with a self-consistent signature that would censor
	// nothing real but proves nothing either). It holds the community token —
	// peers are untrusted, not strangers. Gossip must spread it — the network
	// layer does not judge — and every verifying guest must reject it.
	// Rejections are attributed by delta, so a rejection of anything else
	// (there should be none) cannot masquerade as a corrupted-antibody
	// rejection.
	rejected := func() (n int) {
		for _, m := range c.members {
			n += m.guest.Stats().AntibodiesRejected
		}
		return n
	}
	rejectedBefore := rejected()
	corrupted := &antibody.Antibody{
		ID:           "rogue-corrupted-final",
		Program:      c.app.Name,
		Stage:        antibody.StageFinal,
		ExploitInput: append([]byte(nil), payload[:len(payload)/4]...),
	}
	corrupted.Sigs = []*antibody.Signature{antibody.ExactSignature("rogue-corrupted-sig", corrupted.ExploitInput)}
	if _, err := c.transport(c.members[cfg.Producers]).Push("rogue", []*antibody.Antibody{corrupted}); err != nil {
		return nil, fmt.Errorf("experiments: rogue push: %w", err)
	}
	awaitStores(c.members, want+1)
	for _, m := range c.members {
		if _, ok := m.fleet.Store().Get(corrupted.ID); ok {
			res.CorruptedSpread++
		}
	}
	c.drain()
	res.CorruptedRejections = rejected() - rejectedBefore

	// Final sweep: the worm retries everywhere; every proxy must drop it.
	for _, m := range c.members {
		filtered := m.wormContact(payload)
		res.Daemons = append(res.Daemons, FederatedDaemonResult{
			Name:            m.name,
			Addr:            m.addr,
			Producer:        m.producer,
			StoreLen:        m.fleet.Store().Len(),
			Guests:          []core.GuestStats{m.guest.Stats()},
			Fed:             m.rec.Snapshot(),
			ExploitFiltered: filtered,
		})
	}
	return res, nil
}
