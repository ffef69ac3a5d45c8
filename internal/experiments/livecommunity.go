package experiments

import (
	"fmt"
	"path/filepath"
	"time"

	"sweeper/internal/apps"
	"sweeper/internal/core"
	"sweeper/internal/exploit"
	"sweeper/internal/federate"
	"sweeper/internal/metrics"
)

// What every live community shares. No caller ever set these to anything
// else, so they are not configuration.
const (
	communityApp = "squid"
	// communityToken is the federation secret every endpoint requires and
	// every transport the community hands out presents.
	communityToken   = "sweeper-community"
	communityPoll    = 20 * time.Millisecond // node poll cadence, and awaitStores's
	communityTimeout = 60 * time.Second      // bound on one awaitStores
)

// communitySpec is what differs between the scenarios' communities.
type communitySpec struct {
	// members is the number of daemons; the first producers of them run the
	// full analysis pipeline and publish, the rest are consumers.
	members, producers int
	// root, when set, makes every member durable under root/<name>.
	root string
	// warmup is the number of benign requests each guest serves before
	// anything else: live traffic, and the checkpoints verification sandboxes
	// replay from.
	warmup int
	// fanout is each node's federate.Config.MaxPushFanout.
	fanout int
}

// community is the Section 6 community stood up live: members daemons, each
// a single-guest fleet behind an endpoint of one in-process federation hub,
// with a node gossiping its store. It is the one place a fleet meets a node;
// the scenarios decide who is linked to whom, where the worm lands and who
// crashes. Over HTTP the same exchange is sweeperd's -listen and -peers.
type community struct {
	spec    communitySpec
	app     *apps.Spec
	hub     *federate.Hub
	members []*member
}

// member is one daemon of a community.
type member struct {
	c        *community
	name     string
	producer bool
	dir      string // "" when in-memory
	aslrSeed int64

	fleet *core.Fleet // nil while killed
	guest *core.Guest
	rec   *metrics.FederationRecorder
	node  *federate.Node // nil until join, and while killed
}

// newCommunity boots and joins every member, then drains the warm-up load.
// No member is linked to any other yet. The caller closes the community.
func newCommunity(spec communitySpec) (*community, error) {
	app, err := apps.ByName(communityApp)
	if err != nil {
		return nil, err
	}
	c := &community{spec: spec, app: app, hub: federate.NewHub()}
	for i := 0; i < spec.members; i++ {
		m := &member{
			c:        c,
			name:     fmt.Sprintf("host%d", i),
			producer: i < spec.producers,
			// Every member runs its own randomised layout, like distinct
			// hosts; verification must still succeed across them.
			aslrSeed: 0x5eed + int64(i)*7919,
		}
		if spec.root != "" {
			m.dir = filepath.Join(spec.root, m.name)
		}
		c.members = append(c.members, m)
		if err := m.boot(spec.warmup); err != nil {
			c.close()
			return nil, err
		}
		if err := m.join(); err != nil {
			c.close()
			return nil, err
		}
	}
	c.drain()
	return c, nil
}

// boot builds the member's fleet and guest — from its data directory, when it
// has one — and starts serving. warmup benign requests are submitted first.
func (m *member) boot(warmup int) error {
	m.fleet = core.NewFleetWithOptions(core.FleetOptions{DataDir: m.dir})
	m.rec = metrics.NewFederationRecorder()
	gcfg := core.DefaultConfig()
	gcfg.ASLRSeed = m.aslrSeed
	gcfg.VerifyAdoption = true
	if !m.producer {
		// Consumer role: detection and recovery only. No heavyweight
		// analyses, and nothing published — antibodies reach consumers
		// exclusively through the federation (this is what α means).
		gcfg.Analyses = []string{}
		gcfg.ProduceAntibodies = false
	}
	app := m.c.app
	g, err := m.fleet.AddGuest(m.name+"-g0", app.Name, app.Image, app.Options, gcfg)
	if err != nil {
		return err
	}
	m.guest = g
	for j := 0; j < warmup; j++ {
		m.fleet.Submit(g.Name(), exploit.Benign(communityApp, j), "loadgen", false)
	}
	m.fleet.Start()
	return nil
}

// join registers the member's store on the hub under its name and starts its
// node.
func (m *member) join() error {
	store := m.fleet.Store()
	if _, err := m.c.hub.Register(m.name, store, m.rec, communityToken); err != nil {
		return err
	}
	m.node = federate.NewNode(store, m.rec, federate.Config{
		Name:          m.name,
		PollInterval:  communityPoll,
		AuthToken:     communityToken,
		MaxPushFanout: m.c.spec.fanout,
	})
	return nil
}

// transport returns a way to reach the member's endpoint, carrying the
// community token. It binds to the name, not the instance, so it may be made
// while the member is down and outlives a restart.
func (c *community) transport(to *member) federate.Transport {
	return c.hub.Transport(to.name, communityToken)
}

// link makes m gossip with each peer (itself skipped). A strict link fails
// when the peer cannot be pulled from now; a lazy one records it down and
// keeps retrying, for peers that may still be rebooting.
func (m *member) link(lazy bool, peers ...*member) error {
	for _, p := range peers {
		if p == m {
			continue
		}
		t := m.c.transport(p)
		if lazy {
			m.node.AddTransportLazy(t)
		} else if err := m.node.AddTransport(t); err != nil {
			return err
		}
	}
	return nil
}

// unplug stops the member's node and takes its endpoint down, so pollers see
// a dead peer and back off.
func (m *member) unplug() {
	if m.node != nil {
		m.node.Close()
		m.c.hub.Unregister(m.name)
		m.node = nil
	}
}

// kill hard-stops the member with crash semantics: nothing drained or
// flushed, the WAL detached unsynced (core.Fleet.Kill).
func (m *member) kill() {
	m.unplug()
	m.fleet.Kill()
	m.fleet = nil
}

// restart boots a killed member again from its data directory, under the
// ASLR seed it was first booted with — a persisted checkpoint only restores
// into the layout it was saved from. No warm-up: the restored guest carries
// its served history. The member stays off the federation until join.
func (m *member) restart() error { return m.boot(0) }

// wormContact offers the exploit to the member's guest and reports whether
// the proxy filtered it. When it did not, the contact is played out before
// returning: the guest detects, recovers and — a producer — publishes.
func (m *member) wormContact(payload []byte) (filtered bool) {
	if !m.fleet.Submit(m.guest.Name(), payload, "worm", true) {
		return true
	}
	m.fleet.Drain()
	return false
}

// live returns the members currently up.
func (c *community) live() []*member {
	var up []*member
	for _, m := range c.members {
		if m.fleet != nil {
			up = append(up, m)
		}
	}
	return up
}

// drain lets every live guest finish what it was handed: queued requests,
// and verifying and adopting whatever antibodies arrived.
func (c *community) drain() {
	for _, m := range c.live() {
		m.fleet.Drain()
	}
}

// storeUnion is the number of distinct antibodies across the members' stores.
func storeUnion(ms []*member) int {
	union := make(map[string]bool)
	for _, m := range ms {
		for _, a := range m.fleet.Store().All() {
			union[a.ID] = true
		}
	}
	return len(union)
}

// awaitStores waits, up to communityTimeout, until each listed member's store
// holds at least want antibodies, and reports whether they all did. Gossip
// runs on host-clock goroutines; this is the one place a scenario waits on it.
func awaitStores(ms []*member, want int) bool {
	deadline := time.Now().Add(communityTimeout)
	for {
		behind := false
		for _, m := range ms {
			if m.fleet.Store().Len() < want {
				behind = true
				break
			}
		}
		if !behind {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(communityPoll)
	}
}

// close stops every member still up, and the hub.
func (c *community) close() {
	for _, m := range c.live() {
		m.unplug()
		m.fleet.Stop()
		m.fleet = nil
	}
	c.hub.Close()
}
