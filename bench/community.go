//go:build linux

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sweeper/internal/apps"
	"sweeper/internal/federate"
	"sweeper/internal/metrics"
	"sweeper/internal/netproxy"
)

// A community trial is eight federated daemons, each what `sweeperd
// -data-dir D -peers ...` stands up (durable store, verify-before-adopt),
// full-mesh over the in-process hub. The exploit goes to the producer's
// socket; the trial ends when every consumer filters it.

const (
	communitySize   = 8
	communityWarm   = 50
	immunePoll      = 200 * time.Microsecond
	bystanderPacing = time.Millisecond
)

// member is one daemon of the community with its federation node.
type member struct {
	*daemon
	rec  *metrics.FederationRecorder
	node *federate.Node
}

type community struct {
	hub     *federate.Hub
	members []*member
	dir     string
}

// startCommunity stands the community up under dir: daemon 0 is the
// producer, the rest are consumers; aslr holds one seed per daemon.
func startCommunity(spec *apps.Spec, dir string, aslr []int64, warm []request) (*community, error) {
	c := &community{hub: federate.NewHub(), dir: dir}
	for i, seed := range aslr {
		name := fmt.Sprintf("host%d", i)
		d, err := startDaemon(spec, name, seed, filepath.Join(dir, name), true)
		if err != nil {
			c.stop()
			return nil, err
		}
		m := &member{daemon: d, rec: metrics.NewFederationRecorder()}
		c.members = append(c.members, m)
		if _, err := c.hub.Register(name, d.fleet.Store(), m.rec, ""); err != nil {
			c.stop()
			return nil, err
		}
		m.node = federate.NewNode(d.fleet.Store(), m.rec, federate.Config{Name: name})
	}
	for i, m := range c.members {
		for j := range c.members {
			if i == j {
				continue
			}
			t, err := c.hub.Dial(fmt.Sprintf("host%d", j), "")
			if err == nil {
				err = m.node.AddTransport(t)
			}
			if err != nil {
				c.stop()
				return nil, err
			}
		}
	}
	for _, m := range c.members {
		if err := m.warmUp(warm, communityWarm); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

func (c *community) stop() {
	for _, m := range c.members {
		if m.node != nil {
			m.node.Close()
		}
	}
	c.hub.Close()
	for _, m := range c.members {
		m.daemon.stop()
	}
	os.RemoveAll(c.dir)
}

// federation sums the members' federation counters.
func (c *community) federation() metrics.FederationStats {
	var sum metrics.FederationStats
	for _, m := range c.members {
		s := m.rec.Snapshot()
		sum.Pushed += s.Pushed
		sum.Received += s.Received
		sum.Duplicates += s.Duplicates
	}
	return sum
}

// immune reports whether every consumer has an input filter installed.
func (c *community) immune() bool {
	for _, m := range c.members[1:] {
		if len(m.guest.Sweeper().Proxy().Filters()) == 0 {
			return false
		}
	}
	return true
}

// communityTrial is what one trial measured.
type communityTrial struct {
	standUp time.Duration
	immune  int64 // ns from the exploit frame written to every consumer filtering
	stall   int64 // worst benign round trip at consumer 1 in that window
	outcome
}

// runCommunityTrial runs one trial; the caller stops the community.
func runCommunityTrial(in *attackInputs, dir string, aslr []int64, immuneIn time.Duration) (*communityTrial, *community, error) {
	tr := &communityTrial{}
	t0 := time.Now()
	c, err := startCommunity(in.spec, dir, aslr, in.pool)
	if err != nil {
		return nil, nil, err
	}
	attacker, err := dial(c.members[0].addr)
	if err != nil {
		c.stop()
		return nil, nil, err
	}
	defer attacker.close()
	benign, err := dial(c.members[1].addr)
	if err != nil {
		c.stop()
		return nil, nil, err
	}
	deadline := time.Now().Add(immuneIn + 5*time.Second)
	attacker.deadline(deadline)
	benign.deadline(deadline)
	tr.standUp = time.Since(t0)

	// The bystander is a paced benign client of one consumer: what that
	// consumer's users see while it verifies and adopts the antibodies.
	by := bystander{gap: bystanderPacing}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		by.run(benign, in.pool, in.seq)
	}()

	start := time.Now()
	by.phase.Store(phaseAttack)
	// The producer answers when it has recovered; the community does not
	// wait for that, so neither does the clock: the reply is read after
	// immunity is reached.
	if _, err := attacker.conn.Write(in.exploit[0].frame); err != nil {
		tr.fail("writing the exploit: %v", err)
	}
	for !c.immune() {
		if time.Since(start) > immuneIn {
			tr.fail("community not immune within %v", immuneIn)
			break
		}
		sleepFor(immunePoll)
	}
	tr.immune = int64(time.Since(start))
	by.phase.Store(phaseAfter)
	by.stop.Store(true)
	// The bystander's request in flight is answered in tens of milliseconds
	// or, by a consumer that took it for an attack, never.
	benign.deadline(time.Now().Add(immuneIn / 2))
	wg.Wait()
	benign.close()
	tr.stall = by.worst
	tr.bystanderDone(&by)
	if status, _, err := attacker.readReply(); err != nil || status != netproxy.StatusAbsorbed {
		tr.fail("exploit answered %s (err=%v), want absorbed", netproxy.StatusName(status), err)
	}
	// Confirm the immunity the poll saw: the exploit itself must now be
	// filtered at every consumer's socket.
	for i, m := range c.members[1:] {
		cl, err := dial(m.addr)
		if err != nil {
			c.stop()
			return nil, nil, err
		}
		cl.deadline(deadline)
		if ok, err := cl.roundTrip(&in.exploit[1]); err != nil || !ok {
			tr.fail("consumer %d does not filter the exploit (err=%v)", i+1, err)
		}
		cl.close()
	}
	tr.falseAlarms = c.members[0].unsentAttacks(1)
	for _, m := range c.members[1:] {
		tr.falseAlarms += m.unsentAttacks(0)
	}
	return tr, c, nil
}
