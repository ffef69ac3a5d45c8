package experiments

import (
	"testing"

	"sweeper/internal/antibody"
	"sweeper/internal/exploit"
	"sweeper/internal/vm"
)

// TestCommunityMembersRunDistinctLayouts holds the builder to the premise
// every live scenario states — each daemon runs its own randomised layout, so
// an antibody is verified on a host laid out differently from the one that
// made it — at the size the scenarios run: no two of 100 members share a
// layout (host10, host20, … shared one when the seed came from the name's
// length and last byte). And a restart reuses the member's seed: the guest
// comes back in the layout its checkpoint was saved from, so it restores warm.
func TestCommunityMembersRunDistinctLayouts(t *testing.T) {
	c, err := newCommunity(communitySpec{members: 100, producers: 5, root: t.TempDir(), warmup: crashWarmup})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	owner := make(map[vm.Layout]string)
	for _, m := range c.members {
		l := m.guest.Sweeper().Layout()
		if other, taken := owner[l]; taken {
			t.Errorf("%s and %s share layout %+v", other, m.name, l)
		}
		owner[l] = m.name
	}

	m := c.members[20]
	before := m.guest.Sweeper().Layout()
	m.kill()
	if err := m.restart(); err != nil {
		t.Fatal(err)
	}
	if after := m.guest.Sweeper().Layout(); after != before {
		t.Errorf("%s restarted in layout %+v, was booted in %+v", m.name, after, before)
	}
	if dur := m.fleet.Durability(); dur.WarmRestarts != 1 || dur.ColdFallbacks != 0 {
		t.Errorf("%s after restart: warm restarts %d, cold fallbacks %d, want 1 and 0", m.name, dur.WarmRestarts, dur.ColdFallbacks)
	}
}

// TestRogueAntibodySpreadsAndEveryGuestRejectsIt is the community's answer to
// a peer that holds the token but lies: a rogue publisher pushes, into one
// member of a verifying community, a well-formed final antibody whose exploit
// input reproduces nothing. Transit does not judge, so it reaches every store;
// every guest, the producer's included, replays it in a sandbox and rejects it.
func TestRogueAntibodySpreadsAndEveryGuestRejectsIt(t *testing.T) {
	c, err := newCommunity(communitySpec{members: 3, producers: 1, warmup: epidemicWarmup})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for _, m := range c.members {
		if err := m.link(false, c.members...); err != nil {
			t.Fatal(err)
		}
	}
	payload, err := exploit.Exploit(c.app)
	if err != nil {
		t.Fatal(err)
	}
	rogue := &antibody.Antibody{
		ID:           "rogue-final",
		Program:      c.app.Name,
		Stage:        antibody.StageFinal,
		ExploitInput: append([]byte(nil), payload[:len(payload)/4]...),
	}
	rogue.Sigs = []*antibody.Signature{antibody.ExactSignature("rogue-sig", rogue.ExploitInput)}
	if _, err := c.transport(c.members[1]).Push("rogue", []*antibody.Antibody{rogue}); err != nil {
		t.Fatal(err)
	}
	if !awaitStores(c.members, 1) {
		t.Fatal("the rogue antibody did not reach every store")
	}
	c.drain()
	for _, m := range c.members {
		if _, ok := m.fleet.Store().Get(rogue.ID); !ok {
			t.Errorf("%s: store does not hold the rogue antibody", m.name)
		}
		if st := m.guest.Stats(); st.AntibodiesRejected != 1 || st.AntibodiesAdopted != 0 || st.AntibodiesVerified != 0 {
			t.Errorf("%s: rejected=%d adopted=%d verified=%d, want 1, 0, 0",
				m.name, st.AntibodiesRejected, st.AntibodiesAdopted, st.AntibodiesVerified)
		}
	}
}
