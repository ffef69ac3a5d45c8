package experiments

import (
	"testing"

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
