package experiments

import (
	"strings"
	"testing"
)

// TestFederatedEpidemicLiveCommunityDefense runs the Figure 6 community flow
// against the real system: three daemons federated over loopback HTTP, one
// producer attacked. Consumers must adopt the producer's antibody only after
// their own exploit-replay verification succeeded, end up inoculated, and a
// corrupted antibody pushed by a rogue publisher must gossip everywhere yet
// be rejected by every guest.
func TestFederatedEpidemicLiveCommunityDefense(t *testing.T) {
	res, err := RunFederatedEpidemic(FederatedEpidemicConfig{Daemons: 3, Producers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("stores did not converge (total %d) within the deadline", res.AntibodiesTotal)
	}
	// Squid's pipeline publishes initial, refined and final antibodies.
	if res.AntibodiesTotal < 2 {
		t.Errorf("converged store holds %d antibodies, want at least initial+final", res.AntibodiesTotal)
	}
	if len(res.Daemons) != 3 {
		t.Fatalf("got results for %d daemons, want 3", len(res.Daemons))
	}

	for _, d := range res.Daemons {
		// Every antibody below crossed a loopback TCP port, not the hub.
		if !strings.HasPrefix(d.Addr, "127.0.0.1:") {
			t.Errorf("%s: endpoint %q is not a loopback HTTP address", d.Name, d.Addr)
		}
		if !d.ExploitFiltered {
			t.Errorf("%s: worm exploit was not filtered after the epidemic response", d.Name)
		}
		if d.StoreLen < res.AntibodiesTotal {
			t.Errorf("%s: store holds %d antibodies, want %d", d.Name, d.StoreLen, res.AntibodiesTotal)
		}
		for _, g := range d.Guests {
			if d.Producer {
				if g.AttacksHandled != 1 || g.Recovered != 1 {
					t.Errorf("%s/%s: attacks=%d recovered=%d, want 1/1", d.Name, g.Guest, g.AttacksHandled, g.Recovered)
				}
				if g.AntibodiesGenerated == 0 {
					t.Errorf("%s/%s: producer generated no antibodies", d.Name, g.Guest)
				}
				continue
			}
			// Consumers were never attacked: everything they know arrived
			// over the wire and went through verify-before-adopt.
			if g.AttacksHandled != 0 {
				t.Errorf("%s/%s: consumer handled %d attacks, want 0 (inoculated)", d.Name, g.Guest, g.AttacksHandled)
			}
			if g.AntibodiesVerified == 0 {
				t.Errorf("%s/%s: consumer adopted without a successful exploit-replay verification", d.Name, g.Guest)
			}
			if g.AntibodiesAdopted == 0 {
				t.Errorf("%s/%s: consumer adopted nothing", d.Name, g.Guest)
			}
			if g.FilteredInputs == 0 {
				t.Errorf("%s/%s: consumer filtered nothing in the final sweep", d.Name, g.Guest)
			}
		}
		if d.Fed.Received == 0 && !d.Producer {
			t.Errorf("%s: consumer received no antibodies over federation", d.Name)
		}
	}

	// The corrupted antibody spreads unimpeded — transit does not judge —
	// but every guest (producer's included) must reject it on verification.
	if res.CorruptedSpread != 3 {
		t.Errorf("corrupted antibody reached %d of 3 stores", res.CorruptedSpread)
	}
	if res.CorruptedRejections != 3 {
		t.Errorf("corrupted antibody rejected by %d guests, want all 3", res.CorruptedRejections)
	}
}
