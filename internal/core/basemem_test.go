package core_test

import (
	"fmt"
	"testing"

	"sweeper/internal/apps"
	"sweeper/internal/core"
	"sweeper/internal/exploit"
	"sweeper/internal/vm"
)

// TestFleetMemoryGrowsSublinearly proves the scale-mode memory claim: a
// fleet of N same-program guests (each under its own randomised layout)
// installs N full page tables but interns at most one image's worth of new
// backing pages into the process-wide base store, so the store's
// shared-page counter stays >= 90% and per-guest backing memory shrinks as
// the fleet grows. The guests then serve a steady benign load and must keep
// the bulk of their live pages base-backed (copy-on-write kept private
// pages to the handful each guest actually dirtied).
func TestFleetMemoryGrowsSublinearly(t *testing.T) {
	spec, err := apps.ByName("squid")
	if err != nil {
		t.Fatal(err)
	}
	store := vm.DefaultBaseStore()
	before := store.Stats()

	const fleetSize = 12
	fleet := core.NewFleetWithOptions(core.FleetOptions{})
	var guests []*core.Guest
	for i := 0; i < fleetSize; i++ {
		cfg := core.DefaultConfig()
		cfg.ASLRSeed = 0x5eed + int64(i)*7919 // distinct layouts, like distinct hosts
		g, err := fleet.AddGuest(fmt.Sprintf("mem-%d", i), spec.Name, spec.Image, spec.Options, cfg)
		if err != nil {
			t.Fatal(err)
		}
		guests = append(guests, g)
	}

	after := store.Stats()
	dInstalls := after.Installs - before.Installs
	dInstalled := after.InstalledPages - before.InstalledPages
	dDistinct := after.DistinctPages - before.DistinctPages
	if dInstalls < fleetSize {
		t.Fatalf("fleet of %d performed %d base-image installs", fleetSize, dInstalls)
	}
	perImage := dInstalled / dInstalls
	// Sublinear growth: N installs intern at most ~one image's worth of
	// distinct pages (zero when an earlier test already interned them).
	if dDistinct > perImage {
		t.Errorf("fleet of %d interned %d new backing pages, more than one image (%d)",
			fleetSize, dDistinct, perImage)
	}
	sharedFraction := 1 - float64(dDistinct)/float64(dInstalled)
	if sharedFraction < 0.90 {
		t.Errorf("store shared-page fraction %.3f < 0.90 (distinct +%d, installed +%d)",
			sharedFraction, dDistinct, dInstalled)
	}

	// Steady serving: most live pages must remain base-backed.
	for _, g := range guests {
		for j := 0; j < 60; j++ {
			fleet.Submit(g.Name(), exploit.Benign("squid", j), "client", false)
		}
	}
	fleet.Start()
	fleet.Drain()
	fleet.Stop()
	aggShared, aggTotal := 0, 0
	for _, g := range guests {
		if err := g.ServeError(); err != nil {
			t.Fatal(err)
		}
		s, tot := g.Sweeper().Process().SharedBasePages()
		if tot == 0 {
			t.Fatalf("%s: no pages mapped", g.Name())
		}
		aggShared += s
		aggTotal += tot
	}
	liveFraction := float64(aggShared) / float64(aggTotal)
	if liveFraction < 0.75 {
		t.Errorf("steady fleet keeps %.3f of live pages base-backed (%d/%d), want >= 0.75",
			liveFraction, aggShared, aggTotal)
	}
	t.Logf("fleet=%d: store shared %.3f (distinct +%d / installed +%d), live base-backed %.3f (%d/%d)",
		fleetSize, sharedFraction, dDistinct, dInstalled, liveFraction, aggShared, aggTotal)
}
