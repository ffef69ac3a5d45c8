//go:build linux

package main

import (
	"fmt"
	"time"

	"sweeper/internal/apps"
	"sweeper/internal/core"
)

// daemon is what `sweeperd -app squid -guests 1 -tcp-listen 127.0.0.1:0`
// stands up: a fleet, one protected squid guest with its own ASLR layout and
// a framed TCP front end on a loopback port, serving.
type daemon struct {
	fleet *core.Fleet
	guest *core.Guest
	addr  string
}

// startDaemon builds and starts one daemon. dataDir, when set, makes the
// fleet durable (every publish is a WAL append); verify turns on
// verify-before-adopt, which sweeperd enables whenever it federates.
func startDaemon(spec *apps.Spec, name string, aslrSeed int64, dataDir string, verify bool) (*daemon, error) {
	fleet := core.NewFleetWithOptions(core.FleetOptions{DataDir: dataDir})
	if dataDir != "" && fleet.Durability().Warnings > 0 {
		return nil, fmt.Errorf("daemon %s: data directory %s unusable", name, dataDir)
	}
	cfg := core.DefaultConfig()
	cfg.ASLRSeed = aslrSeed
	cfg.VerifyAdoption = verify
	guest, err := fleet.AddGuest(name, spec.Name, spec.Image, spec.Options, cfg)
	if err != nil {
		return nil, err
	}
	if err := guest.AttachListener("127.0.0.1:0"); err != nil {
		return nil, err
	}
	fleet.Start()
	return &daemon{fleet: fleet, guest: guest, addr: guest.ListenAddr()}, nil
}

func (d *daemon) stop() { d.fleet.Stop() }

// warmUp sends n requests of the pool in order over a fresh connection and
// fails on any wrong reply: a daemon that cannot serve its warm-up cannot be
// measured.
func (d *daemon) warmUp(pool []request, n int) error {
	c, err := dial(d.addr)
	if err != nil {
		return err
	}
	defer c.close()
	c.deadline(time.Now().Add(30 * time.Second))
	for i := 0; i < n; i++ {
		ok, err := c.roundTrip(&pool[i%len(pool)])
		if err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
		if !ok {
			return fmt.Errorf("warm-up request %d: wrong reply", i)
		}
	}
	return nil
}
