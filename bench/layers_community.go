//go:build linux

package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sweeper/internal/antibody"
	"sweeper/internal/apps"
	"sweeper/internal/checkpoint"
	"sweeper/internal/core"
	"sweeper/internal/exploit"
	"sweeper/internal/federate"
	"sweeper/internal/metrics"
)

// renamed returns n copies of the antibody under fresh IDs, built before any
// clock starts: a store ignores an ID it already holds.
func renamed(a *antibody.Antibody, prefix string, n int) []*antibody.Antibody {
	out := make([]*antibody.Antibody, n)
	for i := range out {
		cp := *a
		cp.ID = fmt.Sprintf("%s-%d-%s", prefix, i, a.Stage)
		out[i] = &cp
	}
	return out
}

// walkAntibody walks the attack's antibodies through the layers that carry
// them to another host: wire codec, store and WAL, both transports, verify,
// regenerate, apply. dir is scratch space inside the checkout.
func walkAntibody(seed int64, w walkSizes, attack *core.AttackReport, dir string, rep *report, tr *tracer) error {
	final := attack.FinalAntibody
	batch := []*antibody.Antibody{attack.InitialAntibody, attack.RefinedAntibody, final}
	for _, a := range batch {
		if a == nil {
			return fmt.Errorf("the attack produced no three-stage antibody")
		}
	}
	trace := "antibody-" + final.ID
	spec := apps.Squid()

	// Wire codec.
	var wire []byte
	var err error
	for i := 0; i < w.micro && err == nil; i++ {
		tr.call(trace, "antibody.marshal", 0, func() { wire, err = final.Marshal() })
		if err == nil {
			tr.call(trace, "antibody.unmarshal", 0, func() { _, err = antibody.Unmarshal(wire) })
		}
	}
	if err != nil {
		return err
	}
	rep.emit("antibody.marshal_us", "us", tr.p50("antibody.marshal")/1e3, "Antibody.Marshal of the final antibody")
	rep.emit("antibody.unmarshal_us", "us", tr.p50("antibody.unmarshal")/1e3, "antibody.Unmarshal of it")
	rep.emit("antibody.wire_bytes", "count", float64(len(wire)), "its encoded size")

	// Apply on a consumer-like guest.
	consumer, err := newSweeper(spec, seed+1)
	if err != nil {
		return err
	}
	for i := 0; i < attackWarm; i++ {
		if err := serveOne(consumer, exploit.Benign("squid", i)); err != nil {
			return err
		}
	}
	bare, err := newBareGuest(spec, consumer.Layout())
	if err != nil {
		return err
	}
	for i := 0; i < w.micro; i++ {
		var ap *antibody.AppliedAntibody
		tr.call(trace, "antibody.apply", 0, func() { ap, err = final.Apply(bare.p, bare.proxy) })
		if err != nil {
			return err
		}
		ap.Remove()
	}
	rep.emit("antibody.apply_us", "us", tr.p50("antibody.apply")/1e3, "Antibody.Apply(process, proxy): probes and filter installed")

	// Verify and regenerate, as a consumer does before adopting.
	var dec core.VerifyDecision
	for i := 0; i < w.slow; i++ {
		tr.call(trace, "core.verify", 0, func() { dec = consumer.VerifyAntibody(final) })
		if !dec.Adoptable || !dec.Reproduced {
			return fmt.Errorf("verification rejected the antibody: %s", dec.Reason)
		}
		var regen *antibody.Antibody
		tr.call(trace, "core.regenerate", 0, func() { regen = consumer.RegenerateAntibody(final, dec) })
		if regen == nil {
			return fmt.Errorf("nothing regenerated from the verified exploit")
		}
	}
	rep.emit("core.verify_ms", "ms", tr.p50("core.verify")/1e6, fmt.Sprintf("Sweeper.VerifyAntibody on a warmed consumer, p50 of %d", w.slow))
	rep.emit("core.regenerate_ms", "ms", tr.p50("core.regenerate")/1e6, "Sweeper.RegenerateAntibody from that decision")

	// Store: publish in memory and through the WAL, the poll's read, replay.
	mem := antibody.NewStore()
	for _, a := range renamed(final, "mem", w.store) {
		tr.call(trace, "antibody.publish_mem", 0, func() { mem.Publish(a) })
	}
	walDir := filepath.Join(dir, "wal")
	durable, err := antibody.OpenDurable(walDir, antibody.DurableOptions{})
	if err != nil {
		return err
	}
	for _, a := range renamed(final, "wal", w.store) {
		tr.call(trace, "antibody.publish_wal", 0, func() { durable.Publish(a) })
	}
	for i := 0; i < w.micro; i++ {
		tr.call(trace, "antibody.since", 0, func() { mem.Since(w.store - len(batch)) })
	}
	if err := durable.Close(); err != nil {
		return err
	}
	for i := 0; i < min(5, w.slow); i++ {
		var st *antibody.Store
		tr.call(trace, "antibody.wal_replay_1k", 0, func() { st, err = antibody.OpenDurable(walDir, antibody.DurableOptions{}) })
		if err != nil || st.Len() != w.store {
			return fmt.Errorf("WAL replay: %v", err)
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	rep.emit("antibody.publish_mem_us", "us", tr.p50("antibody.publish_mem")/1e3, "Store.Publish on NewStore")
	rep.emit("antibody.publish_wal_us", "us", tr.p50("antibody.publish_wal")/1e3, "Store.Publish on OpenDurable: one WAL append")
	rep.emit("antibody.since_us", "us", tr.p50("antibody.since")/1e3, fmt.Sprintf("Store.Since returning the newest %d of %d", len(batch), w.store))
	rep.emit("antibody.wal_replay_1k_ms", "ms", tr.p50("antibody.wal_replay_1k")/1e6, fmt.Sprintf("OpenDurable over %d stored antibodies, p50 of %d", w.store, min(5, w.slow)))

	// Transports: the in-process hub and HTTP on loopback, which is what
	// `sweeperd -peers` uses.
	hub := federate.NewHub()
	defer hub.Close()
	peerStore, rec := antibody.NewStore(), metrics.NewFederationRecorder()
	if _, err := hub.Register("peer", peerStore, rec, ""); err != nil {
		return err
	}
	hubT, err := hub.Dial("peer", "")
	if err != nil {
		return err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: federate.NewServer(antibody.NewStore(), rec)}
	served := make(chan struct{})
	go func() { srv.Serve(lis); close(served) }()
	defer func() { srv.Close(); <-served }()
	httpT := federate.NewPeer(lis.Addr().String(), 5*time.Second)
	for _, t := range []struct {
		name  string
		t     federate.Transport
		calls int
	}{{"hub", hubT, w.micro}, {"http", httpT, max(w.micro/3, 1)}} {
		for i := 0; i < t.calls && err == nil; i++ {
			tr.call(trace, "federate."+t.name+"_push", 0, func() { _, err = t.t.Push("bench", batch) })
			if err == nil {
				tr.call(trace, "federate."+t.name+"_pull", 0, func() { _, err = t.t.Pull(0) })
			}
		}
		if err != nil {
			return fmt.Errorf("%s transport: %w", t.name, err)
		}
		rep.emit("federate."+t.name+"_push_us", "us", tr.p50("federate."+t.name+"_push")/1e3, fmt.Sprintf("Transport.Push of the %d-stage batch", len(batch)))
		rep.emit("federate."+t.name+"_pull_us", "us", tr.p50("federate."+t.name+"_pull")/1e3, "Transport.Pull(0) returning that batch")
	}

	// Checkpoint persistence of a warmed guest.
	ds, err := checkpoint.OpenDiskStore(filepath.Join(dir, "checkpoints"))
	if err != nil {
		return err
	}
	snap := consumer.Checkpoints().Checkpoint(consumer.Process())
	for i := 0; i < w.slow; i++ {
		guest := fmt.Sprintf("guest%d", i)
		tr.call(trace, "checkpoint.disk_save", 0, func() { err = ds.Save(guest, snap, consumer.Layout()) })
		if err == nil {
			tr.call(trace, "checkpoint.disk_load", 0, func() { _, err = ds.Load(guest) })
		}
		if err != nil {
			return err
		}
	}
	rep.emit("checkpoint.disk_save_us", "us", tr.p50("checkpoint.disk_save")/1e3, fmt.Sprintf("DiskStore.Save of a warmed guest under a new name, p50 of %d", w.slow))
	rep.emit("checkpoint.disk_load_us", "us", tr.p50("checkpoint.disk_load")/1e3, "DiskStore.Load of it")
	return nil
}

// walkSpread measures gossip alone: eight nodes over bare stores, full mesh
// on the hub, no guests. An antibody published at one is timed until all
// eight stores hold it.
func walkSpread(w walkSizes, attack *core.AttackReport, rep *report, tr *tracer) error {
	hub := federate.NewHub()
	defer hub.Close()
	stores := make([]*antibody.Store, communitySize)
	nodes := make([]*federate.Node, communitySize)
	for i := range stores {
		stores[i] = antibody.NewStore()
		rec := metrics.NewFederationRecorder()
		name := fmt.Sprintf("node%d", i)
		if _, err := hub.Register(name, stores[i], rec, ""); err != nil {
			return err
		}
		nodes[i] = federate.NewNode(stores[i], rec, federate.Config{Name: name})
		defer nodes[i].Close()
	}
	for i, node := range nodes {
		for j := range nodes {
			if i == j {
				continue
			}
			t, err := hub.Dial(fmt.Sprintf("node%d", j), "")
			if err == nil {
				err = node.AddTransport(t)
			}
			if err != nil {
				return err
			}
		}
	}
	everywhere := func(id string) bool {
		for _, st := range stores {
			if _, ok := st.Get(id); !ok {
				return false
			}
		}
		return true
	}
	for k, a := range renamed(attack.FinalAntibody, "spread", w.slow) {
		timedOut := false
		tr.call("antibody-"+a.ID, "federate.spread", 0, func() {
			start := time.Now()
			stores[k%communitySize].Publish(a)
			for !everywhere(a.ID) && !timedOut {
				timedOut = time.Since(start) > spreadTimeout
				runtime.Gosched()
			}
		})
		if timedOut {
			return fmt.Errorf("gossip did not reach all %d stores within %v", communitySize, spreadTimeout)
		}
	}
	rep.emit("federate.spread_ms", "ms", tr.p50("federate.spread")/1e6,
		fmt.Sprintf("publish at one of %d nodes over bare stores -> all hold it, p50 of %d", communitySize, w.slow))
	return nil
}

// tracedCommunityTrials runs socket-level community trials as the timed run
// does and sums the federation counters the timed run does not read.
func tracedCommunityTrials(cfg config, dir string, rep *report, tr *tracer) error {
	in := newAttackInputs(cfg.seed)
	n := cfg.walk.community
	var fed metrics.FederationStats
	var antibodies, created, reused int
	var stalls []int64
	for i := 0; i < n; i++ {
		trace := fmt.Sprintf("community-trial%d", i)
		seeds := cfg.communitySeeds(i)
		root := tr.begin(trace, "community.trial", 0)
		trial, c, err := runCommunityTrial(in, dir, seeds, cfg.immuneIn)
		tr.end(root)
		if err != nil {
			return err
		}
		// Let the gossip of every stage settle before reading the counters.
		for _, m := range c.members {
			m.fleet.Drain()
			cr, re := m.guest.Sweeper().ClonePoolStats()
			created, reused = created+cr, reused+re
		}
		s := c.federation()
		fed.Pushed, fed.Received, fed.Duplicates = fed.Pushed+s.Pushed, fed.Received+s.Received, fed.Duplicates+s.Duplicates
		antibodies += c.members[0].fleet.Store().Len()
		c.stop()
		if trial.falseAlarms > 0 {
			rep.falseAlarmSeeds = append(rep.falseAlarmSeeds, seeds[0])
			rep.note("FALSE ALARMS in traced community trial %d (ASLR seeds %d..%d): daemons handled %d attacks nobody sent them", i, seeds[0], seeds[len(seeds)-1], trial.falseAlarms)
			continue
		}
		if trial.failed {
			return fmt.Errorf("traced community trial %d: %s", i, trial.why)
		}
		id := tr.begin(trace, "community.immune", root)
		tr.spans[id-1].End = tr.spans[root-1].End
		tr.spans[id-1].Start = tr.spans[id-1].End - trial.immune
		stalls = append(stalls, trial.stall)
	}
	if len(stalls) == 0 {
		return fmt.Errorf("none of the %d traced community trials ended without a false alarm", n)
	}
	sortInt64(stalls)
	rep.emit("core.consumer_stall_ms", "ms", ms(quantile(stalls, 0.5)),
		fmt.Sprintf("worst round trip of a paced benign client (1 request/ms) at one consumer while it verifies and adopts, median of %d trials", len(stalls)))
	rep.emit("federate.duplicates_share", "ratio", float64(fed.Duplicates)/float64(fed.Received+fed.Duplicates),
		fmt.Sprintf("FederationStats over %d trials: %d duplicates, %d received", n, fed.Duplicates, fed.Received))
	rep.emit("core.clone_pool_reuse_share", "ratio", float64(reused)/float64(created+reused),
		fmt.Sprintf("ClonePoolStats over every daemon: %d sandboxes reused, %d built", reused, created))
	rep.emit("federate.pushes_per_antibody", "ratio", float64(fed.Pushed)/float64(antibodies),
		fmt.Sprintf("%d pushed / %d antibodies published", fed.Pushed, antibodies))
	return nil
}

// spreadTimeout bounds one gossip round over bare stores.
const spreadTimeout = 10 * time.Second

// runTraced is the traced run: the walk of every layer, the span files, the
// per-layer metrics.
func runTraced(cfg config, rep *report) error {
	seed, w := cfg.seed, cfg.walk
	scratch := cfg.scratchDir()
	defer os.RemoveAll(scratch)
	tracers := map[string]*tracer{}
	for _, name := range []string{"steady_small", "steady_heavy", "inoculated", "outbreak", "community"} {
		tracers[name] = newTracer(name)
	}
	rep.note("traced run: %d small / %d heavy / %d probed requests, %d outbreak and %d community trials; span files under %s",
		w.small, w.heavy, w.probed, w.outbreak, w.community, cfg.outDir)

	attack, err := walkSteady(seed, w, rep, tracers["steady_small"], tracers["steady_heavy"], tracers["inoculated"])
	if err != nil {
		return err
	}
	pool := newAttackInputs(seed).pool
	reqs := make([]*request, w.micro)
	for i := range reqs {
		reqs[i] = &pool[i%len(pool)]
	}
	steps := []func() error{
		func() error { return echoRTT(tracers["steady_small"], rep, reqs) },
		func() error { return openLoopProbe(cfg, rep) },
		func() error { return walkAttack(seed, w, rep, tracers["outbreak"]) },
		func() error { return walkAttackServe(seed, w, rep, tracers["outbreak"]) },
		func() error { return walkRecovery(seed, w, rep) },
		func() error { return tracedOutbreakTrials(seed, w, rep, tracers["outbreak"]) },
		func() error { return walkAntibody(seed, w, attack, scratch, rep, tracers["community"]) },
		func() error { return walkSpread(w, attack, rep, tracers["community"]) },
		func() error {
			return tracedCommunityTrials(cfg, filepath.Join(scratch, "trial"), rep, tracers["community"])
		},
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	for _, t := range tracers {
		if err := t.write(cfg.outDir); err != nil {
			return err
		}
		rep.attempted += len(t.spans)
	}
	return nil
}
