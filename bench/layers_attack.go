//go:build linux

package main

import (
	"fmt"
	"time"

	"sweeper/internal/analysis"
	"sweeper/internal/analysis/coredump"
	"sweeper/internal/apps"
	"sweeper/internal/core"
	"sweeper/internal/exploit"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

const attackWarm = 50

// walkAttack drives fresh guests to the moment of detection and walks the
// attack path's layers by hand, one span per call under a root span per
// attack: core-dump analysis, clone, pooled clone, the three analyzers on
// sandboxes over the rollback checkpoint, rollback.
func walkAttack(seed int64, w walkSizes, rep *report, tr *tracer) error {
	spec := apps.Squid()
	analysisCalls := max(w.micro/20, 1) // repeats of a microsecond-scale call per crashed guest
	registry := core.DefaultRegistry()
	payload := exploit.SquidExploit()
	for aslrSeed := seed; aslrSeed < seed+int64(w.outbreak); aslrSeed++ {
		trace := fmt.Sprintf("attack-%d", aslrSeed)
		s, err := newSweeper(spec, aslrSeed)
		if err != nil {
			return err
		}
		for i := 0; i < attackWarm; i++ {
			if err := serveOne(s, exploit.Benign("squid", i)); err != nil {
				return err
			}
		}
		culprit, _ := s.SubmitTracked(payload, "worm", true)
		p := s.Process()
		root := tr.begin(trace, "attack", 0)
		var stop *vm.StopInfo
		tr.call(trace, "vm.run_to_fault", root, func() { stop = p.Run(0) })
		if stop.Reason != vm.StopFault {
			return fmt.Errorf("ASLR seed %d: the exploit stopped the guest with %v, want a fault", aslrSeed, stop.Reason)
		}
		snap := s.Checkpoints().Latest()
		pool := proc.NewClonePool(p)
		var cd *coredump.Report
		for i := 0; i < analysisCalls; i++ {
			tr.call(trace, "analysis.coredump", root, func() { cd = coredump.Analyze(p, stop) })
			tr.call(trace, "proc.clone", root, func() { _, err = p.Clone(snap) })
			if err != nil {
				return err
			}
			var shell *proc.Process
			tr.call(trace, "proc.pool_get", root, func() { shell, err = pool.Get(snap) })
			if err != nil {
				return err
			}
			pool.Put(shell)
		}
		ctx := analysis.NewContext()
		ctx.Implicate("coredump", cd.FaultPC)
		ctx.SetCulprit(culprit)
		for _, name := range []string{"membug", "taint", "slicing"} {
			a, ok := registry.Get(name)
			if !ok {
				return fmt.Errorf("analyzer %s is not registered", name)
			}
			clone, err := p.Clone(snap)
			if err != nil {
				return err
			}
			sb := analysis.NewSandbox(clone, core.DefaultConfig().ReplayBudget, nil)
			var finding analysis.Finding
			tr.call(trace, "analysis."+name, root, func() { finding, err = a.Run(ctx, sb) })
			if err != nil || finding == nil {
				return fmt.Errorf("ASLR seed %d: analyzer %s: finding %v, err %v", aslrSeed, name, finding, err)
			}
			ctx.AddFinding(name, finding)
		}
		for i := 0; i < analysisCalls; i++ {
			tr.call(trace, "proc.rollback", root, func() { p.Rollback(snap, proc.ModeReplay, false) })
		}
		tr.end(root)
	}
	n := w.outbreak
	micro := fmt.Sprintf("p50 of %d calls on %d guests stopped at detection", n*analysisCalls, n)
	rep.emit("analysis.coredump_us", "us", tr.p50("analysis.coredump")/1e3, "coredump.Analyze, "+micro)
	rep.emit("proc.clone_us", "us", tr.p50("proc.clone")/1e3, "Process.Clone of the rollback checkpoint, "+micro)
	rep.emit("proc.pool_get_us", "us", tr.p50("proc.pool_get")/1e3, "ClonePool.Get of the rollback checkpoint, "+micro)
	rep.emit("proc.rollback_us", "us", tr.p50("proc.rollback")/1e3, "Process.Rollback to the rollback checkpoint, "+micro)
	for _, name := range []string{"membug", "taint", "slicing"} {
		rep.emit("analysis."+name+"_ms", "ms", tr.p50("analysis."+name)/1e6,
			fmt.Sprintf("Analyzer.Run on a sandbox over a clone of the rollback checkpoint, p50 of %d guests", n))
	}
	return nil
}

// walkAttackServe times ServeAll over benign requests plus the exploit of
// each of the four applications on fresh guests: detection, analysis and
// recovery inline. Three of the bug classes are not sent by any end-to-end
// workload; this keeps a number on them.
func walkAttackServe(seed int64, w walkSizes, rep *report, tr *tracer) error {
	for _, spec := range apps.All() {
		payload, err := exploit.Exploit(spec)
		if err != nil {
			return err
		}
		layer := "core.attack_serve." + spec.Name
		for aslrSeed := seed; aslrSeed < seed+int64(w.guests); aslrSeed++ {
			s, err := newSweeper(spec, aslrSeed)
			if err != nil {
				return err
			}
			for i := 0; i < attackWarm; i++ {
				s.Submit(exploit.Benign(spec.Name, i), "bench", false)
			}
			s.Submit(payload, "worm", true)
			var res core.ServeResult
			tr.call(fmt.Sprintf("%s-attack-%d", spec.Name, aslrSeed), layer, 0, func() { res, err = s.ServeAll() })
			s.WaitAnalyses()
			if err != nil || res.AttacksHandled != 1 || res.RequestsServed != attackWarm {
				return fmt.Errorf("%s, ASLR seed %d: %+v, %v", spec.Name, aslrSeed, res, err)
			}
		}
		rep.emit("core.attack_serve_ms."+spec.Name, "ms", tr.p50(layer)/1e6,
			fmt.Sprintf("ServeAll over %d benign requests + the exploit, p50 of %d fresh guests", attackWarm, w.guests))
	}
	return nil
}

// walkRecovery puts a number on the one way a defence is known to fail: a
// guest that absorbs the exploit and from then on takes benign requests for
// attacks. It counts such guests among fresh ones of consecutive ASLR seeds,
// exactly, so the count repeats for a seed and a fix brings it to 0.
func walkRecovery(seed int64, w walkSizes, rep *report) error {
	spec := apps.Squid()
	payload := exploit.SquidExploit()
	after := make([][]byte, 5)
	for i := range after {
		after[i] = exploit.Benign("squid", attackWarm+i)
	}
	var alarmed []int64
	for aslrSeed := seed; aslrSeed < seed+int64(w.recovery); aslrSeed++ {
		s, err := newSweeper(spec, aslrSeed)
		if err != nil {
			return err
		}
		for i := 0; i < attackWarm; i++ {
			s.Submit(exploit.Benign("squid", i), "bench", false)
		}
		if _, err := absorb(s, payload); err != nil {
			return fmt.Errorf("ASLR seed %d: %w", aslrSeed, err)
		}
		alarms, err := falseAlarms(s, after)
		if err != nil {
			return fmt.Errorf("ASLR seed %d: %w", aslrSeed, err)
		}
		if alarms > 0 {
			alarmed = append(alarmed, aslrSeed)
		}
	}
	rep.note("false alarms after recovery: ASLR seeds %v of %d..%d", alarmed, seed, seed+int64(w.recovery)-1)
	rep.emit("core.false_alarm_guests", "count", float64(len(alarmed)),
		fmt.Sprintf("of %d fresh guests (%d benign + the exploit + %d benign, no sockets), those that handled a benign request after recovery as an attack", w.recovery, attackWarm, len(after)))
	return nil
}

// tracedOutbreakTrials runs socket-level outbreak trials as the timed run
// does, records their stages as spans, and reads the attack reports for the
// shares the timed run cannot see. False-alarm trials keep their root span
// and are left out of the figures, as in the timed run.
func tracedOutbreakTrials(seed int64, w walkSizes, rep *report, tr *tracer) error {
	in := newAttackInputs(seed)
	pipelined, good := 0, 0
	for aslrSeed := seed; aslrSeed < seed+int64(w.outbreak); aslrSeed++ {
		trace := fmt.Sprintf("trial-%d", aslrSeed)
		root := tr.begin(trace, "outbreak.trial", 0)
		t0 := time.Now()
		trial, d, err := runOutbreakTrial(in, aslrSeed)
		tr.end(root)
		if err != nil {
			return err
		}
		d.fleet.Drain()
		reports := d.guest.Sweeper().Attacks()
		d.stop()
		if trial.falseAlarms > 0 {
			rep.falseAlarmSeeds = append(rep.falseAlarmSeeds, aslrSeed)
			rep.note("FALSE ALARMS in the traced outbreak trial of ASLR seed %d: the daemon handled %d attacks nobody sent it", aslrSeed, trial.falseAlarms)
			continue
		}
		if trial.failed {
			return fmt.Errorf("traced outbreak trial, ASLR seed %d: %s", aslrSeed, trial.why)
		}
		if len(reports) != 1 {
			return fmt.Errorf("traced outbreak trial, ASLR seed %d: %d attacks handled, want 1", aslrSeed, len(reports))
		}
		good++
		if reports[0].RecoveryPipelined {
			pipelined++
		}
		// The stages are known only once the trial is over; their spans are
		// placed inside the trial's span from the recorded offsets.
		attackAt := tr.spans[root-1].Start + int64(trial.attackAt.Sub(t0))
		for _, st := range []struct {
			layer string
			end   int64
		}{{"core.first_vsef", trial.firstVSEF}, {"core.final_antibody", trial.final}, {"core.absorbed", trial.absorbed}, {"core.client_stall", trial.stall}} {
			id := tr.begin(trace, st.layer, root)
			tr.spans[id-1].Start, tr.spans[id-1].End = attackAt, attackAt+st.end
		}
	}
	if good == 0 {
		return fmt.Errorf("none of the %d traced outbreak trials recovered cleanly", w.outbreak)
	}
	trials := fmt.Sprintf("median of %d socket trials", good)
	rep.emit("core.first_vsef_ms", "ms", tr.p50("core.first_vsef")/1e6, "exploit written -> first antibody of any stage published, "+trials)
	rep.emit("core.final_antibody_ms", "ms", tr.p50("core.final_antibody")/1e6, "exploit written -> final antibody published, "+trials)
	rep.emit("core.absorbed_ms", "ms", tr.p50("core.absorbed")/1e6, "exploit written -> attacker reads absorbed, "+trials)
	rep.emit("core.client_stall_ms", "ms", tr.p50("core.client_stall")/1e6, "worst benign round trip on the other connection overlapping the attack window, "+trials)
	rep.emit("core.pipelined_recovery_share", "ratio", float64(pipelined)/float64(good), "AttackReport.RecoveryPipelined over the trials")
	return nil
}
