//go:build linux

package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// The end-to-end runs. Every workload reports the same six metrics about
// its own unit of service ("op"): a request on the steady workloads, an
// absorbed attack on outbreak, an immunised community on community.

// config is what sizes a run. The smoke test runs every workload with a
// small one; nothing else differs between it and a full run.
type config struct {
	seed            int64
	measure         time.Duration // how long a steady workload's closed loop is timed
	outbreakTrials  int           // fixed per run, so that a seed names the same trials on any machine
	communityTrials int
	daemons         int           // of a community: communitySize, fewer only in the race detector's smoke test
	outDir          string        // span files and the daemons' scratch data
	setUps          int           // a steady set-up is repeated this often; setup_s is the median
	warmDiv         int           // the smoke test divides the steady workloads' warm-up by this
	sharedCPU       float64       // most CPUs the process may use while the reference kernel is timed; 0 = unchecked
	immuneIn        time.Duration // a community must be immune within this
	walk            walkSizes     // the traced run
}

// fullConfig sizes a run of the given length. The trial counts are what this
// sandbox does in that time when the host is quiet (about 55 ms an outbreak
// trial and 220 ms a community trial, collection and calibration included);
// on a slower machine the run lasts longer, it does not run fewer trials.
func fullConfig(seed int64, seconds int) config {
	return config{
		seed: seed, measure: time.Duration(seconds) * time.Second,
		outbreakTrials: 16 * seconds, communityTrials: 9 * seconds / 2, daemons: communitySize,
		outDir: filepath.Join("bench", "out"),
		setUps: 9, warmDiv: 1, sharedCPU: maxSharedCPU, immuneIn: 2 * time.Second, walk: fullWalk,
	}
}

// communitySeeds are the ASLR seeds of community trial i, the producer's first.
func (cfg config) communitySeeds(i int) []int64 {
	seeds := make([]int64, cfg.daemons)
	for j := range seeds {
		seeds[j] = cfg.seed + int64(i*cfg.daemons+j)
	}
	return seeds
}

func (cfg config) steadySpec(name string) steadySpec {
	spec := steadySpecs[name]
	spec.warm = max(spec.warm/cfg.warmDiv, 1)
	return spec
}

// scratchDir is where community daemons keep their durable state: under the
// output directory, one per process, removed after each trial.
func (cfg config) scratchDir() string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("data-%d", os.Getpid()))
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func medianDuration(ds []time.Duration) time.Duration {
	s := make([]int64, len(ds))
	for i, d := range ds {
		s[i] = int64(d)
	}
	sortInt64(s)
	return time.Duration(quantile(s, 0.5))
}

// scaled emits durations and rates brought to the reference machine speed.
type scaled struct {
	rep *report
	k   float64
}

func (s scaled) dur(name, unit string, v float64, detail string) {
	s.rep.emit(name, unit, v*s.k, detail+"; "+raw(v, unit))
}

func (s scaled) rate(name, unit string, v float64, detail string) {
	s.rep.emit(name, unit, v/s.k, detail+"; "+raw(v, unit))
}

// ownDur is dur for a figure only this workload has.
func (s scaled) ownDur(name, unit string, v float64, detail string) {
	s.rep.emitOwn(name, unit, v*s.k, detail+"; "+raw(v, unit))
}

// maxSeedsPassed bounds how many ASLR seeds an inoculated set-up may find
// unusable before the run gives up.
const maxSeedsPassed = 16

func runSteady(spec steadySpec, cfg config, rep *report) error {
	cal := newCalibrator()
	aslrSeed := cfg.seed
	var rig *steadyRig
	var setUps []time.Duration
	for len(setUps) < cfg.setUps {
		if rig != nil {
			rig.tearDown()
		}
		t0 := time.Now()
		var err error
		rig, err = setUpSteady(spec, cfg.seed, aslrSeed, 0)
		if errors.Is(err, errFalseAlarm) && len(rep.falseAlarmSeeds) < maxSeedsPassed {
			// Counted and printed, not hidden: the guest of this seed was
			// stood up, absorbed the exploit and now takes benign requests
			// for attacks. There is nothing to time on it.
			rep.falseAlarmSeeds = append(rep.falseAlarmSeeds, aslrSeed)
			aslrSeed++
			continue
		}
		if err != nil {
			return err
		}
		setUps = append(setUps, time.Since(t0))
		cal.slice()
	}
	defer rig.tearDown()
	m, err := rig.closedLoop(cfg.measure, cal)
	if err != nil {
		return err
	}
	if err := cal.check(cfg.sharedCPU); err != nil {
		return err
	}
	rep.attempted, rep.failed = m.done, m.failed
	rtt := append(m.rtt[0], m.rtt[1]...)
	rep.note("%s: closed loop on %d connections, %d requests in %d segments of %v; ASLR seed %d", spec.name, connections, m.done, len(m.rate), segmentLen, aslrSeed)
	if len(rep.falseAlarmSeeds) > 0 {
		rep.note("FALSE ALARMS: with ASLR seeds %v the guest, once it had absorbed the exploit, handled benign requests as attacks; the next seed was taken", rep.falseAlarmSeeds)
	}
	cal.note(rep)
	s := scaled{rep, cal.scale()}
	s.dur("setup_s", "s", medianDuration(setUps).Seconds(),
		fmt.Sprintf("median of %d set-ups: inputs, image, daemon, %d warm-up requests, connections", len(setUps), spec.warm))
	s.rate("ops_per_s", "1/s", medianOf(m.rate), fmt.Sprintf("requests / time of a segment, median of %d segments", len(m.rate)))
	s.dur("cpu_ms_per_op", "ms", medianOf(m.cpuPerReq), "process user+sys CPU / requests of a segment, median of segments")
	s.dur("op_p50_ms", "ms", ms(median(rtt)), fmt.Sprintf("request round trip, median of %d", len(rtt)))
	s.dur("op_tail_ms", "ms", ms(blockQuantile(rtt, 0.9)), fmt.Sprintf("request round trip, p90 (%d beyond): median over blocks of consecutive round trips", len(rtt)/10))
	rep.emit("mem_mb", "MB", m.heapMB, fmt.Sprintf("live heap after a collection when the first connection had sent %d requests", min(spec.memAfter, rig.sent[0])))
	return nil
}

// trialStats turns per-trial samples into the shared end-to-end metrics.
type trialStats struct {
	setUpOnce time.Duration
	// Of good trials only, in the order run.
	standUps  []time.Duration
	op, stall []int64   // ns
	wall, cpu []float64 // s and ms a trial took, stand-up and tear-down included
	heapMB    []float64 // live heap at the end of a trial, its daemons still up
}

// trialLoop runs n trials, one per call of trial with the trial's number,
// and files each under its outcome; only good trials are timed. trial leaves
// its daemons up and returns what stops them, so that the memory they hold
// can be read first. Between trials, outside the trials' clocks, the loop
// collects the garbage of the daemons just stopped, so that a trial's pauses
// are its own, and times the reference kernel.
func trialLoop(cfg config, n int, rep *report, cal *calibrator, ts *trialStats, trial func(i int) (first int64, standUp time.Duration, o outcome, stop func(), err error)) error {
	for i := 0; i < n; i++ {
		cpu0, t0 := cpuTime(), time.Now()
		first, standUp, o, stop, err := trial(i)
		if err != nil {
			return err
		}
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		heapMB := liveHeapMB()
		cpu0, t0 = cpuTime(), time.Now()
		stop()
		wall, cpu = wall+time.Since(t0), cpu+cpuTime()-cpu0
		rep.attempted++
		switch {
		case o.falseAlarms > 0:
			rep.falseAlarmSeeds = append(rep.falseAlarmSeeds, first)
		case o.failed:
			rep.failed++
			rep.note("FAILED trial %d, first ASLR seed %d: %s", i, first, o.why)
		default:
			ts.wall, ts.cpu, ts.heapMB = append(ts.wall, wall.Seconds()), append(ts.cpu, ms(int64(cpu))), append(ts.heapMB, heapMB)
			ts.standUps = append(ts.standUps, standUp)
		}
		runtime.GC()
		cal.slice()
	}
	if len(rep.falseAlarmSeeds) > 0 {
		rep.note("FALSE ALARMS in %d of %d trials (first ASLR seeds %v): a daemon handled attacks nobody sent it; counted apart from failed, left out of the timings",
			len(rep.falseAlarmSeeds), n, rep.falseAlarmSeeds)
	}
	return cal.check(cfg.sharedCPU)
}

func (ts *trialStats) emit(rep *report, s scaled, opName string) {
	n := len(ts.op)
	s.dur("setup_s", "s", (ts.setUpOnce + medianDuration(ts.standUps)).Seconds(),
		fmt.Sprintf("inputs and image once, plus the median of %d per-trial stand-ups", len(ts.standUps)))
	s.rate("ops_per_s", "1/s", 1/medianOf(ts.wall), fmt.Sprintf("1 / the time a trial takes, stand-up and tear-down included, median of %d good trials", n))
	s.dur("cpu_ms_per_op", "ms", medianOf(ts.cpu), "process user+sys CPU over a trial, median of good trials")
	s.dur("op_p50_ms", "ms", ms(median(ts.op)), fmt.Sprintf("%s, median of %d trials", opName, n))
	s.dur("op_tail_ms", "ms", ms(blockQuantile(ts.op, 0.9)), fmt.Sprintf("same, p90 (%d trials beyond): median over blocks of consecutive trials", n/10))
	rep.emit("mem_mb", "MB", medianOf(ts.heapMB), "live heap after a collection at the end of a trial, its daemons still up, median of good trials")
}

func runOutbreak(cfg config, rep *report) error {
	cal := newCalibrator()
	t0 := time.Now()
	in := newAttackInputs(cfg.seed)
	ts := &trialStats{setUpOnce: time.Since(t0)}
	var firstVSEF, final []int64
	err := trialLoop(cfg, cfg.outbreakTrials, rep, cal, ts, func(i int) (int64, time.Duration, outcome, func(), error) {
		seed := cfg.seed + int64(i)
		tr, d, err := runOutbreakTrial(in, seed)
		if err != nil {
			return seed, 0, outcome{}, nil, err
		}
		if tr.good() {
			ts.op = append(ts.op, tr.absorbed)
			ts.stall = append(ts.stall, tr.stall)
			firstVSEF = append(firstVSEF, tr.firstVSEF)
			final = append(final, tr.final)
		}
		return seed, tr.standUp, tr.outcome, d.stop, nil
	})
	if err != nil {
		return err
	}
	rep.note("outbreak: %d trials, ASLR seeds %d..%d", rep.attempted, cfg.seed, cfg.seed+int64(rep.attempted)-1)
	cal.note(rep)
	s := scaled{rep, cal.scale()}
	ts.emit(rep, s, "absorbed_ms: exploit written -> attacker reads absorbed")
	trials := fmt.Sprintf("of %d trials", len(ts.op))
	s.ownDur("first_vsef_ms", "ms", ms(median(firstVSEF)), "exploit written -> first antibody of any stage published, median "+trials)
	s.ownDur("final_antibody_ms", "ms", ms(median(final)), "exploit written -> final antibody published, median "+trials)
	s.ownDur("client_stall_ms", "ms", ms(median(ts.stall)), "worst benign round trip on the other connection during the attack, median "+trials)
	s.ownDur("client_stall_p90_ms", "ms", ms(blockQuantile(ts.stall, 0.9)), fmt.Sprintf("same, p90 (%d trials beyond): median over blocks of consecutive trials", len(ts.stall)/10))
	return nil
}

func runCommunity(cfg config, rep *report) error {
	cal := newCalibrator()
	t0 := time.Now()
	in := newAttackInputs(cfg.seed)
	ts := &trialStats{setUpOnce: time.Since(t0)}
	dir := cfg.scratchDir()
	err := trialLoop(cfg, cfg.communityTrials, rep, cal, ts, func(i int) (int64, time.Duration, outcome, func(), error) {
		seeds := cfg.communitySeeds(i)
		tr, c, err := runCommunityTrial(in, dir, seeds, cfg.immuneIn)
		if err != nil {
			return seeds[0], 0, outcome{}, nil, err
		}
		if tr.good() {
			ts.op = append(ts.op, tr.immune)
			ts.stall = append(ts.stall, tr.stall)
		}
		return seeds[0], tr.standUp, tr.outcome, c.stop, nil
	})
	if err != nil {
		return err
	}
	rep.note("community: %d trials of %d daemons, ASLR seeds %d..%d, the producer's first", rep.attempted, cfg.daemons, cfg.seed, cfg.seed+int64(rep.attempted*cfg.daemons)-1)
	cal.note(rep)
	s := scaled{rep, cal.scale()}
	ts.emit(rep, s, fmt.Sprintf("community_immune_ms: exploit written -> all %d consumers filter it", cfg.daemons-1))
	s.ownDur("consumer_stall_ms", "ms", ms(median(ts.stall)),
		fmt.Sprintf("worst round trip of a paced benign client (1 request/ms) at one consumer while it verifies and adopts, median of %d trials", len(ts.stall)))
	return nil
}
