//go:build linux

package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sweeper/internal/antibody"
	"sweeper/internal/apps"
	"sweeper/internal/netproxy"
)

// An outbreak trial is one fresh daemon with its own ASLR layout, warmed up,
// serving a closed benign loop on one connection while the other connection
// fires the exploit, then the exploit again, then benign requests.

const (
	outbreakWarm       = 200
	outbreakPostBenign = 20
	trialTimeout       = 5 * time.Second
)

// Attack-window phases seen by the bystander connection.
const (
	phaseBefore int32 = iota
	phaseAttack
	phaseAfter
)

// publishTimes records when the daemon's store first saw any antibody and
// when it saw the final one. The store calls the subscriber on the guest's
// goroutine.
type publishTimes struct{ first, final atomic.Int64 }

func (p *publishTimes) subscribe(store *antibody.Store) {
	store.Subscribe(func(a *antibody.Antibody) {
		now := time.Now().UnixNano()
		p.first.CompareAndSwap(0, now)
		if a.Stage == antibody.StageFinal {
			p.final.CompareAndSwap(0, now)
		}
	})
}

// bystander is the benign closed loop that runs beside an attack and keeps
// the worst round trip it saw overlapping the attack window.
type bystander struct {
	phase  atomic.Int32
	stop   atomic.Bool
	gap    time.Duration // pause between requests; 0 = closed loop flat out
	worst  int64         // ns, among round trips overlapping phaseAttack
	done   int
	failed int
	err    error
}

func (b *bystander) run(c *client, pool []request, seq []int32) {
	for i := 0; !b.stop.Load(); i++ {
		before := b.phase.Load()
		t := time.Now()
		ok, err := c.roundTrip(&pool[seq[i%len(seq)]])
		rtt := int64(time.Since(t))
		if err != nil {
			b.err = err
			return
		}
		b.done++
		if !ok {
			b.failed++
		}
		if before <= phaseAttack && b.phase.Load() >= phaseAttack && rtt > b.worst {
			b.worst = rtt
		}
		if b.gap > 0 {
			sleepFor(b.gap)
		}
	}
}

// outbreakTrial is what one trial measured; durations are ns from the moment
// the exploit frame was written.
type outbreakTrial struct {
	standUp   time.Duration
	attackAt  time.Time
	firstVSEF int64
	final     int64
	absorbed  int64
	stall     int64
	outcome
}

// attackInputs is everything the outbreak and community workloads send,
// drawn from the seed once.
type attackInputs struct {
	spec    *apps.Spec
	pool    []request
	seq     []int32
	exploit [2]request // first must be absorbed, the repeat filtered
}

func newAttackInputs(seed int64) *attackInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &attackInputs{spec: apps.Squid(), pool: smallPool(rng, 1024)}
	in.seq = sequence(rng, 1<<14, len(in.pool))
	in.exploit = [2]request{exploitRequest(netproxy.StatusAbsorbed), exploitRequest(netproxy.StatusFiltered)}
	return in
}

// outcome is whether a trial's defence held. A defence that did not hold is
// a failed trial, counted and reported with its first reason; it is not an
// error of the harness.
//
// One way of failing is known and kept apart. A false alarm is an attack a
// daemon handled that nobody sent it: the trial delivers one exploit to one
// daemon (the repeat is dropped by the filter before the guest sees it), so
// any other entry in a daemon's Sweeper.Attacks() is a benign request taken
// for an attack. A daemon in that state answers benign requests absorbed or
// filtered, or not at all; whatever else went wrong in such a trial is put
// down to it, and the trial is counted as a false-alarm trial, not a failed
// one.
type outcome struct {
	failed      bool
	falseAlarms int
	why         string
}

func (o *outcome) fail(format string, args ...any) {
	if !o.failed {
		o.failed, o.why = true, fmt.Sprintf(format, args...)
	}
}

// good reports whether the trial's timings count.
func (o *outcome) good() bool { return !o.failed && o.falseAlarms == 0 }

// bystanderDone folds what the bystander saw into the outcome.
func (o *outcome) bystanderDone(b *bystander) {
	if b.err != nil || b.failed > 0 {
		o.fail("bystander: %d wrong replies of %d (err=%v)", b.failed, b.done, b.err)
	}
}

// unsentAttacks is the number of attacks the daemon handled beyond the
// exploits, sent of them, that were delivered to its guest.
func (d *daemon) unsentAttacks(sent int) int {
	return max(len(d.guest.Sweeper().Attacks())-sent, 0)
}

// runOutbreakTrial runs one trial against a fresh daemon. An error means the
// trial could not be carried out (the harness failed); a defence that did
// not hold is a failed trial, not an error.
func runOutbreakTrial(in *attackInputs, aslrSeed int64) (*outbreakTrial, *daemon, error) {
	tr := &outbreakTrial{}
	t0 := time.Now()
	d, err := startDaemon(in.spec, "squid-0", aslrSeed, "", false)
	if err != nil {
		return nil, nil, err
	}
	if err := d.warmUp(in.pool, outbreakWarm); err != nil {
		d.stop()
		return nil, nil, fmt.Errorf("aslr seed %d: %w", aslrSeed, err)
	}
	var pub publishTimes
	pub.subscribe(d.fleet.Store())
	attacker, err := dial(d.addr)
	if err != nil {
		d.stop()
		return nil, nil, err
	}
	defer attacker.close()
	benign, err := dial(d.addr)
	if err != nil {
		d.stop()
		return nil, nil, err
	}
	defer benign.close()
	deadline := time.Now().Add(trialTimeout)
	attacker.deadline(deadline)
	benign.deadline(deadline)
	tr.standUp = time.Since(t0)

	var by bystander
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		by.run(benign, in.pool, in.seq)
	}()
	// Let the bystander get going before the attack lands.
	for i := 0; i < 10; i++ {
		if ok, err := attacker.roundTrip(&in.pool[in.seq[i]]); err != nil || !ok {
			tr.fail("benign request before the attack: ok=%v err=%v", ok, err)
		}
	}

	start := time.Now()
	tr.attackAt = start
	by.phase.Store(phaseAttack)
	status, _, err := attacker.do(in.exploit[0].frame)
	tr.absorbed = int64(time.Since(start))
	by.phase.Store(phaseAfter)
	if err != nil || status != netproxy.StatusAbsorbed {
		tr.fail("exploit answered %s (err=%v), want absorbed", netproxy.StatusName(status), err)
	}
	if err == nil {
		if ok, err := attacker.roundTrip(&in.exploit[1]); err != nil || !ok {
			tr.fail("repeated exploit not filtered (err=%v)", err)
		}
		for i := 0; i < outbreakPostBenign; i++ {
			if ok, err := attacker.roundTrip(&in.pool[in.seq[100+i]]); err != nil || !ok {
				tr.fail("benign request %d after recovery: wrong reply (err=%v)", i, err)
				break
			}
		}
	}
	by.stop.Store(true)
	wg.Wait()
	tr.bystanderDone(&by)
	tr.falseAlarms = d.unsentAttacks(1)
	tr.stall = by.worst
	if first, final := pub.first.Load(), pub.final.Load(); first == 0 || final == 0 {
		tr.fail("no final antibody published")
	} else {
		tr.firstVSEF = first - start.UnixNano()
		tr.final = final - start.UnixNano()
	}
	return tr, d, nil
}
