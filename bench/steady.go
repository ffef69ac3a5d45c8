//go:build linux

package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sweeper/internal/apps"
	"sweeper/internal/netproxy"
)

// A steady workload is one daemon and two connections (never more than
// nproc: the generator shares the machine with the daemon) in a closed loop:
// each connection sends its next request when the reply arrives. The loop
// runs in half-second segments; between segments the daemon idles for a few
// milliseconds while the reference kernel is timed (calibrate.go).

const (
	connections = 2
	segmentLen  = 500 * time.Millisecond
)

// steadySpec is what distinguishes the three steady workloads.
type steadySpec struct {
	name     string
	pool     func(*rand.Rand, int) []request
	poolSize int
	warm     int // warm-up requests per set-up
	// exploitEvery, when non-zero, makes set-up absorb one exploit (so the
	// guest runs probed and the proxy filters) and every exploitEvery-th
	// request the exact exploit, which must be answered StatusFiltered.
	exploitEvery int
	// memAfter is the number of requests on the first connection after
	// which memory is read. The daemon's memory grows with the requests it
	// has served, so reading it at the end of a timed phase would charge a
	// faster daemon for the extra requests it served.
	memAfter int
	// openRate is the arrival rate, all connections together, of the traced
	// run's open-loop probe.
	openRate float64
}

var steadySpecs = map[string]steadySpec{
	"steady_small": {name: "steady_small", pool: smallPool, poolSize: 4096, warm: 2000, memAfter: 100_000, openRate: 10000},
	"steady_heavy": {name: "steady_heavy", pool: heavyPool, poolSize: 256, warm: 100, memAfter: 4000, openRate: 500},
	"inoculated":   {name: "inoculated", pool: smallPool, poolSize: 4096, warm: 2000, memAfter: 100_000, openRate: 10000, exploitEvery: 10},
}

// steadyRig is one set-up steady workload, ready to be timed.
type steadyRig struct {
	spec  steadySpec
	d     *daemon
	conns [connections]*client
	pool  []request
	seq   [connections][]int32 // closed loop, wrapped around
	sent  [connections]int     // closed-loop requests sent so far

	openSeq [connections][]int32         // open loop, one per arrival
	due     [connections][]time.Duration // open loop arrival offsets
	lat     [connections][]int64         // open loop latency from due time, ns
	late    [connections][]int64         // open loop send lateness, ns; -1 = connection was busy
}

func (r *steadyRig) tearDown() {
	for _, c := range r.conns {
		if c != nil {
			c.close()
		}
	}
	if r.d != nil {
		r.d.stop()
	}
}

// setUpSteady generates the workload's inputs from the seed and stands up
// the daemon they are sent to. open, when non-zero, is the length of the
// open-loop schedule to draw as well.
func setUpSteady(spec steadySpec, seed, aslrSeed int64, open time.Duration) (*steadyRig, error) {
	rng := rand.New(rand.NewSource(seed))
	r := &steadyRig{spec: spec, pool: spec.pool(rng, spec.poolSize)}
	exploitIdx := int32(len(r.pool))
	if spec.exploitEvery > 0 {
		r.pool = append(r.pool, exploitRequest(netproxy.StatusFiltered))
	}
	draw := func(n int) []int32 {
		seq := sequence(rng, n, spec.poolSize)
		if spec.exploitEvery > 0 {
			for i := spec.exploitEvery - 1; i < n; i += spec.exploitEvery {
				seq[i] = exploitIdx
			}
		}
		return seq
	}
	for c := 0; c < connections; c++ {
		r.seq[c] = draw(1 << 16)
	}
	if open > 0 {
		for c := 0; c < connections; c++ {
			r.due[c] = poissonSchedule(rng, spec.openRate/connections, open)
			r.openSeq[c] = draw(len(r.due[c]))
			r.lat[c] = make([]int64, len(r.due[c]))
			r.late[c] = make([]int64, len(r.due[c]))
		}
	}

	d, err := startDaemon(apps.Squid(), spec.name, aslrSeed, "", false)
	if err != nil {
		return nil, err
	}
	r.d = d
	if err := d.warmUp(r.pool[:spec.poolSize], spec.warm); err != nil {
		r.tearDown()
		return nil, err
	}
	for c := range r.conns {
		if r.conns[c], err = dial(d.addr); err != nil {
			r.tearDown()
			return nil, err
		}
	}
	if spec.exploitEvery > 0 {
		if err := r.inoculate(); err != nil {
			r.tearDown()
			return nil, err
		}
	}
	return r, nil
}

// inoculate sends the exploit once: the daemon must absorb it (detect,
// analyse, publish the antibody, recover) and from then on filter it.
func (r *steadyRig) inoculate() error {
	c := r.conns[0]
	c.deadline(time.Now().Add(30 * time.Second))
	absorbed := exploitRequest(netproxy.StatusAbsorbed)
	if ok, err := c.roundTrip(&absorbed); err != nil || !ok {
		return fmt.Errorf("inoculation: the exploit was not absorbed (err=%v)", err)
	}
	// The deferred slicing cross-check outlives the reply; let it finish so
	// it does not run into the timed phases.
	r.d.fleet.Drain()
	if ok, err := c.roundTrip(&r.pool[len(r.pool)-1]); err != nil || !ok {
		return fmt.Errorf("inoculation: the repeated exploit was not filtered (err=%v)", err)
	}
	// A guest that now takes benign requests for attacks cannot be measured
	// as an inoculated server; the caller counts it and moves on.
	c.deadline(time.Now().Add(5 * time.Second))
	for i := 0; i < inoculatedCheck; i++ {
		ok, err := c.roundTrip(&r.pool[r.seq[0][i]])
		if r.d.unsentAttacks(1) > 0 {
			return errFalseAlarm
		}
		if err != nil || !ok {
			return fmt.Errorf("inoculation: wrong reply to benign request %d after recovery (err=%v)", i, err)
		}
	}
	return nil
}

// inoculatedCheck is how many benign requests set-up sends an inoculated
// guest to see that it still serves them.
const inoculatedCheck = 20

// errFalseAlarm is set-up's report that the guest, having absorbed the
// exploit, handles benign requests as attacks (see outcome).
var errFalseAlarm = errors.New("the recovered guest takes benign requests for attacks")

// connCount is what one connection did in a segment or phase.
type connCount struct {
	done, failed int
	err          error
}

// closedRun is what the closed loop measured.
type closedRun struct {
	rtt          [connections][]int64 // every round trip, ns, in the order made
	done, failed int
	busy         time.Duration // wall time inside segments
	// Per segment: requests per second, and ms of process CPU per request.
	rate, cpuPerReq []float64
	heapMB          float64 // live heap when connection 0 had sent spec.memAfter requests
}

// closedLoop runs the closed loop in segments until they add up to total.
func (r *steadyRig) closedLoop(total time.Duration, cal *calibrator) (*closedRun, error) {
	res := &closedRun{}
	for c := range res.rtt {
		res.rtt[c] = make([]int64, 0, int(total.Seconds()*40_000)+1024)
	}
	for res.busy < total {
		if err := r.segment(min(segmentLen, total-res.busy), res); err != nil {
			return nil, err
		}
		cal.slice()
	}
	if res.heapMB == 0 {
		res.heapMB = liveHeapMB()
	}
	return res, nil
}

// segment runs every connection flat out for d.
func (r *steadyRig) segment(d time.Duration, res *closedRun) error {
	var wg sync.WaitGroup
	var out [connections]connCount
	cpu0, start := cpuTime(), time.Now()
	end := start.Add(d)
	for c := range r.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, seq, o := r.conns[c], r.seq[c], &out[c]
			cl.deadline(end.Add(30 * time.Second))
			rtt := res.rtt[c]
			for t := time.Now(); t.Before(end); {
				ok, err := cl.roundTrip(&r.pool[seq[r.sent[c]%len(seq)]])
				if err != nil {
					o.err = err
					break
				}
				now := time.Now()
				took := int64(now.Sub(t))
				t = now
				if len(rtt) < cap(rtt) {
					rtt = append(rtt, took)
				}
				o.done++
				if !ok {
					o.failed++
				}
				r.sent[c]++
				if c == 0 && r.sent[0] == r.spec.memAfter {
					res.heapMB = liveHeapMB()
				}
			}
			res.rtt[c] = rtt
		}(c)
	}
	wg.Wait()
	wall, cpu, done := time.Since(start), cpuTime()-cpu0, 0
	for _, o := range out {
		if o.err != nil {
			return fmt.Errorf("closed loop: %w", o.err)
		}
		done, res.failed = done+o.done, res.failed+o.failed
	}
	res.busy, res.done = res.busy+wall, res.done+done
	if done > 0 {
		res.rate = append(res.rate, float64(done)/wall.Seconds())
		res.cpuPerReq = append(res.cpuPerReq, ms(int64(cpu))/float64(done))
	}
	return nil
}

// openLoop sends every connection's Poisson schedule whatever the daemon
// does, times each request from its due time, and fills lat and late. Only
// the traced run uses it: on this sandbox an idle connection's wake-up costs
// more than the request and varies with the hypervisor, so open-loop
// latencies do not repeat well enough to carry a bound.
func (r *steadyRig) openLoop() (done, failed int, err error) {
	var wg sync.WaitGroup
	var out [connections]connCount
	start := time.Now().Add(time.Millisecond)
	for c := range r.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, o := r.conns[c], &out[c]
			due, seq, lat, late := r.due[c], r.openSeq[c], r.lat[c], r.late[c]
			if len(due) == 0 {
				return
			}
			cl.deadline(start.Add(due[len(due)-1] + 60*time.Second))
			for i := range due {
				target := start.Add(due[i])
				late[i] = -1
				if wait := time.Until(target); wait > 0 {
					// The connection is idle: sleep to the due time (no
					// spinning: the daemon needs the core) and record how
					// late the wake-up was.
					sleepFor(wait)
					late[i] = int64(time.Since(target))
				}
				ok, err := cl.roundTrip(&r.pool[seq[i]])
				if err != nil {
					o.err = err
					return
				}
				lat[i] = int64(time.Since(target))
				o.done++
				if !ok {
					o.failed++
				}
			}
		}(c)
	}
	wg.Wait()
	for _, o := range out {
		done, failed = done+o.done, failed+o.failed
		if o.err != nil {
			err = o.err
		}
	}
	return done, failed, err
}
