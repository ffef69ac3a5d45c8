//go:build linux

package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"sweeper/internal/apps"
	"sweeper/internal/checkpoint"
	"sweeper/internal/core"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// The traced run. It is separate from the timed runs and shorter: it walks
// generated inputs of all five workloads through the exported calls of each
// layer on one goroutine, recording a span per call, and derives the
// per-layer metrics from those spans and from counts taken at the same
// boundaries. Layers are properties of the code, not of a workload, so every
// traced run measures all of them whatever -workload says; each workload's
// spans go to their own file under bench/out.

// walkSizes is how much of each thing the traced run walks.
type walkSizes struct {
	small, heavy, probed int           // requests walked through the request path
	outbreak, community  int           // socket-level trials
	guests               int           // fresh guests per application for core.attack_serve_ms
	recovery             int           // fresh squid guests for core.false_alarm_guests
	micro                int           // calls of a microsecond-scale layer function
	slow                 int           // calls of a millisecond-scale one
	store                int           // antibodies in the stores the read and replay calls run over
	openLoop             time.Duration // open-loop probe of each steady workload
}

var fullWalk = walkSizes{small: 2000, heavy: 500, probed: 500, outbreak: 20, community: 10, guests: 30, recovery: 200, micro: 1000, slow: 30, store: 1000, openLoop: 2 * time.Second}

func newSweeper(spec *apps.Spec, aslrSeed int64) (*core.Sweeper, error) {
	cfg := core.DefaultConfig()
	cfg.ASLRSeed = aslrSeed
	return core.New(spec.Name, spec.Image, spec.Options, cfg)
}

// serveOne submits one payload and serves it; any detection is an error.
func serveOne(s *core.Sweeper, payload []byte) error {
	s.Submit(payload, "bench", false)
	res, err := s.ServeAll()
	if err != nil || res.AttacksHandled > 0 || res.RequestsServed != 1 {
		return fmt.Errorf("serving a benign request: %+v, %v", res, err)
	}
	return nil
}

// falseAlarms serves benign payloads one by one and counts those the
// Sweeper handled as attacks.
func falseAlarms(s *core.Sweeper, payloads [][]byte) (int, error) {
	alarms := 0
	for _, p := range payloads {
		s.Submit(p, "bench", false)
		res, err := s.ServeAll()
		s.WaitAnalyses()
		if err != nil || res.AttacksHandled+res.RequestsServed != 1 {
			return alarms, fmt.Errorf("serving a benign request after recovery: %+v, %v", res, err)
		}
		alarms += res.AttacksHandled
	}
	return alarms, nil
}

// absorb makes the Sweeper absorb the squid exploit and returns the report
// with every stage of the antibody.
func absorb(s *core.Sweeper, exploit []byte) (*core.AttackReport, error) {
	s.Submit(exploit, "worm", true)
	res, err := s.ServeAll()
	s.WaitAnalyses()
	if err != nil || res.AttacksHandled != 1 {
		return nil, fmt.Errorf("absorbing the exploit: %+v, %v", res, err)
	}
	rep := s.Attacks()[len(s.Attacks())-1]
	if !rep.Recovered || rep.FinalAntibody == nil || len(rep.FinalAntibody.Sigs) == 0 {
		return nil, fmt.Errorf("absorbing the exploit: no recovery or no final antibody")
	}
	return rep, nil
}

// bareGuest is a process with no Sweeper around it: the vm and proc layers
// alone, plus a checkpoint manager driven by hand.
type bareGuest struct {
	proxy *netproxy.Proxy
	p     *proc.Process
	ckpt  *checkpoint.Manager
}

func newBareGuest(spec *apps.Spec, layout vm.Layout) (*bareGuest, error) {
	proxy := netproxy.New()
	p, err := proc.New(spec.Name, spec.Image, layout, proxy, spec.Options)
	if err != nil {
		return nil, err
	}
	return &bareGuest{proxy: proxy, p: p, ckpt: checkpoint.NewManager(checkpoint.DefaultPolicy())}, nil
}

// requestWalk walks benign requests through the layers a request crosses.
type requestWalk struct {
	tr     *tracer
	rep    *report
	s      *core.Sweeper   // core: the full serve loop
	bare   *bareGuest      // vm+proc and checkpoint alone
	filter *netproxy.Proxy // netproxy: the queue with this guest's filters
}

// walk sends each request through frame codec, proxy queue, full serve loop,
// bare execution and checkpoint capture, one span each under a root span per
// request, and emits the metrics of the given kind ("small", "heavy",
// "probed_small", "probed_heavy").
func (w *requestWalk) walk(kind string, reqs []*request, submitMetric string) error {
	var buf bytes.Buffer
	instr := make([]int64, 0, len(reqs))
	ckpt0 := w.s.Checkpoints().Taken()
	captured0, _ := w.bare.ckpt.ByteStats()
	var runErr error
	for i, r := range reqs {
		trace := fmt.Sprintf("%s-req%d", kind, i)
		payload := r.payload()
		root := w.tr.begin(trace, "request."+kind, 0)
		w.tr.call(trace, "netproxy.frame_"+kind, root, func() {
			netproxy.WriteFrame(&buf, payload)
			netproxy.ReadFrame(&buf)
		})
		w.tr.call(trace, "netproxy."+submitMetric, root, func() {
			w.filter.Submit(payload, "bench", false)
			w.filter.Next()
		})
		w.tr.call(trace, "core.serve_"+kind, root, func() {
			if err := serveOne(w.s, payload); err != nil {
				runErr = err
			}
		})
		i0 := w.bare.p.Machine.InstrCount()
		w.tr.call(trace, "vm.run_"+kind, root, func() {
			w.bare.proxy.Submit(payload, "bench", false)
			if stop := w.bare.p.Run(0); stop.Reason != vm.StopWaitInput {
				runErr = fmt.Errorf("bare guest stopped with %v", stop.Reason)
			}
		})
		instr = append(instr, int64(w.bare.p.Machine.InstrCount()-i0))
		w.tr.call(trace, "checkpoint.capture_"+kind, root, func() { w.bare.ckpt.Checkpoint(w.bare.p) })
		w.tr.end(root)
		if runErr != nil {
			return runErr
		}
	}
	n := float64(len(reqs))
	var totalInstr int64
	perInstr := make([]int64, len(instr)) // picoseconds per instruction
	for i, d := range w.tr.durations("vm.run_" + kind) {
		totalInstr += instr[i]
		perInstr[i] = d * 1000 / instr[i]
	}
	sortInt64(perInstr)
	serve, run, capture := w.tr.p50("core.serve_"+kind), w.tr.p50("vm.run_"+kind), w.tr.p50("checkpoint.capture_"+kind)
	ckptPerReq := float64(w.s.Checkpoints().Taken()-ckpt0) / n
	captured, _ := w.bare.ckpt.ByteStats()

	samples := fmt.Sprintf("p50 of %d calls", len(reqs))
	w.rep.note("%s walk: a request's span lasts %.1f us (p50), of which %.1f us in none of its layer calls: the harness and its span bookkeeping",
		kind, w.tr.p50("request."+kind)/1e3, w.tr.selfP50("request."+kind)/1e3)
	w.rep.emit("core.serve_"+kind+"_ns_per_req", "ns", serve, "Sweeper.Submit + ServeAll of one request, "+samples)
	w.rep.emit("vm.run_"+kind+"_ns_per_instr", "ns", float64(quantile(perInstr, 0.5))/1000, "Process.Run of one request on a bare process / its instructions, "+samples)
	if kind == "small" || kind == "heavy" {
		w.rep.emit("netproxy.frame_"+kind+"_ns", "ns", w.tr.p50("netproxy.frame_"+kind), "WriteFrame + ReadFrame through a bytes.Buffer, "+samples)
		w.rep.emit("vm.instr_per_req_"+kind, "count", float64(totalInstr)/n, "Machine.InstrCount delta / requests")
		w.rep.emit("checkpoint.capture_"+kind+"_us", "us", capture/1e3, "Manager.Checkpoint after one request, "+samples)
		w.rep.emit("checkpoint.captured_bytes_"+kind, "count", float64(captured-captured0)/n, "ByteStats delta / checkpoints")
		w.rep.emit("checkpoint.per_kreq_"+kind, "count", 1000*ckptPerReq, "Manager.Taken per 1000 requests of the core.serve walk")
		w.rep.emit("core.serve_self_share_"+kind, "ratio", 1-(run+capture*ckptPerReq)/serve, "1 - (vm.run + checkpoint.capture x checkpoints/request) / core.serve")
	}
	return nil
}

// walkSteady walks the three steady workloads' inputs and returns the
// attack report whose antibodies the other walks use.
func walkSteady(seed int64, w walkSizes, rep *report, small, heavy, inoc *tracer) (*core.AttackReport, error) {
	spec := apps.Squid()
	rng := rand.New(rand.NewSource(seed))
	pick := func(pool []request, n int) []*request {
		out := make([]*request, n)
		for i := range out {
			out[i] = &pool[rng.Intn(len(pool))]
		}
		return out
	}
	smallReqs, heavyReqs := pick(smallPool(rng, 1024), w.small), pick(heavyPool(rng, 64), w.heavy)

	for _, k := range []struct {
		kind string
		tr   *tracer
		reqs []*request
	}{{"small", small, smallReqs}, {"heavy", heavy, heavyReqs}} {
		s, err := newSweeper(spec, seed)
		if err != nil {
			return nil, err
		}
		bare, err := newBareGuest(spec, s.Layout())
		if err != nil {
			return nil, err
		}
		rw := &requestWalk{tr: k.tr, rep: rep, s: s, bare: bare, filter: netproxy.New()}
		if err := rw.walk(k.kind, k.reqs, "submit_nofilter"); err != nil {
			return nil, err
		}
	}
	rep.emit("netproxy.submit_nofilter_ns", "ns", small.p50("netproxy.submit_nofilter"), "Proxy.Submit + Next with no filter installed")

	// The inoculated guest: the exploit absorbed, the final antibody's
	// probes on the process and its signature on the proxy. As in the timed
	// run, a guest that then takes benign requests for attacks is counted
	// and the next ASLR seed taken.
	exploit := exploitRequest(netproxy.StatusFiltered)
	check := make([][]byte, inoculatedCheck)
	for i := range check {
		check[i] = smallReqs[i%len(smallReqs)].payload()
	}
	var s *core.Sweeper
	var attack *core.AttackReport
	for aslrSeed := seed; ; aslrSeed++ {
		var err error
		if s, err = newSweeper(spec, aslrSeed); err != nil {
			return nil, err
		}
		for _, r := range smallReqs[:min(attackWarm, len(smallReqs))] {
			if err := serveOne(s, r.payload()); err != nil {
				return nil, err
			}
		}
		if attack, err = absorb(s, exploit.payload()); err != nil {
			return nil, err
		}
		alarms, err := falseAlarms(s, check)
		if err != nil {
			return nil, err
		}
		if alarms == 0 {
			break
		}
		rep.falseAlarmSeeds = append(rep.falseAlarmSeeds, aslrSeed)
		rep.note("FALSE ALARMS: the guest of ASLR seed %d answered %d of %d benign requests after recovery as attacks; the inoculated walk takes the next seed", aslrSeed, alarms, len(check))
		if aslrSeed-seed >= maxSeedsPassed {
			return nil, fmt.Errorf("no guest of ASLR seeds %d..%d serves benign requests after absorbing the exploit", seed, aslrSeed)
		}
	}
	final := attack.FinalAntibody
	bare, err := newBareGuest(spec, s.Layout())
	if err != nil {
		return nil, err
	}
	if _, err := final.Apply(bare.p, nil); err != nil {
		return nil, err
	}
	filter := netproxy.New()
	for _, f := range final.Filters() {
		filter.AddFilter(f)
	}
	rw := &requestWalk{tr: inoc, rep: rep, s: s, bare: bare, filter: filter}
	if err := rw.walk("probed_small", smallReqs[:w.probed], "submit_sig_miss"); err != nil {
		return nil, err
	}
	if err := rw.walk("probed_heavy", heavyReqs[:max(w.probed/5, 1)], "submit_sig_miss"); err != nil {
		return nil, err
	}
	rep.emit("netproxy.submit_sig_miss_ns", "ns", inoc.p50("netproxy.submit_sig_miss"), "Proxy.Submit + Next of a benign payload with the final antibody's filter installed")
	sig := final.Sigs[0]
	for i := 0; i < w.micro; i++ {
		trace := fmt.Sprintf("exploit%d", i)
		inoc.call(trace, "netproxy.submit_sig_hit", 0, func() { filter.Submit(exploit.payload(), "worm", true) })
		inoc.call(trace, "antibody.sig_match_exploit", 0, func() { sig.Match(exploit.payload()) })
		inoc.call(trace, "antibody.sig_match_benign", 0, func() { sig.Match(smallReqs[i%len(smallReqs)].payload()) })
	}
	rep.emit("netproxy.submit_sig_hit_ns", "ns", inoc.p50("netproxy.submit_sig_hit"), "Proxy.Submit of the exploit: matched and dropped")
	rep.emit("antibody.sig_match_exploit_ns", "ns", inoc.p50("antibody.sig_match_exploit"), "Signature.Match on the exploit")
	rep.emit("antibody.sig_match_benign_ns", "ns", inoc.p50("antibody.sig_match_benign"), "Signature.Match on a benign payload")
	return attack, nil
}

// echoRTT measures the socket floor: a Listener whose SubmitFunc accepts
// every request and a stub that resolves it at once, with no guest behind.
func echoRTT(tr *tracer, rep *report, reqs []*request) error {
	ids := make(chan int, 1)
	next := 0
	ln, err := netproxy.NewListener("127.0.0.1:0", func(payload []byte, src string) (int, byte) {
		next++
		ids <- next
		return next, netproxy.StatusOK
	})
	if err != nil {
		return err
	}
	stubDone := make(chan struct{})
	go func() {
		defer close(stubDone)
		reply := []byte(squidGenericReply)
		for id := range ids {
			// The listener registers the waiter under the mutex it holds
			// around Submit, and Resolve takes that mutex: the reply cannot
			// run ahead of the waiter.
			ln.Resolve(id, netproxy.StatusOK, reply)
		}
	}()
	c, err := dial(ln.Addr())
	if err == nil {
		c.deadline(time.Now().Add(30 * time.Second))
		for i := 0; i < len(reqs) && err == nil; i++ {
			tr.call(fmt.Sprintf("echo%d", i), "netproxy.listener_echo_rtt", 0, func() { _, _, err = c.do(reqs[i].frame) })
		}
		c.close()
	}
	ln.Close()
	close(ids)
	<-stubDone
	if err != nil {
		return fmt.Errorf("listener echo: %w", err)
	}
	rep.emit("netproxy.listener_echo_rtt_us", "us", tr.p50("netproxy.listener_echo_rtt")/1e3,
		fmt.Sprintf("round trip through a Listener resolved by a stub, no guest; p50 of %d", len(reqs)))
	return nil
}

// openLoopProbe runs a short open loop of each steady workload to report how
// late the generator ran, how much of the request path the layer numbers
// explain, and the share of requests the inoculated proxy filtered.
func openLoopProbe(cfg config, rep *report) error {
	seed, open := cfg.seed, cfg.walk.openLoop
	echo := rep.metrics["netproxy.listener_echo_rtt_us"].Value * 1e3
	serve := map[string]string{"steady_small": "core.serve_small_ns_per_req", "steady_heavy": "core.serve_heavy_ns_per_req", "inoculated": "core.serve_probed_small_ns_per_req"}
	for _, name := range []string{"steady_small", "steady_heavy", "inoculated"} {
		var rig *steadyRig
		err := errFalseAlarm
		for aslrSeed := seed; errors.Is(err, errFalseAlarm) && aslrSeed-seed <= maxSeedsPassed; aslrSeed++ {
			rig, err = setUpSteady(cfg.steadySpec(name), seed, aslrSeed, open)
		}
		if err != nil {
			return err
		}
		before := rig.d.guest.Sweeper().Proxy().Stats()
		_, failed, err := rig.openLoop()
		if err != nil || failed > 0 {
			rig.tearDown()
			return fmt.Errorf("%s open-loop probe: %d wrong replies, %v", name, failed, err)
		}
		rig.d.fleet.Drain()
		after := rig.d.guest.Sweeper().Proxy().Stats()
		var lat, late []int64
		for c := range rig.lat {
			lat = append(lat, rig.lat[c]...)
			for _, l := range rig.late[c] {
				if l >= 0 {
					late = append(late, l)
				}
			}
		}
		rig.tearDown()
		sortInt64(lat)
		sortInt64(late)
		p50 := float64(quantile(lat, 0.5))
		rep.emit("bench.gen_late_p99_us."+name, "us", float64(quantile(late, 0.99))/1e3,
			fmt.Sprintf("open loop, actual send - due time over the %d sends that slept (p50 %.1f us)", len(late), float64(quantile(late, 0.5))/1e3))
		rep.emit("bench.request_path_explained_share."+name, "ratio", (echo+rep.metrics[serve[name]].Value)/p50,
			fmt.Sprintf("(listener_echo_rtt + core.serve) / the median latency from the due time, %.1f us, of %d requests in open loop at %.0f req/s (p99 %.1f us)",
				p50/1e3, len(lat), steadySpecs[name].openRate, float64(quantile(lat, 0.99))/1e3))
		if name == "inoculated" {
			rep.emit("netproxy.filtered_share", "ratio", float64(after.Filtered-before.Filtered)/float64(after.Submitted-before.Submitted),
				fmt.Sprintf("Proxy.Stats over the open loop: %d filtered of %d submitted", after.Filtered-before.Filtered, after.Submitted-before.Submitted))
		}
	}
	return nil
}
