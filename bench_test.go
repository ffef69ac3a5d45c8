// Package bench contains the top-level benchmark harness: one benchmark per
// table and figure of the paper's evaluation, so that
//
//	go test -bench=. -benchmem
//
// regenerates the quantities behind Tables 1-3 and Figures 4-5, plus the
// ablation and baseline comparisons of README.md's Performance section.
// Figures 6-8 come from cmd/benchtables and are checked by
// internal/experiments' tests. Custom metrics (overhead fractions, infection
// ratios, virtual-time gaps) are attached to the benchmark results via
// ReportMetric.
//
// Every benchmark's body is factored into a one-iteration function
// registered in benchOnce (bench_smoke_test.go), so that plain `go test`
// executes each benchmark exactly once — the -benchtime=1x equivalent — and
// the paper-table benchmarks cannot silently rot.
package bench

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"sweeper/internal/analysis/slicing"
	"sweeper/internal/antibody"
	"sweeper/internal/apps"
	"sweeper/internal/core"
	"sweeper/internal/experiments"
	"sweeper/internal/exploit"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// --- Table 1: the evaluated applications (program construction cost) ---

func table1Once(tb testing.TB) {
	specs := apps.All()
	if len(specs) != 4 {
		tb.Fatalf("expected 4 applications, got %d", len(specs))
	}
}

func BenchmarkTable1BuildApplications(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table1Once(b)
	}
}

// --- Table 2: full defence pipeline functionality, one benchmark per app ---

func defenseOnce(tb testing.TB, app string) *experiments.DefenseRun {
	run, err := experiments.RunDefense(app, 8, 8, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if !run.Report.Recovered {
		tb.Fatalf("recovery failed for %s", app)
	}
	return run
}

func benchmarkDefense(b *testing.B, app string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		defenseOnce(b, app)
	}
}

func BenchmarkTable2DefenseApache1(b *testing.B) { benchmarkDefense(b, "apache1") }
func BenchmarkTable2DefenseApache2(b *testing.B) { benchmarkDefense(b, "apache2") }
func BenchmarkTable2DefenseCVS(b *testing.B)     { benchmarkDefense(b, "cvs") }
func BenchmarkTable2DefenseSquid(b *testing.B)   { benchmarkDefense(b, "squid") }

// --- Table 3: analysis pipeline timings ---

func analysisTimesOnce(tb testing.TB, app string) (firstVSEF, bestVSEF, total float64) {
	run := defenseOnce(tb, app)
	r := run.Report
	return r.TimeToFirstVSEF.Seconds(), r.TimeToBestVSEF.Seconds(), r.TotalAnalysisTime.Seconds()
}

func benchmarkAnalysisTimes(b *testing.B, app string) {
	b.Helper()
	var firstVSEF, bestVSEF, total float64
	for i := 0; i < b.N; i++ {
		f, best, tot := analysisTimesOnce(b, app)
		firstVSEF += f
		bestVSEF += best
		total += tot
	}
	n := float64(b.N)
	b.ReportMetric(firstVSEF/n*1e3, "ms-to-first-VSEF")
	b.ReportMetric(bestVSEF/n*1e3, "ms-to-best-VSEF")
	b.ReportMetric(total/n*1e3, "ms-total-analysis")
}

func BenchmarkTable3AnalysisApache1(b *testing.B) { benchmarkAnalysisTimes(b, "apache1") }
func BenchmarkTable3AnalysisSquid(b *testing.B)   { benchmarkAnalysisTimes(b, "squid") }

// --- Table 3 variant: pooled vs fresh clone sandboxes ---

// pooledVsFreshOnce measures per-attack analysis-sandbox setup cost on the
// real Squid image: building a fresh Process.Clone (new Machine + page-map
// copy) versus resetting a pooled shell (proc.ClonePool). Each mode is timed
// best-of-3 over a batch of clones to shed collector noise.
func pooledVsFreshOnce(tb testing.TB) (freshNs, pooledNs float64) {
	spec, err := apps.ByName("squid")
	if err != nil {
		tb.Fatal(err)
	}
	proxy := netproxy.New()
	p, err := proc.New(spec.Name, spec.Image, vm.DefaultLayout(), proxy, spec.Options)
	if err != nil {
		tb.Fatal(err)
	}
	snap := p.Snapshot(1)
	for i := 0; i < 8; i++ {
		proxy.Submit(exploit.Benign("squid", i), "client", false)
	}
	if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
		tb.Fatalf("squid did not quiesce: %v", stop.Reason)
	}

	const batch = 32
	bestOf := func(f func()) float64 {
		best := -1.0
		for r := 0; r < 3; r++ {
			runtime.GC()
			start := time.Now()
			f()
			if ns := float64(time.Since(start).Nanoseconds()) / batch; best < 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	freshNs = bestOf(func() {
		for i := 0; i < batch; i++ {
			if _, err := p.Clone(snap); err != nil {
				tb.Fatal(err)
			}
		}
	})
	pool := proc.NewClonePool(p)
	warm, err := pool.Get(snap)
	if err != nil {
		tb.Fatal(err)
	}
	pool.Put(warm)
	pooledNs = bestOf(func() {
		for i := 0; i < batch; i++ {
			c, err := pool.Get(snap)
			if err != nil {
				tb.Fatal(err)
			}
			pool.Put(c)
		}
	})
	return freshNs, pooledNs
}

func BenchmarkTable3PooledVsFreshClone(b *testing.B) {
	var freshNs, pooledNs float64
	for i := 0; i < b.N; i++ {
		f, p := pooledVsFreshOnce(b)
		freshNs += f
		pooledNs += p
	}
	n := float64(b.N)
	b.ReportMetric(freshNs/n/1e3, "us-per-fresh-clone")
	b.ReportMetric(pooledNs/n/1e3, "us-per-pooled-clone")
	if pooledNs > 0 {
		b.ReportMetric(freshNs/pooledNs, "pooled-speedup-x")
	}
}

// --- slicing fallback: control-dep fan-out prune ---

// sliceFallbackOnce measures the full-slice fallback path (neither membug
// nor taint configured, so nothing is implicated) on the real Squid exploit,
// with and without the control-dependence prune.
func sliceFallbackOnce(tb testing.TB) (pruned, forced *slicing.Result) {
	pruned, forced, err := experiments.SliceFallbackComparison()
	if err != nil {
		tb.Fatal(err)
	}
	return pruned, forced
}

// BenchmarkSliceFallbackPrune quantifies what pruning control-dependence
// fan-out saves on the fallback path: slice size with data deps only versus
// the control-dep slice that balloons toward the whole recorded execution.
func BenchmarkSliceFallbackPrune(b *testing.B) {
	var prunedNodes, forcedNodes, recorded float64
	for i := 0; i < b.N; i++ {
		pruned, forced := sliceFallbackOnce(b)
		prunedNodes += float64(pruned.Nodes)
		forcedNodes += float64(forced.Nodes)
		recorded += float64(pruned.Recorded)
	}
	n := float64(b.N)
	b.ReportMetric(prunedNodes/n, "fallback-slice-nodes-pruned")
	b.ReportMetric(forcedNodes/n, "fallback-slice-nodes-with-control-deps")
	b.ReportMetric(recorded/n, "recorded-dynamic-instructions")
	if prunedNodes > 0 {
		b.ReportMetric(forcedNodes/prunedNodes, "fallback-exploration-reduction-x")
	}
}

// --- slicing: what recording the dependence graph costs per node ---

// squidWithBenignQueued returns a fresh squid Sweeper at ASLR seed seed with
// 20 benign requests submitted and not yet served.
func squidWithBenignQueued(tb testing.TB, seed int64) *core.Sweeper {
	spec := apps.Squid()
	cfg := core.DefaultConfig()
	cfg.ASLRSeed = seed
	s, err := core.New(spec.Name, spec.Image, spec.Options, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Submit(exploit.Benign("squid", i), "bench", false)
	}
	return s
}

// squidAtDetection drives a fresh squid guest through 20 benign requests and
// the exploit to the fault, and returns it with the rollback checkpoint the
// analyses replay from and the exploit's request ID.
func squidAtDetection(tb testing.TB) (p *proc.Process, snap *proc.Snapshot, culprit int) {
	s := squidWithBenignQueued(tb, 1009)
	if res, err := s.ServeAll(); err != nil || res.AttacksHandled != 0 {
		tb.Fatalf("serving the benign requests: %+v, %v", res, err)
	}
	culprit, _ = s.SubmitTracked(exploit.SquidExploit(), "worm", true)
	p = s.Process()
	if stop := p.Run(0); stop.Reason != vm.StopFault {
		tb.Fatalf("the exploit stopped the guest with %v, want a fault", stop.Reason)
	}
	return p, s.Checkpoints().Latest(), culprit
}

// slicingRecordOnce replays the attack window on a clone under a slicer that
// records control dependences — the whole window, or the exploit's request
// alone as the focused cross-check does — and returns the nodes recorded.
func slicingRecordOnce(tb testing.TB, p *proc.Process, snap *proc.Snapshot, culprit int, restricted bool) int {
	clone, err := p.Clone(snap)
	if err != nil {
		tb.Fatal(err)
	}
	if restricted {
		for _, id := range clone.Log.RequestsSince(clone.Log.Cursor()) {
			if id != culprit {
				clone.DropRequests(id)
			}
		}
	}
	sl := slicing.New(slicing.Options{IncludeControlDeps: true})
	clone.Machine.AttachTool(sl)
	if stop := clone.Run(0); stop.Reason != vm.StopFault {
		tb.Fatalf("the replay stopped with %v, want the fault", stop.Reason)
	}
	if sl.Truncated() || sl.NodeCount() == 0 {
		tb.Fatalf("recorded %d nodes, truncated=%v", sl.NodeCount(), sl.Truncated())
	}
	return sl.NodeCount()
}

// BenchmarkSlicingRecord measures the slicer's recording path on the squid
// exploit: with -benchmem, ns/op and B/op over nodes-per-op give the time and
// the allocation one recorded node costs. A return to copying growth shows as
// B/node well above the ~16 a node and its two dependences occupy.
func BenchmarkSlicingRecord(b *testing.B) {
	p, snap, culprit := squidAtDetection(b)
	for _, mode := range []struct {
		name       string
		restricted bool
	}{{"restricted", true}, {"full-window", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			nodes := 0
			for i := 0; i < b.N; i++ {
				nodes += slicingRecordOnce(b, p, snap, culprit, mode.restricted)
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
		})
	}
}

// --- Figure 4: checkpoint interval vs throughput overhead ---

func figure4Once(tb testing.TB, intervalMs uint64) float64 {
	requests := experiments.QuickSizes().Figure4Requests
	points, err := experiments.Figure4([]uint64{intervalMs}, requests)
	if err != nil {
		tb.Fatal(err)
	}
	return points[0].Overhead
}

func benchmarkCheckpointInterval(b *testing.B, intervalMs uint64) {
	b.Helper()
	var overhead float64
	for i := 0; i < b.N; i++ {
		overhead += figure4Once(b, intervalMs)
	}
	b.ReportMetric(overhead/float64(b.N)*100, "overhead-%")
}

func BenchmarkFigure4CheckpointInterval20ms(b *testing.B)  { benchmarkCheckpointInterval(b, 20) }
func BenchmarkFigure4CheckpointInterval50ms(b *testing.B)  { benchmarkCheckpointInterval(b, 50) }
func BenchmarkFigure4CheckpointInterval100ms(b *testing.B) { benchmarkCheckpointInterval(b, 100) }
func BenchmarkFigure4CheckpointInterval200ms(b *testing.B) { benchmarkCheckpointInterval(b, 200) }

// --- Figure 4 sweep: overhead vs checkpoint interval on all four apps ---

// figure4SweepApps and figure4SweepIntervals fix the sweep grid: every
// evaluation application at the paper's shortest, a middle and the default
// checkpoint interval.
var (
	figure4SweepApps      = []string{"apache1", "apache2", "cvs", "squid"}
	figure4SweepIntervals = []uint64{20, 100, 200}
)

func figure4SweepOnce(tb testing.TB) map[string][]experiments.Figure4Point {
	requests := experiments.QuickSizes().Figure4Requests
	out := make(map[string][]experiments.Figure4Point, len(figure4SweepApps))
	for _, app := range figure4SweepApps {
		points, err := experiments.Figure4ForApp(app, figure4SweepIntervals, requests)
		if err != nil {
			tb.Fatal(err)
		}
		out[app] = points
	}
	return out
}

// BenchmarkFigure4CheckpointIntervalSweep reproduces the paper's Figure 4
// trade-off live against every application image: virtual-throughput
// overhead against the no-checkpoint baseline, per checkpoint interval. The
// overheads are virtual-clock quantities (deterministic per configuration),
// so the reported metrics track the checkpoint hot path, not host noise.
func BenchmarkFigure4CheckpointIntervalSweep(b *testing.B) {
	acc := make(map[string][]float64)
	for i := 0; i < b.N; i++ {
		sweep := figure4SweepOnce(b)
		for app, points := range sweep {
			if acc[app] == nil {
				acc[app] = make([]float64, len(points))
			}
			for j, pt := range points {
				acc[app][j] += pt.Overhead
			}
		}
	}
	for _, app := range figure4SweepApps {
		for j, interval := range figure4SweepIntervals {
			b.ReportMetric(acc[app][j]/float64(b.N)*100, fmt.Sprintf("%s-overhead-%%-at-%dms", app, interval))
		}
	}
}

// --- checkpoint capture volume (counts; capture time is bench/'s) ---

func captureVolumeOnce(tb testing.TB) *experiments.CaptureVolume {
	r, err := experiments.MeasureCaptureVolume()
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// benchmarkCaptureVolume reports counts, which do not vary by iteration: the
// last one's are the benchmark's.
func benchmarkCaptureVolume(b *testing.B, report func(r *experiments.CaptureVolume)) {
	var r *experiments.CaptureVolume
	for i := 0; i < b.N; i++ {
		r = captureVolumeOnce(b)
	}
	report(r)
}

func BenchmarkSnapshotSubPageVsPage(b *testing.B) {
	benchmarkCaptureVolume(b, func(r *experiments.CaptureVolume) {
		b.ReportMetric(r.ScatteredReductionX, "scattered-captured-byte-reduction-x")
		b.ReportMetric(r.SequentialReductionX, "sequential-captured-byte-reduction-x")
	})
}

func BenchmarkSnapshotAlternatingWriter(b *testing.B) {
	benchmarkCaptureVolume(b, func(r *experiments.CaptureVolume) {
		b.ReportMetric(r.AlternatingReductionX, "alternating-captured-byte-reduction-x")
	})
}

func BenchmarkSnapshotDirtyVsFullScan(b *testing.B) {
	benchmarkCaptureVolume(b, func(r *experiments.CaptureVolume) {
		b.ReportMetric(float64(r.MappedPages), "full-scan-pages")
		b.ReportMetric(float64(r.SteadyDirtyPages), "steady-dirty-pages")
		b.ReportMetric(float64(r.SteadyCapturedBytes), "steady-captured-bytes")
	})
}

// --- §5.3: vulnerability monitoring (VSEF) and baseline overheads ---

func vsefOverheadOnce(tb testing.TB) (vsefOverhead, taintOverhead float64) {
	requests := experiments.QuickSizes().OverheadRequests
	rows, err := experiments.MonitoringOverhead(requests)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range rows {
		switch r.Key {
		case "vsef":
			vsefOverhead = r.Overhead
		case "taint_baseline":
			taintOverhead = r.Overhead
		}
	}
	return vsefOverhead, taintOverhead
}

func BenchmarkVSEFOverhead(b *testing.B) {
	var vsefOverhead, taintOverhead float64
	for i := 0; i < b.N; i++ {
		v, t := vsefOverheadOnce(b)
		vsefOverhead += v
		taintOverhead += t
	}
	b.ReportMetric(vsefOverhead/float64(b.N)*100, "vsef-overhead-%")
	b.ReportMetric(taintOverhead/float64(b.N)*100, "taint-baseline-overhead-%")
}

// vsefWallClockGuests absorbs the squid exploit on a full Sweeper and returns
// two bare squid processes at its layout — one untouched, one carrying the
// real final antibody's probes — each with the proxy that feeds it.
func vsefWallClockGuests(tb testing.TB) (plain, probed *proc.Process, plainIn, probedIn *netproxy.Proxy) {
	s, final := squidFinalAntibody(tb, 1009)
	plain, plainIn = bareSquid(tb, s)
	probed, probedIn = bareSquid(tb, s)
	if _, err := final.Apply(probed, nil); err != nil {
		tb.Fatal(err)
	}
	return plain, probed, plainIn, probedIn
}

// squidFinalAntibody absorbs the squid exploit on a full Sweeper at ASLR seed
// seed and returns the Sweeper with the final antibody it produced.
func squidFinalAntibody(tb testing.TB, seed int64) (*core.Sweeper, *antibody.Antibody) {
	s := squidWithBenignQueued(tb, seed)
	s.Submit(exploit.SquidExploit(), "worm", true)
	res, err := s.ServeAll()
	s.WaitAnalyses()
	if err != nil || res.AttacksHandled != 1 {
		tb.Fatalf("absorbing the exploit: %+v, %v", res, err)
	}
	final := s.Attacks()[0].FinalAntibody
	if final == nil || len(final.VSEFs) == 0 {
		tb.Fatal("no final antibody with VSEFs")
	}
	return s, final
}

// bareSquid returns a fresh squid process at s's layout, with no Sweeper
// around it, and the proxy that feeds it.
func bareSquid(tb testing.TB, s *core.Sweeper) (*proc.Process, *netproxy.Proxy) {
	spec := apps.Squid()
	in := netproxy.New()
	p, err := proc.New(spec.Name, spec.Image, s.Layout(), in, spec.Options)
	if err != nil {
		tb.Fatal(err)
	}
	return p, in
}

// TestProbeFiresPerRequest pins what each VSEF of the squid final antibody
// costs a benign request in probe deliveries: each is applied alone to a bare
// process at the producer's layout and serves the same 970 benign requests.
// The virtual clock charges CyclesPerProbe per delivery, so these counts are
// the whole of an installed antibody's virtual overhead, and what shrinking a
// VSEF (the taint guard's instruction list) has to move.
func TestProbeFiresPerRequest(t *testing.T) {
	s, final := squidFinalAntibody(t, 5151)
	const requests = 970
	want := map[antibody.VSEFKind]uint64{ // fires over the 970 requests
		antibody.VSEFHeapBounds: 13440, antibody.VSEFTaint: 118190,
	}
	for _, v := range final.VSEFs {
		p, in := bareSquid(t, s)
		if _, err := v.Apply(p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < requests; i++ {
			in.Submit(exploit.Benign("squid", i%97), "bench", false)
			if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
				t.Fatalf("%s: request %d stopped the guest with %v", v, i, stop.Reason)
			}
		}
		fires := p.Machine.ProbeFires()
		t.Logf("%-60s %6d fires, %.1f per request", v, fires, float64(fires)/requests)
		if w := want[v.Kind]; fires != w {
			t.Errorf("%s: %d probe fires over %d benign requests, want %d", v, fires, requests, w)
		}
	}
}

// vsefWallClockPayloads returns the two benign request shapes of the
// benchmark's workloads: the ~50-byte mix and an FTP URL with a 1500-byte
// user part (~85k guest instructions, strlen/strcat bound).
func vsefWallClockPayloads() (small [][]byte, heavy [][]byte) {
	for i := 0; i < 64; i++ {
		small = append(small, exploit.Benign("squid", i))
	}
	user := make([]byte, 1500)
	for i := range user {
		user[i] = byte('a' + i%26)
	}
	heavy = [][]byte{[]byte("ftp://" + string(user) + "@ftp.example.org/pub/file.tar.gz")}
	return small, heavy
}

// requestCost is what one request costs a guest on the two clocks.
type requestCost struct {
	wallNs, virtualCycles float64
}

// serveBare runs n requests through a bare process and returns their mean
// cost.
func serveBare(tb testing.TB, p *proc.Process, in *netproxy.Proxy, payloads [][]byte, n int) requestCost {
	start, cycles := time.Now(), p.Machine.Cycles()
	for i := 0; i < n; i++ {
		in.Submit(payloads[i%len(payloads)], "bench", false)
		if stop := p.Run(0); stop.Reason != vm.StopWaitInput {
			tb.Fatalf("guest stopped with %v", stop.Reason)
		}
	}
	return requestCost{
		wallNs:        float64(time.Since(start).Nanoseconds()) / float64(n),
		virtualCycles: float64(p.Machine.Cycles()-cycles) / float64(n),
	}
}

// vsefSizes names the two request shapes of vsefWallClockOnce's result.
var vsefSizes = [2]string{"small", "heavy"}

// vsefWallClockOnce measures one round of all four cells: cost[size][0] on
// the plain guest, cost[size][1] on the probed one, sizes as in vsefSizes.
func vsefWallClockOnce(tb testing.TB, nSmall, nHeavy int) (cost [2][2]requestCost) {
	plain, probed, plainIn, probedIn := vsefWallClockGuests(tb)
	small, heavy := vsefWallClockPayloads()
	for size, w := range []struct {
		payloads [][]byte
		n        int
	}{{small, nSmall}, {heavy, nHeavy}} {
		cost[size][0] = serveBare(tb, plain, plainIn, w.payloads, w.n)
		cost[size][1] = serveBare(tb, probed, probedIn, w.payloads, w.n)
	}
	return cost
}

// BenchmarkVSEFWallClock is §5.3 on both clocks: what one benign request
// costs a guest with and without the real final squid antibody installed.
// The virtual clock charges CyclesPerProbe per probe hit; the wall-clock
// figures are what the host pays for the same hits.
func BenchmarkVSEFWallClock(b *testing.B) {
	var sum [2][2]requestCost
	for i := 0; i < b.N; i++ {
		for size, pair := range vsefWallClockOnce(b, 4000, 100) {
			for probed, c := range pair {
				sum[size][probed].wallNs += c.wallNs
				sum[size][probed].virtualCycles += c.virtualCycles
			}
		}
	}
	for size, name := range vsefSizes {
		plain, probed := sum[size][0], sum[size][1]
		b.ReportMetric(plain.wallNs/float64(b.N), "ns/req-"+name)
		b.ReportMetric(probed.wallNs/float64(b.N), "ns/req-"+name+"-probed")
		b.ReportMetric((probed.wallNs/plain.wallNs-1)*100, "wall-overhead-%-"+name)
		b.ReportMetric((probed.virtualCycles/plain.virtualCycles-1)*100, "virtual-overhead-%-"+name)
	}
}

// --- Figure 5: throughput during an attack, Sweeper recovery vs restart ---

func figure5Once(tb testing.TB) (recoveryGap, restartGap float64) {
	sizes := experiments.QuickSizes()
	res, err := experiments.Figure5(sizes.Figure5Requests, sizes.Figure5AttackAt, sizes.Figure5BucketMs)
	if err != nil {
		tb.Fatal(err)
	}
	return float64(res.RecoveryGapMs), float64(res.RestartGapMs)
}

func BenchmarkFigure5Recovery(b *testing.B) {
	var recoveryGap, restartGap float64
	for i := 0; i < b.N; i++ {
		rec, res := figure5Once(b)
		recoveryGap += rec
		restartGap += res
	}
	b.ReportMetric(recoveryGap/float64(b.N), "recovery-gap-virtual-ms")
	b.ReportMetric(restartGap/float64(b.N), "restart-gap-virtual-ms")
}

// --- Ablations ---

func proactiveAblationOnce() (with, without float64) {
	rows := experiments.ProactiveAblation(1000)
	for _, r := range rows {
		if r.Alpha == 0.001 && r.Gamma == 10 {
			with, without = r.WithProactive, r.WithoutProactive
		}
	}
	return with, without
}

func BenchmarkAblationProactiveProtection(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with, without = proactiveAblationOnce()
	}
	b.ReportMetric(with*100, "with-proactive-infection-%")
	b.ReportMetric(without*100, "without-proactive-infection-%")
}
