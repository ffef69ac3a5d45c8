// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 5) and community-defence analysis (Section 6) against
// the simulated substrate. The cmd/benchtables tool and the top-level
// benchmark suite both run the functions here; the README's Performance
// section describes the tables, figures and ablations they produce.
package experiments

import (
	"fmt"
	"time"

	"sweeper/internal/analysis"
	"sweeper/internal/analysis/slicing"
	"sweeper/internal/analysis/taint"
	"sweeper/internal/antibody"
	"sweeper/internal/apps"
	"sweeper/internal/core"
	"sweeper/internal/exploit"
	"sweeper/internal/metrics"
	"sweeper/internal/monitor"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// Sizes scale the workload-driven experiments. Quick sizes keep the full
// suite runnable in seconds (tests); Paper sizes stretch the runs closer to
// the paper's time scales.
type Sizes struct {
	Figure4Requests  int
	Figure5Requests  int
	Figure5AttackAt  int
	Figure5BucketMs  uint64
	OverheadRequests int
	AgentRuns        int
	AgentN           int
}

// QuickSizes returns sizes suitable for unit tests.
func QuickSizes() Sizes {
	return Sizes{
		Figure4Requests:  300,
		Figure5Requests:  1500,
		Figure5AttackAt:  700,
		Figure5BucketMs:  250,
		OverheadRequests: 400,
		AgentRuns:        3,
		AgentN:           20000,
	}
}

// PaperSizes returns sizes closer to the paper's measurement windows.
func PaperSizes() Sizes {
	return Sizes{
		Figure4Requests:  2000,
		Figure5Requests:  10000,
		Figure5AttackAt:  5500,
		Figure5BucketMs:  1000,
		OverheadRequests: 3000,
		AgentRuns:        5,
		AgentN:           100000,
	}
}

// --- Table 1 ---

// Table1Row is one row of Table 1 (the tested exploits).
type Table1Row struct {
	Name    string
	Program string
	CVE     string
	BugType string
	Threat  string
}

// Table1 returns the four evaluated vulnerabilities.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, s := range apps.All() {
		rows = append(rows, Table1Row{
			Name:    s.Name,
			Program: s.Program,
			CVE:     s.CVE,
			BugType: s.BugType,
			Threat:  s.Threat,
		})
	}
	return rows
}

// --- defence runs shared by Tables 2 and 3 ---

// DefenseRun is the outcome of defending one application against its canned
// exploit under a benign background workload.
type DefenseRun struct {
	App     *apps.Spec
	Sweeper *core.Sweeper
	Report  *core.AttackReport
}

// RunDefense protects the named application with Sweeper, drives a benign
// workload around one exploit request, and returns the attack report.
func RunDefense(appName string, benignBefore, benignAfter int, mutate func(*core.Config)) (*DefenseRun, error) {
	spec, err := apps.ByName(appName)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.ASLRSeed = 1234
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := core.New(spec.Name, spec.Image, spec.Options, cfg)
	if err != nil {
		return nil, err
	}
	payload, err := exploit.Exploit(spec)
	if err != nil {
		return nil, err
	}
	for i := 0; i < benignBefore; i++ {
		s.Submit(exploit.Benign(appName, i), "client", false)
	}
	s.Submit(payload, "worm", true)
	for i := 0; i < benignAfter; i++ {
		s.Submit(exploit.Benign(appName, 1000+i), "client", false)
	}
	if _, err := s.ServeAll(); err != nil {
		return nil, fmt.Errorf("experiments: defending %s: %w", appName, err)
	}
	if len(s.Attacks()) == 0 {
		return nil, fmt.Errorf("experiments: exploit against %s was not detected", appName)
	}
	// Reports complete asynchronously (the slicing cross-check finishes after
	// recovery); the experiment tables read the deferred fields, so join here.
	s.WaitAnalyses()
	return &DefenseRun{App: spec, Sweeper: s, Report: s.Attacks()[0]}, nil
}

// --- Table 2 ---

// Table2Row is one row of Table 2: what each analysis step concluded for one
// exploit, and the VSEFs generated.
type Table2Row struct {
	App             string
	ResultSummary   []string
	MemoryState     string
	MemoryStateVSEF string
	MemoryBug       string
	MemoryBugVSEF   string
	InputTaint      string
	Slicing         string
}

// Table2 runs the defence for each named application and summarises the
// per-step results.
func Table2(appNames []string) ([]Table2Row, []*DefenseRun, error) {
	var rows []Table2Row
	var runs []*DefenseRun
	for _, name := range appNames {
		run, err := RunDefense(name, 8, 8, nil)
		if err != nil {
			return nil, nil, err
		}
		runs = append(runs, run)
		r := run.Report
		row := Table2Row{App: name}

		row.ResultSummary = append(row.ResultSummary, fmt.Sprintf("Detected: %s", r.Detection.Reason))
		if r.Recovered {
			row.ResultSummary = append(row.ResultSummary, "Correct VSEFs; recovered without restart")
		}
		if r.CulpritRequestID >= 0 {
			row.ResultSummary = append(row.ResultSummary, "Finds input")
		}

		row.MemoryState = r.CoreDump.Summary()
		if r.InitialAntibody != nil && len(r.InitialAntibody.VSEFs) > 0 {
			row.MemoryStateVSEF = "VSEF: " + r.InitialAntibody.VSEFs[0].Note
		}
		if len(r.MemBugFindings) > 0 {
			row.MemoryBug = r.MemBugFindings[0].Summary()
			if r.RefinedAntibody != nil {
				last := r.RefinedAntibody.VSEFs[len(r.RefinedAntibody.VSEFs)-1]
				row.MemoryBugVSEF = "VSEF: " + last.Note
			}
		} else {
			row.MemoryBug = "No memory bug detected"
		}
		if r.CulpritRequestID >= 0 {
			method := "taint analysis"
			if r.IsolationUsed {
				method = "request isolation"
			}
			preview := r.CulpritPayload
			if len(preview) > 32 {
				preview = preview[:32]
			}
			row.InputTaint = fmt.Sprintf("req#%d via %s: %q...", r.CulpritRequestID, method, string(preview))
		} else {
			row.InputTaint = "input not identified"
		}
		if r.SliceConsistent {
			row.Slicing = fmt.Sprintf("Verifies results (%d dynamic instructions, %d static)", r.SliceNodes, r.SliceInstrs)
		} else if r.SliceTruncated {
			row.Slicing = r.ErrorFor("slicing")
		} else {
			row.Slicing = fmt.Sprintf("INCONSISTENT: %v not in slice", r.MissingFromSlice)
		}
		rows = append(rows, row)
	}
	return rows, runs, nil
}

// --- Table 3 ---

// Table3Row is one row of Table 3: analysis times for one application.
type Table3Row struct {
	App                 string
	TimeToFirstVSEF     time.Duration
	TimeToBestVSEF      time.Duration
	InitialAnalysisTime time.Duration
	TotalAnalysisTime   time.Duration
	MemoryState         time.Duration
	MemoryBug           time.Duration
	InputTaint          time.Duration
	Slicing             time.Duration
	RecoveryTime        time.Duration
}

// Table3 measures the analysis pipeline timings for the named applications
// (the paper reports Apache1 and Squid).
func Table3(appNames []string) ([]Table3Row, error) {
	var rows []Table3Row
	for _, name := range appNames {
		run, err := RunDefense(name, 8, 8, nil)
		if err != nil {
			return nil, err
		}
		r := run.Report
		row := Table3Row{
			App:                 name,
			TimeToFirstVSEF:     r.TimeToFirstVSEF,
			TimeToBestVSEF:      r.TimeToBestVSEF,
			InitialAnalysisTime: r.InitialAnalysisTime,
			TotalAnalysisTime:   r.TotalAnalysisTime,
			RecoveryTime:        r.RecoveryTime,
		}
		for _, st := range r.Steps {
			switch st.Name {
			case "memory-state":
				row.MemoryState = st.Duration
			case "memory-bug":
				row.MemoryBug = st.Duration
			case "input-taint":
				row.InputTaint += st.Duration
			case "input-isolation":
				row.InputTaint += st.Duration
			case "slicing":
				row.Slicing = st.Duration
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SliceFallbackComparison measures the slicing analyzer's full-slice
// fallback path (only slicing configured, so neither membug nor taint
// implicates anything) on the real Squid exploit, with and without the
// control-dependence prune: the pruned run is the production default, the
// forced run registers slicing.Analyzer{ForceControlDeps: true} — the
// pre-prune behaviour — under an otherwise identical configuration.
func SliceFallbackComparison() (pruned, forced *slicing.Result, err error) {
	runOne := func(force bool) (*slicing.Result, error) {
		run, err := RunDefense("squid", 8, 8, func(c *core.Config) {
			c.Analyses = []string{slicing.AnalyzerName}
			if force {
				reg := analysis.NewRegistry()
				if err := reg.Register(slicing.Analyzer{ForceControlDeps: true}); err != nil {
					panic(err) // unreachable: one registration in a fresh registry
				}
				c.Registry = reg
			}
		})
		if err != nil {
			return nil, err
		}
		res, ok := run.Report.FindingFor(slicing.AnalyzerName).(*slicing.Result)
		if !ok {
			return nil, fmt.Errorf("experiments: slicing produced no result (error: %q)", run.Report.ErrorFor(slicing.AnalyzerName))
		}
		return res, nil
	}
	if pruned, err = runOne(false); err != nil {
		return nil, nil, err
	}
	if forced, err = runOne(true); err != nil {
		return nil, nil, err
	}
	return pruned, forced, nil
}

// --- Figure 4: checkpoint interval vs overhead ---

// Figure4Point is one point of Figure 4.
type Figure4Point struct {
	IntervalMs uint64
	Throughput float64 // requests per virtual second
	Overhead   float64 // fraction relative to the no-checkpoint baseline
}

// benignThroughput drives `requests` benign Squid requests through a Sweeper
// instance built with the given config mutation and returns the virtual
// throughput.
func benignThroughput(appName string, requests int, mutate func(*core.Config), prepare func(*core.Sweeper) error) (float64, error) {
	spec, err := apps.ByName(appName)
	if err != nil {
		return 0, err
	}
	cfg := core.DefaultConfig()
	cfg.ASLRSeed = 99
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := core.New(spec.Name, spec.Image, spec.Options, cfg)
	if err != nil {
		return 0, err
	}
	if prepare != nil {
		if err := prepare(s); err != nil {
			return 0, err
		}
	}
	times := recordCompletions(s)
	const batch = 100
	for i := 0; i < requests; i += batch {
		n := batch
		if requests-i < n {
			n = requests - i
		}
		for j := 0; j < n; j++ {
			s.Submit(exploit.Benign(appName, i+j), "client", false)
		}
		if _, err := s.ServeAll(); err != nil {
			return 0, err
		}
	}
	return metrics.Throughput(*times), nil
}

// recordCompletions notes the virtual time of every live request boundary of
// s's process, in order. The time is taken before the Sweeper's own boundary
// hook runs, since that hook may checkpoint and so advance the clock.
func recordCompletions(s *core.Sweeper) *[]uint64 {
	times := new([]uint64)
	p := s.Process()
	hook := p.OnRequestBoundary
	p.OnRequestBoundary = func() {
		*times = append(*times, p.Machine.NowMillis())
		hook()
	}
	return times
}

// Figure4 sweeps the checkpoint interval and reports throughput overhead
// relative to running with checkpointing disabled, for the Squid benign
// workload (the paper's Figure 4).
func Figure4(intervals []uint64, requests int) ([]Figure4Point, error) {
	return Figure4ForApp("squid", intervals, requests)
}

// Figure4ForApp runs the Figure 4 checkpoint-interval sweep for any of the
// four evaluation applications: benign throughput at each interval against
// the checkpointing-disabled baseline. Overheads are virtual-clock
// quantities, so the sweep is deterministic per app and configuration.
func Figure4ForApp(app string, intervals []uint64, requests int) ([]Figure4Point, error) {
	if len(intervals) == 0 {
		intervals = []uint64{20, 40, 60, 80, 100, 120, 140, 160, 180, 200}
	}
	baseline, err := benignThroughput(app, requests, func(c *core.Config) {
		c.CheckpointIntervalMs = 1 << 40 // effectively never
	}, nil)
	if err != nil {
		return nil, err
	}
	var out []Figure4Point
	for _, interval := range intervals {
		iv := interval
		tp, err := benignThroughput(app, requests, func(c *core.Config) {
			c.CheckpointIntervalMs = iv
		}, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, Figure4Point{
			IntervalMs: iv,
			Throughput: tp,
			Overhead:   metrics.Overhead(baseline, tp),
		})
	}
	return out, nil
}

// --- checkpoint capture volume ---

// CaptureVolume is what checkpoints copy, in counts that repeat exactly: a
// steady-state squid checkpoint against its image, and sub-page dirty-run
// capture against page-granular capture (touched pages times vm.PageSize)
// on the three write shapes that bound the design.
type CaptureVolume struct {
	// MappedPages is the squid image with its heap filled (the paper's squid
	// carries a large in-memory cache); SteadyDirtyPages and
	// SteadyCapturedBytes are what a checkpoint one benign request after the
	// previous one captures of it.
	MappedPages, SteadyDirtyPages, SteadyCapturedBytes int
	// ScatteredReductionX: 8 bytes at a shifting offset in 64 pages per
	// epoch. AlternatingReductionX: 8 bytes at the header and 8 at the
	// trailer of 64 pages, the shape one [lo,hi) watermark per page froze
	// whole. SequentialReductionX: 16 whole pages per epoch, ~1 by design.
	ScatteredReductionX, AlternatingReductionX, SequentialReductionX float64
}

// MeasureCaptureVolume counts; it times nothing (bench/ reports
// checkpoint.capture_*_us).
func MeasureCaptureVolume() (*CaptureVolume, error) {
	spec, err := apps.ByName("squid")
	if err != nil {
		return nil, err
	}
	proxy := netproxy.New()
	p, err := proc.New(spec.Name, spec.Image, vm.DefaultLayout(), proxy, spec.Options)
	if err != nil {
		return nil, err
	}
	serve := func(from, n int) error {
		for i := from; i < from+n; i++ {
			proxy.Submit(exploit.Benign("squid", i), "client", false)
		}
		if !serveOne(p) {
			return fmt.Errorf("experiments: squid did not quiesce")
		}
		return nil
	}
	if err := serve(0, 32); err != nil {
		return nil, err
	}
	for {
		if _, err := p.Alloc.Malloc(vm.PageSize); err != nil {
			break
		}
	}
	mem := p.Machine.Mem
	res := &CaptureVolume{MappedPages: mem.MappedPages()}
	mem.Snapshot()
	if err := serve(32, 1); err != nil {
		return nil, err
	}
	steady := mem.Snapshot()
	res.SteadyDirtyPages, res.SteadyCapturedBytes = steady.DeltaPages(), steady.CapturedBytes()

	const (
		arena  = uint32(0x100000)
		pages  = 256
		epochs = 16
	)
	// reduction runs one write shape for 16 checkpoint epochs, writes(e, i)
	// being what the shape writes to the i-th page it touches in epoch e.
	// Dirty runs are tracked by the range written, not the bytes.
	type write struct{ page, off, n int }
	buf := make([]byte, vm.PageSize)
	reduction := func(touched int, writes func(e, i int) []write) float64 {
		m := vm.NewMemory()
		m.MapRegion(arena, pages*vm.PageSize)
		m.Snapshot()
		captured := 0
		for e := 0; e < epochs; e++ {
			for i := 0; i < touched; i++ {
				for _, w := range writes(e, i) {
					m.WriteBytes(arena+uint32(w.page*vm.PageSize+w.off), buf[:w.n])
				}
			}
			captured += m.Snapshot().CapturedBytes()
		}
		return float64(epochs*touched*vm.PageSize) / float64(captured)
	}
	res.ScatteredReductionX = reduction(64, func(e, i int) []write {
		return []write{{i * 4, (e*97 + i*131) % (vm.PageSize - 8), 8}}
	})
	res.AlternatingReductionX = reduction(64, func(e, i int) []write {
		return []write{{i * 4, 0, 8}, {i * 4, vm.PageSize - 8, 8}}
	})
	res.SequentialReductionX = reduction(16, func(e, i int) []write {
		return []write{{(e*16 + i) % pages, 0, vm.PageSize}}
	})
	return res, nil
}

// --- §5.3: VSEF overhead ---

// OverheadRow compares the throughput of one monitoring configuration against
// the unprotected baseline. Key is the stable machine-readable identifier of
// the configuration (used for BENCH_<n>.json metric names); Mode is display
// text and may be reworded freely.
type OverheadRow struct {
	Key        string
	Mode       string
	Throughput float64
	Overhead   float64
}

// MonitoringOverhead compares normal-execution overhead across monitoring
// configurations: no protection, Sweeper's lightweight runtime (ASLR +
// checkpoints), Sweeper with one deployed VSEF (the paper's §5.3 vulnerability
// monitoring experiment), and always-on dynamic taint analysis (the
// TaintCheck/Vigilante-style baseline Sweeper argues against).
func MonitoringOverhead(requests int) ([]OverheadRow, error) {
	// Generate a real antibody for Squid first so the VSEF row deploys the
	// genuine article rather than a hand-written probe. As in the paper's
	// §5.3 experiment, what gets deployed for the overhead measurement is the
	// vulnerability-monitoring VSEF (the refined bounds check), not the
	// taint-propagation guard.
	run, err := RunDefense("squid", 4, 4, nil)
	if err != nil {
		return nil, err
	}
	ab := run.Report.RefinedAntibody
	if ab == nil {
		ab = run.Report.InitialAntibody
	}

	baseline, err := benignThroughput("squid", requests, func(c *core.Config) {
		c.CheckpointIntervalMs = 1 << 40
	}, nil)
	if err != nil {
		return nil, err
	}
	rows := []OverheadRow{{Key: "unprotected", Mode: "unprotected", Throughput: baseline, Overhead: 0}}

	sweeperTp, err := benignThroughput("squid", requests, nil, nil)
	if err != nil {
		return nil, err
	}
	rows = append(rows, OverheadRow{Key: "sweeper", Mode: "sweeper (ASLR + 200ms checkpoints)", Throughput: sweeperTp, Overhead: metrics.Overhead(baseline, sweeperTp)})

	vsefTp, err := benignThroughput("squid", requests, nil, func(s *core.Sweeper) error {
		_, err := ab.Apply(s.Process(), s.Proxy())
		return err
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, OverheadRow{Key: "vsef", Mode: fmt.Sprintf("sweeper + deployed VSEF (%d probes)", vsefProbeCount(ab)), Throughput: vsefTp, Overhead: metrics.Overhead(baseline, vsefTp)})

	taintTp, err := benignThroughput("squid", requests, nil, func(s *core.Sweeper) error {
		s.Process().Machine.AttachTool(taint.New(true))
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, OverheadRow{Key: "taint_baseline", Mode: "always-on taint analysis (TaintCheck baseline)", Throughput: taintTp, Overhead: metrics.Overhead(baseline, taintTp)})
	return rows, nil
}

func vsefProbeCount(ab *antibody.Antibody) int {
	n := 0
	for _, v := range ab.VSEFs {
		n += v.InstrumentedInstrs()
	}
	return n
}

// --- Figure 5: throughput during a single attack ---

// Figure5Result is the throughput-over-time data for one attack, with and
// without Sweeper recovery (the restart baseline).
type Figure5Result struct {
	BucketMs      uint64
	Sweeper       metrics.Series
	Restart       metrics.Series
	AttackAtMs    uint64
	RecoveryGapMs uint64
	RestartGapMs  uint64
	SweeperServed int
	RestartServed int
}

// RestartPenaltyMs models the paper's observation that restarting Squid takes
// over 5 seconds (plus cache warm-up) during which clients see refused
// connections.
const RestartPenaltyMs = 5000

// Figure5 reproduces Figure 5: client-perceived throughput over time for a
// Squid server that is attacked once, under Sweeper (rollback recovery) and
// under the restart baseline.
func Figure5(totalRequests, attackAt int, bucketMs uint64) (Figure5Result, error) {
	res := Figure5Result{BucketMs: bucketMs}

	// Sweeper run.
	spec, err := apps.ByName("squid")
	if err != nil {
		return res, err
	}
	cfg := core.DefaultConfig()
	cfg.ASLRSeed = 7
	s, err := core.New(spec.Name, spec.Image, spec.Options, cfg)
	if err != nil {
		return res, err
	}
	times := recordCompletions(s)
	payload, err := exploit.Exploit(spec)
	if err != nil {
		return res, err
	}
	const batch = 100
	served := 0
	for i := 0; i < totalRequests; i += batch {
		n := batch
		if totalRequests-i < n {
			n = totalRequests - i
		}
		for j := 0; j < n; j++ {
			idx := i + j
			if idx == attackAt {
				res.AttackAtMs = s.Process().Machine.NowMillis()
				s.Submit(payload, "worm", true)
			}
			s.Submit(exploit.Benign("squid", idx), "client", false)
		}
		if _, err := s.ServeAll(); err != nil {
			return res, err
		}
	}
	served = s.Process().ServedRequests()
	res.Sweeper = metrics.ThroughputSeries(*times, bucketMs)
	res.SweeperServed = served
	if len(s.Attacks()) > 0 {
		res.RecoveryGapMs = s.Attacks()[0].RecoveryVirtualMs
	}

	// Restart baseline: same workload, but the attack kills the server and a
	// restart penalty elapses before a fresh instance resumes service.
	restartSeries, restartServed, restartGap, err := restartBaseline(totalRequests, attackAt, bucketMs)
	if err != nil {
		return res, err
	}
	res.Restart = restartSeries
	res.RestartServed = restartServed
	res.RestartGapMs = restartGap
	return res, nil
}

// restartBaseline drives the same workload against an unprotected server
// process (no checkpoints, no analysis, no recovery): when the attack crashes
// it, a fresh instance comes up RestartPenaltyMs of virtual time later, and
// everything the old instance had in flight is lost.
func restartBaseline(totalRequests, attackAt int, bucketMs uint64) (metrics.Series, int, uint64, error) {
	spec, err := apps.ByName("squid")
	if err != nil {
		return nil, 0, 0, err
	}
	payload, err := exploit.Exploit(spec)
	if err != nil {
		return nil, 0, 0, err
	}
	layout := monitor.RandomizedLayout(7)

	newServer := func() (*netproxy.Proxy, *proc.Process, error) {
		proxy := netproxy.New()
		p, err := proc.New(spec.Name, spec.Image, layout, proxy, spec.Options)
		return proxy, p, err
	}
	proxy, p, err := newServer()
	if err != nil {
		return nil, 0, 0, err
	}

	var times []uint64
	clockBase := uint64(0)
	restartGap := uint64(0)

	for idx := 0; idx < totalRequests; idx++ {
		if idx == attackAt {
			proxy.Submit(payload, "worm", true)
			if !serveOne(p) {
				// Crash: restart after the penalty; queued requests are lost.
				clockBase += p.Machine.NowMillis() + RestartPenaltyMs
				restartGap = RestartPenaltyMs
				proxy, p, err = newServer()
				if err != nil {
					return nil, 0, 0, err
				}
			}
		}
		proxy.Submit(exploit.Benign("squid", idx), "client", false)
		if !serveOne(p) {
			clockBase += p.Machine.NowMillis() + RestartPenaltyMs
			restartGap = RestartPenaltyMs
			proxy, p, err = newServer()
			if err != nil {
				return nil, 0, 0, err
			}
			continue
		}
		times = append(times, clockBase+p.Machine.NowMillis())
	}
	return metrics.ThroughputSeries(times, bucketMs), len(times), restartGap, nil
}

// serveOne runs the process until it blocks for more input; it reports false
// when the process crashed or exited instead.
func serveOne(p *proc.Process) bool {
	stop := p.Run(0)
	return stop.Reason == vm.StopWaitInput
}
