// Package core implements the Sweeper system itself: it wires the runtime
// module (lightweight monitoring, checkpointing, the network proxy), the
// analysis module (memory-state analysis plus the pluggable
// analysis.Analyzer pipeline — memory-bug detection, taint analysis,
// backward slicing — applied during rollback-and-replay on pooled clone
// sandboxes) and the antibody module (VSEF and input-signature generation,
// deployment and distribution) around one protected guest process, and
// drives the detect → analyze → inoculate → recover cycle end to end.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sweeper/internal/analysis"
	"sweeper/internal/analysis/taint"
	"sweeper/internal/antibody"
	"sweeper/internal/checkpoint"
	"sweeper/internal/metrics"
	"sweeper/internal/monitor"
	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// Config controls a Sweeper instance.
type Config struct {
	// CheckpointIntervalMs is the virtual time between lightweight
	// checkpoints (the paper's default is 200 ms).
	CheckpointIntervalMs uint64
	// MaxCheckpoints is the number of recent checkpoints retained (20).
	MaxCheckpoints int

	// ASLR enables address-space randomisation, the default lightweight
	// monitor. When disabled, the process is loaded at the well-known layout
	// an attacker assumes.
	ASLR bool
	// ASLRSeed fixes the randomised layout for reproducible experiments.
	ASLRSeed int64
	// ShadowStack additionally enables the shadow-stack lightweight monitor
	// (an ablation; the paper's default configuration relies on ASLR alone).
	ShadowStack bool

	// Registry holds the analyzers available to this instance. Nil means
	// DefaultRegistry() — memory-bug detection, taint analysis and backward
	// slicing. Custom analyzers are made available by registering them here.
	Registry *analysis.Registry
	// Analyses selects, by name, which registered analyzers run after an
	// attack is detected. Nil means every registered analyzer; an empty
	// non-nil slice disables the heavyweight analyses entirely.
	Analyses []string

	// ParallelAnalysis runs the fast-tier analyzers concurrently, each
	// replaying the attack window on its own copy-on-write clone of the
	// rollback checkpoint, instead of one after another. The sequential path
	// is kept as a cross-check; both engines produce byte-identical
	// antibodies.
	ParallelAnalysis bool

	// AlwaysOnTaint attaches full dynamic taint analysis during normal
	// execution (the TaintCheck/Vigilante-style baseline Sweeper argues
	// against); used only for overhead comparisons.
	AlwaysOnTaint bool

	// VerifyAdoption makes the guest re-verify every antibody it did not
	// generate itself before adopting it: the antibody's attached exploit
	// input is replayed on a copy-on-write clone of the latest checkpoint and
	// the antibody is rejected unless the replay reproduces a detectable
	// violation; with a fast-tier analyzer configured, the reproduction is
	// re-analysed and the evidence regenerated locally
	// (VerifyDecision.Regenerated). This is the paper's community-defence
	// trust boundary — antibodies from federated peers are untrusted by
	// default — so sweeperd enables it whenever it peers with other daemons.
	// Off by default: guests inside one daemon share a trust domain.
	VerifyAdoption bool

	// PipelinedRecovery overlaps recovery with analysis: the benign history
	// prefix (everything before the suspect request) starts replaying on a
	// copy-on-write recovery clone at the moment of detection, concurrently
	// with the fast analysis tier, and when the analyses confirm the suspect
	// as the culprit the live process adopts the clone's finished state
	// instead of re-executing the prefix serially after them. The
	// client-visible recovery gap then costs the rollback constant plus the
	// (usually empty) post-suspect tail. Recovery automatically falls back to
	// the serial replay when the culprit turns out not to be the suspect
	// request, when the prefix replay did not end cleanly, or when the live
	// machine carries tools or probes whose shadow state only a serial replay
	// can rebuild (always-on monitors, previously adopted antibodies).
	// Default true (DefaultConfig).
	PipelinedRecovery bool

	// ReplayBudget bounds each analysis replay, in instructions. A registry
	// entry registered with its own budget (analysis.Registry.
	// RegisterBudgeted) overrides it for that analyzer only.
	ReplayBudget uint64

	// DeferredQueueDepth bounds the per-Sweeper queue of deferred-tier
	// pipeline runs. Deferred analyses of distinct attacks complete on one
	// worker goroutine drawing from this queue, so an attack storm cannot
	// pile up unbounded deferred work; when the queue is full the deferred
	// analyses of the newest attack are dropped (surfaced per analyzer via
	// AttackReport.ErrorFor, counted in Sweeper.DeferredDropped) and the
	// report seals without them. Zero means the default of 16.
	DeferredQueueDepth int

	// ProduceAntibodies gates antibody publication. When false the Sweeper
	// still detects attacks, recovers in place and keeps its full report, but
	// publishes nothing — no store entries, no OnAntibody callbacks. This is
	// the consumer role of the paper's producer/consumer deployment split
	// (Section 6): consumer hosts rely on antibodies federated from the
	// producer fraction α of the community instead of generating their own.
	// Default true (DefaultConfig).
	ProduceAntibodies bool

	// InstanceID distinguishes this Sweeper instance when several protect
	// guests of the same program (a fleet): it prefixes generated antibody
	// IDs so antibodies from different guests never collide in a shared
	// store. Empty means the program name is used.
	InstanceID string
}

// DefaultConfig returns the configuration used in the paper's experiments:
// 200 ms checkpoints, 20 retained, ASLR on, all analyses enabled, pooled
// clone sandboxes.
func DefaultConfig() Config {
	return Config{
		CheckpointIntervalMs: 200,
		MaxCheckpoints:       20,
		ASLR:                 true,
		ASLRSeed:             0x5eed,
		ParallelAnalysis:     true,
		PipelinedRecovery:    true,
		ProduceAntibodies:    true,
		ReplayBudget:         200_000_000,
		DeferredQueueDepth:   16,
	}
}

// Sweeper protects one guest server process.
type Sweeper struct {
	cfg      Config
	name     string
	prog     *vm.Program
	procOpts proc.Options

	layout vm.Layout
	proxy  *netproxy.Proxy
	proc   *proc.Process
	ckpt   *checkpoint.Manager

	analyzers []analysis.Analyzer
	// registry is where the analyzers were resolved from; per-analyzer
	// replay budgets are read from it live, so a SetBudget call after
	// construction applies to the next attack.
	registry *analysis.Registry
	pool     *proc.ClonePool
	latency  *metrics.AnalysisRecorder

	// The deferred analysis tier of every attack runs on one worker
	// goroutine fed by a bounded queue (cfg.DeferredQueueDepth). The worker
	// is started on demand and exits once the queue drains, so an idle
	// Sweeper holds no goroutine.
	deferredMu      sync.Mutex
	deferredCh      chan func()
	deferredWorking bool
	deferredDepth   atomic.Int32
	deferredDropped atomic.Int64

	antibodies []*antibody.Antibody
	applied    []*antibody.AppliedAntibody

	// attacksMu guards attacks: reports are appended on the serving
	// goroutine, while WaitAnalyses (e.g. a draining fleet) reads the list
	// from other goroutines.
	attacksMu sync.Mutex
	attacks   []*AttackReport

	completions *metrics.CompletionRecorder

	// OnAntibody, when set, is called every time an antibody (initial,
	// refined or final) becomes available; community-defence experiments use
	// it to model distribution to other hosts.
	OnAntibody func(*antibody.Antibody)

	// OnAttack, when set, is called on the serving goroutine as soon as an
	// attack report is recorded (its deferred tier may still be running).
	// The TCP front end uses it to answer the excised culprit request's
	// connection with StatusAbsorbed without waiting for the queue to drain.
	OnAttack func(*AttackReport)

	attackSeq int
	halted    bool
}

// New creates a Sweeper instance protecting the given program.
func New(name string, prog *vm.Program, procOpts proc.Options, cfg Config) (*Sweeper, error) {
	if cfg.CheckpointIntervalMs == 0 {
		cfg.CheckpointIntervalMs = 200
	}
	if cfg.MaxCheckpoints == 0 {
		cfg.MaxCheckpoints = 20
	}
	if cfg.ReplayBudget == 0 {
		cfg.ReplayBudget = 200_000_000
	}
	if cfg.DeferredQueueDepth <= 0 {
		cfg.DeferredQueueDepth = 16
	}
	analyzers, registry, err := buildAnalyzers(cfg)
	if err != nil {
		return nil, err
	}
	layout := vm.DefaultLayout()
	if cfg.ASLR {
		layout = monitor.RandomizedLayout(monitor.RandomizeOptions{Seed: cfg.ASLRSeed})
	}
	proxy := netproxy.New()
	p, err := proc.New(name, prog, layout, proxy, procOpts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s := &Sweeper{
		cfg:         cfg,
		name:        name,
		prog:        prog,
		procOpts:    procOpts,
		layout:      layout,
		proxy:       proxy,
		proc:        p,
		ckpt:        checkpoint.NewManager(checkpoint.Policy{IntervalMs: cfg.CheckpointIntervalMs, MaxKept: cfg.MaxCheckpoints}),
		analyzers:   analyzers,
		registry:    registry,
		pool:        proc.NewClonePool(p),
		latency:     metrics.NewAnalysisRecorder(),
		completions: metrics.NewCompletionRecorder(),
	}
	p.OnRequestBoundary = s.onRequestBoundary
	if cfg.ShadowStack {
		p.Machine.AttachTool(monitor.NewShadowStack())
	}
	if cfg.AlwaysOnTaint {
		p.Machine.AttachTool(taint.New(true))
	}
	// Always start from a known-good checkpoint so analysis and recovery have
	// somewhere to roll back to even if the very first request is the attack.
	s.ckpt.Checkpoint(p)
	return s, nil
}

// Name returns the protected program's name.
func (s *Sweeper) Name() string { return s.name }

// Config returns the active configuration.
func (s *Sweeper) Config() Config { return s.cfg }

// Layout returns the (possibly randomised) layout the process runs at.
func (s *Sweeper) Layout() vm.Layout { return s.layout }

// Proxy returns the protecting network proxy; workload generators submit
// requests through it.
func (s *Sweeper) Proxy() *netproxy.Proxy { return s.proxy }

// Process returns the protected process.
func (s *Sweeper) Process() *proc.Process { return s.proc }

// Checkpoints returns the checkpoint manager.
func (s *Sweeper) Checkpoints() *checkpoint.Manager { return s.ckpt }

// Antibodies returns every antibody generated so far, in generation order.
func (s *Sweeper) Antibodies() []*antibody.Antibody { return s.antibodies }

// Attacks returns the report for every attack handled so far. A report's
// deferred fields (the slicing cross-check) may still be completing; call
// AttackReport.Wait — or Sweeper.WaitAnalyses — before reading them.
func (s *Sweeper) Attacks() []*AttackReport {
	s.attacksMu.Lock()
	defer s.attacksMu.Unlock()
	return append([]*AttackReport(nil), s.attacks...)
}

// WaitAnalyses blocks until every attack report so far is sealed, i.e. the
// deferred analysis tier of every handled attack has completed.
func (s *Sweeper) WaitAnalyses() {
	for _, r := range s.Attacks() {
		r.Wait()
	}
}

// AnalyzerLatencies returns the per-analyzer replay latencies observed so far.
func (s *Sweeper) AnalyzerLatencies() []metrics.AnalyzerLatency {
	return s.latency.Snapshot()
}

// ClonePoolStats reports how many analysis sandboxes were freshly built
// (pool misses) and how many were served by resetting a pooled shell.
func (s *Sweeper) ClonePoolStats() (created, reused int) { return s.pool.Stats() }

// Completions returns the request-completion recorder (throughput series).
func (s *Sweeper) Completions() *metrics.CompletionRecorder { return s.completions }

// Halted reports whether the protected server exited (e.g. a successful
// hijack called exit, or the guest program terminated).
func (s *Sweeper) Halted() bool { return s.halted }

// budgetFor resolves the replay budget for the named analyzer: its current
// registry override when one is set, the instance-wide budget otherwise.
func (s *Sweeper) budgetFor(analyzer string) uint64 {
	if b := s.registry.Budget(analyzer); b > 0 {
		return b
	}
	return s.cfg.ReplayBudget
}

// sandbox serves a replay sandbox positioned at the given snapshot from the
// clone pool, bounded by the given replay budget (0 means the instance-wide
// budget). Releasing the sandbox returns its shell for reuse.
func (s *Sweeper) sandbox(snap *proc.Snapshot, budget uint64) (*analysis.Sandbox, error) {
	if budget == 0 {
		budget = s.cfg.ReplayBudget
	}
	clone, err := s.pool.Get(snap)
	if err != nil {
		return nil, err
	}
	return analysis.NewSandbox(clone, budget, func() { s.pool.Put(clone) }), nil
}

// enqueueDeferred hands one job — an attack's deferred tier, or the
// regeneration half of an adoption (see Guest.adopt) — to the per-Sweeper
// deferred worker, starting one if none is running. It reports false —
// without running the job — when the bounded queue is full (the attack-storm
// backpressure case); what that costs is the caller's to decide and count.
func (s *Sweeper) enqueueDeferred(job func()) bool {
	s.deferredMu.Lock()
	if s.deferredCh == nil {
		s.deferredCh = make(chan func(), s.cfg.DeferredQueueDepth)
	}
	// Raise the gauge before the job becomes visible so a worker finishing
	// it can never drive the backlog reading negative.
	s.deferredDepth.Add(1)
	select {
	case s.deferredCh <- job:
		if !s.deferredWorking {
			s.deferredWorking = true
			go s.deferredWorker()
		}
		s.deferredMu.Unlock()
		return true
	default:
		s.deferredDepth.Add(-1)
		s.deferredMu.Unlock()
		return false
	}
}

// deferredWorker drains the deferred queue and exits when it is empty; the
// exit decision is re-checked under deferredMu so a racing enqueue either
// sees a working worker or finds the queue already drained.
func (s *Sweeper) deferredWorker() {
	for {
		select {
		case j := <-s.deferredCh:
			j()
			s.deferredDepth.Add(-1)
		default:
			s.deferredMu.Lock()
			select {
			case j := <-s.deferredCh:
				s.deferredMu.Unlock()
				j()
				s.deferredDepth.Add(-1)
			default:
				s.deferredWorking = false
				s.deferredMu.Unlock()
				return
			}
		}
	}
}

// DeferredBacklog returns how many jobs — attacks' deferred analysis runs and
// adoptions' regenerations — are queued or in flight on the deferred worker.
func (s *Sweeper) DeferredBacklog() int { return int(s.deferredDepth.Load()) }

// DeferredDropped returns how many attacks had their deferred analyses
// dropped because the bounded deferred queue was full.
func (s *Sweeper) DeferredDropped() int { return int(s.deferredDropped.Load()) }

// Submit offers a request payload to the protected server through the proxy.
// It reports whether the request was accepted (false when an input-signature
// antibody filtered it out).
func (s *Sweeper) Submit(payload []byte, src string, malicious bool) bool {
	_, accepted := s.proxy.Submit(payload, src, malicious)
	return accepted
}

// SubmitTracked is Submit returning the proxy-assigned request ID as well,
// so a caller that must route a response back to this exact request — the
// TCP front end — can key its bookkeeping on it. The ID is valid even when
// the request was filtered.
func (s *Sweeper) SubmitTracked(payload []byte, src string, malicious bool) (reqID int, accepted bool) {
	req, accepted := s.proxy.Submit(payload, src, malicious)
	return req.ID, accepted
}

func (s *Sweeper) onRequestBoundary() {
	s.completions.Record(s.proc.Machine.NowMillis())
	s.ckpt.MaybeCheckpoint(s.proc)
}

// ServeResult summarises one ServeAll invocation.
type ServeResult struct {
	RequestsServed int
	AttacksHandled int
	Halted         bool
}

// ServeAll runs the protected server until the proxy queue is drained,
// handling any attacks detected along the way (analysis, antibody
// generation, recovery) and then continuing service. It returns as soon as
// service has resumed; deferred analyses of handled attacks may still be
// completing (see WaitAnalyses).
func (s *Sweeper) ServeAll() (ServeResult, error) {
	var res ServeResult
	if s.halted {
		return res, fmt.Errorf("core: protected process has exited")
	}
	startServed := s.proc.ServedRequests()
	for {
		stop := s.proc.Run(0)
		switch stop.Reason {
		case vm.StopWaitInput:
			if s.proxy.Pending() == 0 {
				res.RequestsServed = s.proc.ServedRequests() - startServed
				return res, nil
			}
			// More requests arrived while we were handling the previous stop;
			// keep serving.
			continue
		case vm.StopInstrBudget:
			continue
		case vm.StopHalt:
			s.halted = true
			res.Halted = true
			res.RequestsServed = s.proc.ServedRequests() - startServed
			return res, nil
		case vm.StopFault, vm.StopViolation:
			det := monitor.Classify(stop)
			if !det.Suspicious {
				continue
			}
			report := s.HandleAttack(stop, det)
			s.attacksMu.Lock()
			s.attacks = append(s.attacks, report)
			s.attacksMu.Unlock()
			if s.OnAttack != nil {
				s.OnAttack(report)
			}
			res.AttacksHandled++
			if !report.Recovered {
				s.halted = true
				res.Halted = true
				res.RequestsServed = s.proc.ServedRequests() - startServed
				return res, fmt.Errorf("core: recovery failed after attack: %s", report.Detection.Reason)
			}
			continue
		default:
			return res, fmt.Errorf("core: unexpected stop reason %v", stop.Reason)
		}
	}
}
