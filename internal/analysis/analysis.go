// Package analysis defines the pluggable heavyweight-analysis API: an
// Analyzer is a named, tiered analysis that re-executes an attack window on a
// replay Sandbox and returns a Finding. The paper's three rollback-and-replay
// analyses (memory-bug detection, taint analysis, backward slicing) are
// Analyzers registered in a Registry; the core pipeline schedules whatever is
// registered, so new analyses plug in without touching the engine:
//
//   - fast-tier analyzers (TierFast) gate antibody generation — the pipeline
//     joins them before the refined/final antibody ships;
//   - deferred-tier analyzers (TierDeferred) complete after recovery has
//     resumed service, entirely off the client-visible path.
//
// Analyzers of one pipeline run share a Context: fast-tier results (the
// implicated instructions, the culprit request) flow into the deferred tier,
// which uses them to cut its own critical path.
package analysis

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// Tier classifies an analyzer's scheduling cost.
type Tier uint8

// Tiers. Fast analyzers gate the antibody; deferred analyzers complete after
// recovery has resumed service.
const (
	TierFast Tier = iota
	TierDeferred
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case TierFast:
		return "fast"
	case TierDeferred:
		return "deferred"
	}
	return fmt.Sprintf("tier?%d", uint8(t))
}

// Finding is the result one analyzer produced for one attack. Concrete
// analyzers return richer typed results (e.g. *membug.Result); consumers that
// know the analyzer downcast, generic consumers use the summary.
type Finding interface {
	// Analyzer names the analyzer that produced the finding.
	Analyzer() string
	// Summary is a one-line human-readable description.
	Summary() string
}

// Analyzer is one pluggable heavyweight analysis. Implementations must be
// safe for reuse across attacks and guests: Run receives all per-run state
// (the sandbox and the shared context) and must not retain either.
type Analyzer interface {
	// Name identifies the analyzer in registries, reports and metrics.
	Name() string
	// Cost reports which tier the pipeline should schedule the analyzer in.
	Cost() Tier
	// Run replays the attack window on the sandbox under the analyzer's
	// instrumentation and returns what it found. A nil Finding with a nil
	// error means the analyzer ran but has nothing to report.
	Run(ctx *Context, sb *Sandbox) (Finding, error)
}

// Sandbox is the replay process an analyzer instruments: a clone of the
// rollback checkpoint whose event-log view covers the attack window. The
// pipeline owns the sandbox's lifecycle (including returning pooled clone
// shells); analyzers just attach tools and call Run.
type Sandbox struct {
	// Proc is the replay clone. Analyzers attach tools to Proc.Machine and
	// may restrict the replayed requests via Proc.ExciseRequests, which
	// touches this clone alone.
	Proc *proc.Process
	// Budget bounds the replay, in instructions. The pipeline sets it to the
	// instance-wide replay budget; an analyzer that wants less lowers it in
	// its own Run, before replaying.
	Budget uint64

	exhausted  bool
	release    func()
	yieldEvery uint64
}

// NewSandbox wraps a replay clone. release, if non-nil, is invoked exactly
// once when the sandbox is released (pooled shells return to their pool).
func NewSandbox(p *proc.Process, budget uint64, release func()) *Sandbox {
	return &Sandbox{Proc: p, Budget: budget, release: release}
}

// Machine returns the sandbox's machine, for attaching tools.
func (sb *Sandbox) Machine() *vm.Machine { return sb.Proc.Machine }

// SetYieldEvery makes Run execute the replay in chunks of n instructions,
// yielding the processor between chunks (0 restores the single-call replay).
// The pipeline sets it on deferred-tier sandboxes: their replays run behind
// the already-recovered service, and an uninterrupted CPU-bound replay would
// otherwise hold a processor for the Go runtime's full preemption quantum at
// a time — tens of milliseconds of client-visible stall on small hosts.
func (sb *Sandbox) SetYieldEvery(n uint64) { sb.yieldEvery = n }

// Run replays the sandboxed execution until it stops or exhausts the budget,
// yielding between chunks when SetYieldEvery configured a chunk size.
func (sb *Sandbox) Run() *vm.StopInfo {
	if sb.yieldEvery == 0 || (sb.Budget != 0 && sb.Budget <= sb.yieldEvery) {
		stop := sb.Proc.Run(sb.Budget)
		if stop.Reason == vm.StopInstrBudget {
			sb.exhausted = true
		}
		return stop
	}
	remaining := sb.Budget // 0 = unlimited, like vm.Machine.Run
	for {
		chunk := sb.yieldEvery
		if remaining != 0 && chunk > remaining {
			chunk = remaining
		}
		stop := sb.Proc.Run(chunk)
		if stop.Reason != vm.StopInstrBudget {
			return stop
		}
		if remaining != 0 {
			remaining -= chunk
			if remaining == 0 {
				sb.exhausted = true
				return stop
			}
		}
		runtime.Gosched()
	}
}

// Exhausted reports whether any replay on this sandbox ran out of its
// instruction budget. The pipeline surfaces it through AttackReport.ErrorFor
// so a starved analyzer is distinguishable from one that found nothing.
func (sb *Sandbox) Exhausted() bool { return sb.exhausted }

// Release returns the sandbox to its owner (e.g. a clone pool). It is
// idempotent; the sandbox must not be used afterwards.
func (sb *Sandbox) Release() {
	if sb.release != nil {
		sb.release()
		sb.release = nil
	}
}

// Context carries cross-analyzer state through one pipeline run. Fast-tier
// analyzers record what they implicated; deferred-tier analyzers (which the
// pipeline starts only after the fast tier completed) read it to restrict
// their own work. All methods are safe for concurrent use.
type Context struct {
	mu          sync.Mutex
	implicated  map[string][]int
	culprit     int
	haveCulprit bool
	findings    map[string]Finding
}

// NewContext returns an empty analysis context.
func NewContext() *Context {
	return &Context{
		implicated: make(map[string][]int),
		findings:   make(map[string]Finding),
	}
}

// Implicate records that the named analyzer blamed the given static
// instructions for the attack.
func (c *Context) Implicate(analyzer string, instrs ...int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.implicated[analyzer] = append(c.implicated[analyzer], instrs...)
}

// Implicated returns the sorted, deduplicated union of every implicated
// static instruction (negative indices are dropped). The order is
// deterministic regardless of which analyzer implicated first.
func (c *Context) Implicated() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[int]bool)
	var out []int
	for _, instrs := range c.implicated {
		for _, idx := range instrs {
			if idx >= 0 && !seen[idx] {
				seen[idx] = true
				out = append(out, idx)
			}
		}
	}
	sort.Ints(out)
	return out
}

// ImplicatedBy returns the sorted names of the analyzers that implicated at
// least one instruction.
func (c *Context) ImplicatedBy() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.implicated))
	for name := range c.implicated {
		if len(c.implicated[name]) > 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// HasImplication reports whether the named analyzer implicated anything.
func (c *Context) HasImplication(analyzer string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.implicated[analyzer]) > 0
}

// SetCulprit records the identified exploit request. The first setting wins
// (taint analysis and the isolation fallback agree when both run).
func (c *Context) SetCulprit(requestID int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.haveCulprit {
		c.culprit = requestID
		c.haveCulprit = true
	}
}

// Culprit returns the identified exploit request, if any.
func (c *Context) Culprit() (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.culprit, c.haveCulprit
}

// AddFinding records a completed analyzer's finding.
func (c *Context) AddFinding(analyzer string, f Finding) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.findings[analyzer] = f
}

// FindingOf returns the named analyzer's finding, or nil if it has not
// completed (or found nothing).
func (c *Context) FindingOf(analyzer string) Finding {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.findings[analyzer]
}

// Registry maps analyzer names to Analyzer implementations, in registration
// order. It is safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	order []string
	byN   map[string]Analyzer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byN: make(map[string]Analyzer)}
}

// Register adds an analyzer under its own name. Registering a duplicate or
// empty name is an error.
func (r *Registry) Register(a Analyzer) error {
	name := a.Name()
	if name == "" {
		return fmt.Errorf("analysis: analyzer with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byN[name]; dup {
		return fmt.Errorf("analysis: analyzer %q already registered", name)
	}
	r.byN[name] = a
	r.order = append(r.order, name)
	return nil
}

// Get returns the named analyzer.
func (r *Registry) Get(name string) (Analyzer, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.byN[name]
	return a, ok
}

// Names returns the registered names in registration order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}
