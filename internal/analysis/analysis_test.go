package analysis

import (
	"testing"
)

type stubFinding struct{ name string }

func (f stubFinding) Analyzer() string { return f.name }
func (f stubFinding) Summary() string  { return "stub" }

type stubAnalyzer struct {
	name string
	tier Tier
}

func (a stubAnalyzer) Name() string { return a.name }
func (a stubAnalyzer) Cost() Tier   { return a.tier }
func (a stubAnalyzer) Run(ctx *Context, sb *Sandbox) (Finding, error) {
	return stubFinding{name: a.name}, nil
}

func TestRegistryOrderAndDuplicates(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(stubAnalyzer{name: "b", tier: TierFast}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(stubAnalyzer{name: "a", tier: TierDeferred}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(stubAnalyzer{name: "b", tier: TierFast}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := r.Register(stubAnalyzer{name: ""}); err == nil {
		t.Error("empty name accepted")
	}
	got := r.Names()
	if len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Errorf("Names() = %v, want registration order [b a]", got)
	}
	if a, ok := r.Get("a"); !ok || a.Cost() != TierDeferred {
		t.Errorf("Get(a) = %v, %v", a, ok)
	}
	if _, ok := r.Get("missing"); ok {
		t.Error("Get(missing) reported ok")
	}
}

func TestContextImplicationUnionIsSortedAndDeduplicated(t *testing.T) {
	ctx := NewContext()
	ctx.Implicate("membug", 9, 3, -1)
	ctx.Implicate("taint", 3, 7)
	ctx.Implicate("empty")
	got := ctx.Implicated()
	want := []int{3, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("Implicated() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Implicated() = %v, want %v", got, want)
		}
	}
	by := ctx.ImplicatedBy()
	if len(by) != 2 || by[0] != "membug" || by[1] != "taint" {
		t.Errorf("ImplicatedBy() = %v, want [membug taint]", by)
	}
	if ctx.HasImplication("empty") {
		t.Error("analyzer that implicated nothing reported as implicating")
	}
	if !ctx.HasImplication("membug") {
		t.Error("membug implication lost")
	}
}

func TestContextCulpritFirstSettingWins(t *testing.T) {
	ctx := NewContext()
	if _, ok := ctx.Culprit(); ok {
		t.Fatal("empty context reports a culprit")
	}
	ctx.SetCulprit(5)
	ctx.SetCulprit(9)
	if id, ok := ctx.Culprit(); !ok || id != 5 {
		t.Errorf("Culprit() = %d, %v; want 5, true", id, ok)
	}
}

func TestContextFindings(t *testing.T) {
	ctx := NewContext()
	if ctx.FindingOf("x") != nil {
		t.Fatal("empty context has a finding")
	}
	ctx.AddFinding("x", stubFinding{name: "x"})
	if f := ctx.FindingOf("x"); f == nil || f.Analyzer() != "x" {
		t.Errorf("FindingOf(x) = %v", f)
	}
}

func TestSandboxReleaseIsIdempotent(t *testing.T) {
	released := 0
	sb := NewSandbox(nil, 0, func() { released++ })
	sb.Release()
	sb.Release()
	if released != 1 {
		t.Errorf("release ran %d times, want 1", released)
	}
}

func TestTierString(t *testing.T) {
	if TierFast.String() != "fast" || TierDeferred.String() != "deferred" {
		t.Errorf("tier names wrong: %s / %s", TierFast, TierDeferred)
	}
}
