//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The smoke test runs every workload and the traced walk at a small fraction
// of their size. It asserts nothing about speed: only that every metric
// BENCHMARK.json declares is measured, once, in the declared unit, that
// every reply was the expected one, that counts repeat for a seed, and that
// the span files hold well-formed trees.

var smokeWalk = walkSizes{small: 30, heavy: 4, probed: 10, outbreak: 1, community: 1, guests: 1, recovery: 2, micro: 20, slow: 2, store: 20, openLoop: 50 * time.Millisecond}

func smokeConfig(t *testing.T) config {
	cfg := config{
		seed: 1009, measure: 200 * time.Millisecond, outbreakTrials: 2, communityTrials: 1, daemons: communitySize, outDir: t.TempDir(),
		setUps: 1, warmDiv: 10, immuneIn: time.Minute, walk: smokeWalk,
	}
	if testing.Short() { // the race detector's lane: everything once
		cfg.measure, cfg.outbreakTrials, cfg.daemons, cfg.warmDiv = 50*time.Millisecond, 1, 3, 100
		cfg.walk = walkSizes{small: 10, heavy: 1, probed: 5, outbreak: 1, community: 1, guests: 1, recovery: 1, micro: 5, slow: 1, store: 5, openLoop: 20 * time.Millisecond}
	}
	return cfg
}

func declaration(t *testing.T) *benchmarkFile {
	t.Helper()
	decl, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return decl
}

func TestEveryWorkloadReportsEveryEndToEndMetric(t *testing.T) {
	t.Parallel()
	decl := declaration(t)
	if len(decl.Workloads) != 5 {
		t.Fatalf("BENCHMARK.json declares %d workloads, want 5", len(decl.Workloads))
	}
	for _, w := range decl.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			// runWorkload fails unless the metrics measured are exactly the
			// ones declared, each in its declared unit.
			rep, err := runWorkload(decl, w.Name, false, smokeConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if rep.attempted < 1 || rep.failed != 0 || len(rep.falseAlarmSeeds) != 0 {
				t.Errorf("attempted %d, failed %d, false alarms %v: %v", rep.attempted, rep.failed, rep.falseAlarmSeeds, rep.notes)
			}
			for _, d := range ownMetrics[w.Name] {
				if v := rep.own[d.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want a positive number", d.Name, v)
				}
			}
			for _, d := range decl.EndToEnd {
				if v := rep.metrics[d.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want a positive number", d.Name, v)
				}
			}
			var out bytes.Buffer
			if err := rep.printResult(&out); err != nil {
				t.Fatal(err)
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal(out.Bytes(), &line); err != nil || len(line) != 4 {
				t.Errorf("result line %q: %v, %d keys, want correct, attempted, failed, metrics", out.String(), err, len(line))
			}
		})
	}
}

func TestTracedRunReportsEveryLayerMetricAndRepeatsItsCounts(t *testing.T) {
	t.Parallel()
	decl := declaration(t)
	// Under -short (the race detector's lane) the walk runs once; that its
	// counts repeat is checked by the plain `go test ./...`.
	runs := make([]*report, 2)
	if testing.Short() {
		runs = runs[:1]
	}
	var cfgs [2]config
	for i := range runs {
		cfgs[i] = smokeConfig(t)
		rep, err := runWorkload(decl, "steady_small", true, cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = rep
	}
	counts := 0
	for _, d := range decl.PerLayer {
		if d.Unit != "count" {
			continue
		}
		counts++
		if a, b := runs[0].metrics[d.Name].Value, runs[len(runs)-1].metrics[d.Name].Value; a != b {
			t.Errorf("%s: %v in one run, %v in the next of the same seed", d.Name, a, b)
		}
	}
	if counts == 0 {
		t.Error("no count metric is declared")
	}

	for _, w := range decl.Workloads {
		data, err := os.ReadFile(filepath.Join(cfgs[0].outDir, "trace-"+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			Workload string
			Spans    []span
		}
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatalf("trace of %s: %v", w.Name, err)
		}
		if file.Workload != w.Name || len(file.Spans) == 0 {
			t.Fatalf("trace of %s: workload %q, %d spans", w.Name, file.Workload, len(file.Spans))
		}
		byID := make(map[int]span, len(file.Spans))
		for _, s := range file.Spans {
			byID[s.ID] = s
		}
		for _, s := range file.Spans {
			if s.End < s.Start || s.Layer == "" || s.Trace == "" {
				t.Errorf("trace of %s: malformed span %+v", w.Name, s)
			}
			if s.Parent == 0 {
				continue
			}
			if p, ok := byID[s.Parent]; !ok {
				t.Errorf("trace of %s: span %d has no parent %d", w.Name, s.ID, s.Parent)
			} else if p.Trace != s.Trace {
				t.Errorf("trace of %s: span %d (%s) and its parent (%s) are of different traces", w.Name, s.ID, s.Trace, p.Trace)
			}
		}
	}
}

func TestQuartilesAreTheExclusiveOnes(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.firstQ != 2.75 || s.median != 5.5 || s.thirdQ != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", s.firstQ, s.median, s.thirdQ)
	}
}

func TestCompareVerdicts(t *testing.T) {
	decl := declaration(t)
	dir := t.TempDir()
	judged := append(append([]metricDecl(nil), decl.EndToEnd...), ownMetrics["outbreak"]...)
	write := func(name string, scale func(metricDecl) float64, attempted, failed int, alarms []int64) string {
		path := filepath.Join(dir, name)
		for run := 0; run < 10; run++ {
			rec := record{Workload: "outbreak", Seed: int64(run), FalseAlarmSeeds: alarms, Own: map[string]metricValue{},
				result: result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}}
			for _, d := range decl.EndToEnd {
				rec.Metrics[d.Name] = metricValue{Value: (100 + float64(run)/10) * scale(d), Unit: d.Unit}
			}
			for _, d := range ownMetrics["outbreak"] {
				rec.Own[d.Name] = metricValue{Value: (100 + float64(run)/10) * scale(d), Unit: d.Unit}
			}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	same := func(metricDecl) float64 { return 1 }
	base := write("base.jsonl", same, 100, 0, []int64{7})

	var out bytes.Buffer
	if err := compareFiles(decl, base, write("same.jsonl", same, 100, 0, []int64{7}), &out); err != nil {
		t.Errorf("identical runs: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "WORSE") || strings.Count(out.String(), "within bound") != len(judged) {
		t.Errorf("identical runs:\n%s", out.String())
	}

	worse := func(d metricDecl) float64 { // every metric worse by twice its bound
		if d.Better == "higher" {
			return 1 - 2*d.Bound
		}
		return 1 + 2*d.Bound
	}
	out.Reset()
	if err := compareFiles(decl, base, write("worse.jsonl", worse, 100, 0, []int64{7}), &out); err == nil {
		t.Errorf("a regression of twice the bound passed:\n%s", out.String())
	}
	if n := strings.Count(out.String(), "WORSE"); n != len(judged) {
		t.Errorf("%d rows WORSE, want %d:\n%s", n, len(judged), out.String())
	}

	for name, path := range map[string]string{
		"a failed operation":     write("failing.jsonl", same, 100, 1, []int64{7}),
		"a larger share failing": write("shares.jsonl", func(metricDecl) float64 { return 1 }, 50, 1, []int64{7}),
		"a second false alarm":   write("alarms.jsonl", same, 100, 0, []int64{7, 9}),
	} {
		out.Reset()
		if err := compareFiles(decl, base, path, &out); err == nil || strings.Count(out.String(), "WORSE") != 1 {
			t.Errorf("%s: want one row WORSE:\n%s", name, out.String())
		}
	}
	// The same false alarms beside a different number of operations (a
	// steady workload on a faster machine) are the same.
	out.Reset()
	if err := compareFiles(decl, base, write("faster.jsonl", same, 130, 0, []int64{7}), &out); err != nil {
		t.Errorf("the same counts out of more attempts: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(decl, base, write("fixed.jsonl", same, 100, 0, nil), &out); err != nil || !strings.Contains(out.String(), "better (counts)") {
		t.Errorf("no false alarm left: %v\n%s", err, out.String())
	}
}
