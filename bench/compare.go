//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// -compare reads two files of records (one JSON line per run, as -out
// writes them), groups the runs by workload, and for every end-to-end metric
// judges the second file's median against the first's with the bound
// BENCHMARK.json fixes for that metric.

// ownMetrics are the figures only one workload has. BENCHMARK.json cannot
// hold them (every workload reports every end-to-end metric it declares), so
// their bounds are here; they are the issue's.
var ownMetrics = map[string][]metricDecl{
	"outbreak": {
		{Name: "first_vsef_ms", Unit: "ms", Better: "lower", Bound: 0.15},
		{Name: "final_antibody_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "client_stall_ms", Unit: "ms", Better: "lower", Bound: 0.15},
		{Name: "client_stall_p90_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	},
	"community": {
		{Name: "consumer_stall_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	},
}

// runSet is the runs of one file: workload -> metric -> one value per run.
type runSet struct {
	e2e, own, layer                      map[string]map[string][]float64
	runs, attempted, failed, falseAlarms map[string]int
}

func loadRunSet(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runSet{
		e2e: map[string]map[string][]float64{}, own: map[string]map[string][]float64{}, layer: map[string]map[string][]float64{},
		runs: map[string]int{}, attempted: map[string]int{}, failed: map[string]int{}, falseAlarms: map[string]int{},
	}
	add := func(into map[string]map[string][]float64, workload string, metrics map[string]metricValue) {
		if into[workload] == nil {
			into[workload] = map[string][]float64{}
		}
		for name, m := range metrics {
			into[workload][name] = append(into[workload][name], m.Value)
		}
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s line %d: not a record written by -out", path, n)
		}
		if r.Trace != 0 {
			add(rs.layer, r.Workload, r.Metrics)
			continue
		}
		add(rs.e2e, r.Workload, r.Metrics)
		add(rs.own, r.Workload, r.Own)
		rs.runs[r.Workload]++
		rs.attempted[r.Workload] += r.Attempted
		rs.failed[r.Workload] += r.Failed
		rs.falseAlarms[r.Workload] += len(r.FalseAlarmSeeds)
	}
	return rs, sc.Err()
}

// summary is a metric's runs in one file: the median, and the distance
// between the quartiles as a share of it.
type summary struct {
	n                   int
	min, median, max    float64
	spread              float64
	firstQ, thirdQ, iqr float64
}

// summarize computes the quartiles as Python's statistics.quantiles(v, n=4)
// does (its default, "exclusive" method), which is what the driver uses.
func summarize(values []float64) summary {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	at := func(i int) float64 { // the i-th of the 3 cut points
		if len(v) == 1 {
			return v[0]
		}
		m := len(v) + 1
		j := min(max(i*m/4, 1), len(v)-1)
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	s := summary{n: len(v), min: v[0], median: at(2), max: v[len(v)-1], firstQ: at(1), thirdQ: at(3)}
	s.iqr = s.thirdQ - s.firstQ
	if s.median != 0 {
		s.spread = s.iqr / s.median
	}
	return s
}

// verdict judges b against a for one metric. worse: b's median is worse by
// more than the bound. unresolved: the runs of either side spread wider than
// the bound, so a regression of that size could hide (unless every run of b
// beats every run of a). better: b's median is better by more than a's own
// spread.
func verdict(a, b summary, higherIsBetter bool, bound float64) string {
	worseBy := (b.median - a.median) / a.median
	allBetter := b.min > a.max
	if !higherIsBetter {
		allBetter = b.max < a.min
	} else {
		worseBy = -worseBy
	}
	switch {
	case worseBy > bound:
		return "WORSE"
	case (a.spread > bound || b.spread > bound) && !allBetter:
		return "unresolved"
	case -worseBy*a.median > a.iqr && worseBy < 0:
		return "better"
	default:
		return "within bound"
	}
}

// countVerdict judges a count of bad outcomes: any rise is worse. Counts out
// of the same number are compared as they are, which is the case of the
// trial workloads (a seed names the same trials on any machine); out of
// different numbers (the steady workloads send what the daemon can take)
// their shares are.
func countVerdict(aBad, aOf, bBad, bOf int) string {
	a, b, basis := float64(aBad), float64(bBad), "counts"
	if aOf != bOf {
		a, b, basis = a/float64(aOf), b/float64(bOf), "shares"
	}
	switch {
	case b > a:
		return "WORSE (" + basis + ")"
	case b < a:
		return "better (" + basis + ")"
	}
	return "same (" + basis + ")"
}

func compareFiles(decl *benchmarkFile, pathA, pathB string, w io.Writer) error {
	a, err := loadRunSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadRunSet(pathB)
	if err != nil {
		return err
	}
	worse := 0
	fmt.Fprintf(w, "%-14s %-20s %12s %12s %9s %8s %8s %6s  %s\n", "workload", "metric", "a median", "b median", "b/a", "a spread", "b spread", "bound", "verdict")
	for _, wl := range decl.Workloads {
		for _, set := range []struct {
			decls []metricDecl
			a, b  map[string][]float64
		}{{decl.EndToEnd, a.e2e[wl.Name], b.e2e[wl.Name]}, {ownMetrics[wl.Name], a.own[wl.Name], b.own[wl.Name]}} {
			for _, d := range set.decls {
				va, vb := set.a[d.Name], set.b[d.Name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				sa, sb := summarize(va), summarize(vb)
				v := verdict(sa, sb, d.Better == "higher", d.Bound)
				if v == "WORSE" {
					worse++
				}
				fmt.Fprintf(w, "%-14s %-20s %12.6g %12.6g %9.4f %7.1f%% %7.1f%% %5.0f%%  %s (n=%d,%d)\n",
					wl.Name, d.Name, sa.median, sb.median, sb.median/sa.median, 100*sa.spread, 100*sb.spread, 100*d.Bound, v, sa.n, sb.n)
			}
		}
		aOf, bOf := a.attempted[wl.Name], b.attempted[wl.Name]
		if aOf == 0 || bOf == 0 {
			continue
		}
		// Failed operations are out of those attempted. False alarms are
		// trials, or set-ups of a steady workload, whose number per run does
		// not depend on the machine: they are out of the runs.
		for _, c := range []struct {
			name, of       string
			a, aOf, b, bOf int
		}{
			{"failed", "attempted", a.failed[wl.Name], aOf, b.failed[wl.Name], bOf},
			{"false_alarms", "runs", a.falseAlarms[wl.Name], a.runs[wl.Name], b.falseAlarms[wl.Name], b.runs[wl.Name]},
		} {
			v := countVerdict(c.a, c.aOf, c.b, c.bOf)
			if strings.HasPrefix(v, "WORSE") {
				worse++
			}
			fmt.Fprintf(w, "%-14s %-20s %12s %12s %44s %s\n", wl.Name, c.name, fmt.Sprintf("%d/%d", c.a, c.aOf), fmt.Sprintf("%d/%d", c.b, c.bOf), c.of, v)
		}
	}
	// Per-layer metrics have no bound: they are printed so that a change in
	// an end-to-end row can be traced to a layer. Counts must repeat.
	for _, wl := range decl.Workloads {
		for _, d := range decl.PerLayer {
			va, vb := a.layer[wl.Name][d.Name], b.layer[wl.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := summarize(va), summarize(vb)
			note := ""
			if d.Unit == "count" && sa.median != sb.median {
				note = "count differs"
			}
			ratio := 0.0
			if sa.median != 0 {
				ratio = sb.median / sa.median
			}
			fmt.Fprintf(w, "%-14s %-44s %12.6g %12.6g %9.4f %s\n", "layer", d.Name, sa.median, sb.median, ratio, note)
		}
		break // every traced run holds every per-layer metric
	}
	if worse > 0 {
		return fmt.Errorf("%d rows worse than the bound allows", worse)
	}
	return nil
}
