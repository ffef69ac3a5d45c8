package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Every metric in a record is a virtual-clock quantity or a count, so it
// repeats from run to run and from machine to machine; the tolerances are
// there for legitimate changes to the defence pipeline, not for noise. Each
// gated shape also carries an absolute floor, so a 0.05%→0.09% overhead blip
// is not a "regression".
const (
	deterministicTolerance = 0.20 // relative worsening tolerated for virtual-clock metrics
	ratioTolerance         = 0.50 // relative drop tolerated for reduction ratios
)

// classify maps a metric name to the relative worsening it tolerates, whether
// larger values are better, and its absolute floor. A zero tolerance means
// informational — counts, sizes and unknown shapes: reported, never flagged.
func classify(name string) (tolerance float64, higherBetter bool, floor float64) {
	switch {
	case strings.Contains(name, "_pages") || strings.HasSuffix(name, "_bytes") ||
		strings.HasSuffix(name, "_count"):
		return 0, false, 0
	case strings.Contains(name, "reduction"):
		// Reductions divide deterministic quantities (captured bytes,
		// explored nodes).
		return ratioTolerance, true, 0.5
	case strings.Contains(name, "overhead_pct"):
		return deterministicTolerance, false, 0.5 // percentage points
	case strings.Contains(name, "retained_pct"):
		// Antibody retention across a crash is a durability guarantee: a
		// drop of more than a point means the WAL or replay regressed.
		return deterministicTolerance, true, 1 // percentage points
	case strings.Contains(name, "infected_pct"):
		// Live epidemic outcomes are seeded-PRNG deterministic, but any code
		// change to the defence pipeline legitimately moves them; gate only
		// gross blow-ups (the community failing to contain the worm).
		return deterministicTolerance, false, 10 // percentage points
	case strings.Contains(name, "fraction"):
		return deterministicTolerance, true, 0.05 // fractions of pages shared
	case strings.Contains(name, "virtual_ms"):
		return deterministicTolerance, false, 10 // virtual milliseconds
	}
	return 0, false, 0
}

type comparison struct {
	name       string
	old, new   float64
	regression bool
	note       string
}

func loadBench(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec benchJSON
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Metrics == nil {
		return nil, fmt.Errorf("%s: no metrics map (schema %q)", path, rec.Schema)
	}
	return rec.Metrics, nil
}

// compareBench diffs two BENCH_<n>.json records and returns the number of
// flagged regressions (callers exit nonzero on any). The schema is allowed to
// grow — metrics present only in the NEW record are reported and never
// flagged — but it is not allowed to shrink: a metric present in OLD and
// missing from NEW means a benchmark was deleted (or silently stopped
// reporting), and that fails the gate rather than vanishing from the table.
func compareBench(oldPath, newPath string) (int, error) {
	oldM, err := loadBench(oldPath)
	if err != nil {
		return 0, err
	}
	newM, err := loadBench(newPath)
	if err != nil {
		return 0, err
	}

	names := make([]string, 0, len(oldM))
	for name := range oldM {
		names = append(names, name)
	}
	sort.Strings(names)

	var rows []comparison
	regressions := 0
	for _, name := range names {
		oldV := oldM[name]
		newV, ok := newM[name]
		if !ok {
			regressions++
			rows = append(rows, comparison{
				name: name, old: oldV, regression: true,
				note: "REGRESSION: metric missing from new record",
			})
			continue
		}
		rel, higherBetter, floor := classify(name)
		c := comparison{name: name, old: oldV, new: newV}
		switch {
		case rel == 0:
			c.note = "informational"
		case oldV > 0:
			if higherBetter {
				c.regression = newV < oldV/(1+rel) && oldV-newV > floor
			} else {
				c.regression = newV > oldV*(1+rel) && newV-oldV > floor
			}
			if c.regression {
				regressions++
				c.note = fmt.Sprintf("REGRESSION beyond %.0f%% tolerance", rel*100)
			}
		}
		rows = append(rows, c)
	}
	var added []string
	for name := range newM {
		if _, ok := oldM[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)

	fmt.Printf("benchtables: comparing %s (old) -> %s (new)\n", oldPath, newPath)
	for _, c := range rows {
		marker := " "
		if c.regression {
			marker = "!"
		}
		fmt.Printf("%s %-46s %14.4f -> %14.4f  %s\n", marker, c.name, c.old, c.new, c.note)
	}
	for _, name := range added {
		fmt.Printf("  %-46s %14s -> %14.4f  new metric\n", name, "-", newM[name])
	}
	if regressions > 0 {
		fmt.Printf("benchtables: %d regression(s) flagged\n", regressions)
	} else {
		fmt.Printf("benchtables: no regressions\n")
	}
	return regressions, nil
}
