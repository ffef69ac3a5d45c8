//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
)

// benchmarkFile is BENCHMARK.json: the one place metric names, units,
// directions and bounds are declared. The program checks what it emits
// against it, and -compare reads the bounds from it.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark declaration (run from the repository root): %w", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func (b *benchmarkFile) hasWorkload(name string) bool {
	for _, w := range b.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects what one run measured.
type report struct {
	attempted, failed int
	// falseAlarmSeeds are the first ASLR seeds of the trials (or set-ups) in
	// which a benign request was answered StatusAbsorbed. They are attempted,
	// are not in failed, and are left out of the timings.
	falseAlarmSeeds []int64
	order, twice    []string // metric names in the order emitted; names emitted again
	metrics         map[string]metricValue
	own             map[string]metricValue // figures only this workload has
	detail          map[string]string
	notes           []string
}

func newReport() *report {
	return &report{metrics: make(map[string]metricValue), own: make(map[string]metricValue), detail: make(map[string]string)}
}

// emit records one metric; detail says what it is made of (sample counts,
// the definition on this workload).
func (r *report) emit(name, unit string, v float64, detail string) {
	if _, dup := r.metrics[name]; dup {
		r.twice = append(r.twice, name)
	} else {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
	r.detail[name] = detail
}

// emitOwn records a figure that only this workload has (first_vsef_ms on
// outbreak). It is printed, kept by -out and judged by -compare against the
// bound in ownMetrics, but is not in the result line, whose metrics are the
// same on every workload.
func (r *report) emitOwn(name, unit string, v float64, detail string) {
	if _, dup := r.own[name]; dup {
		r.twice = append(r.twice, name)
	} else {
		r.order = append(r.order, name)
	}
	r.own[name] = metricValue{Value: v, Unit: unit}
	r.detail[name] = detail
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// check verifies that the report holds exactly the declared metrics, each
// once and with the declared unit: decls in the result line, own beside it.
func (r *report) check(decls, own []metricDecl) error {
	if len(r.twice) > 0 {
		return fmt.Errorf("metrics measured more than once: %v", r.twice)
	}
	for _, set := range []struct {
		decls []metricDecl
		got   map[string]metricValue
	}{{decls, r.metrics}, {own, r.own}} {
		for _, d := range set.decls {
			got, ok := set.got[d.Name]
			if !ok {
				return fmt.Errorf("metric %s is declared but was not measured", d.Name)
			}
			if got.Unit != d.Unit {
				return fmt.Errorf("metric %s measured in %q, declared in %q", d.Name, got.Unit, d.Unit)
			}
		}
		if len(set.got) != len(set.decls) {
			return fmt.Errorf("%d metrics measured where %d are declared: %v", len(set.got), len(set.decls), r.order)
		}
	}
	for _, name := range r.order {
		if !metricName.MatchString(name) {
			return fmt.Errorf("metric name %q is malformed", name)
		}
	}
	return nil
}

// result is the last line of a run's output: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of a -out file: the result and what identifies the run.
type record struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Trace    int           `json:"trace"`
	Machine  *machineFacts `json:"machine,omitempty"`
	result
	Own             map[string]metricValue `json:"own,omitempty"`
	FalseAlarmSeeds []int64                `json:"false_alarm_seeds,omitempty"`
}

func (r *report) result() result {
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

// printTable writes the human-readable table of what was measured.
func (r *report) printTable(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, name := range r.order {
		m, declared := r.metrics[name]
		if !declared {
			m = r.own[name]
		}
		fmt.Fprintf(w, "%-44s %14.6g %-6s %s\n", name, m.Value, m.Unit, r.detail[name])
	}
	fmt.Fprintf(w, "%-44s %14d\n%-44s %14d\n%-44s %14d\n", "attempted", r.attempted, "failed", r.failed, "false_alarms", len(r.falseAlarmSeeds))
}

// printResult writes the result line, the last line of a run's output.
func (r *report) printResult(w io.Writer) error {
	line, err := json.Marshal(r.result())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
