//go:build linux

// Command bench is the repository's performance benchmark: it stands up the
// objects `sweeperd -tcp-listen` does, drives them over loopback sockets
// from this one process, checks every reply, and prints every metric
// declared in BENCHMARK.json. See README.md in this directory.
//
//	go run ./bench --workload steady_small --seed 1009 --seconds 20 --trace 0
//	go run ./bench --workload all -out runs.jsonl
//	go run ./bench -compare before.jsonl after.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"time"
)

// machineFacts are recorded with every result kept by -out. The sockets are
// the host's loopback interface, not a real link.
type machineFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func machine() *machineFacts {
	m := &machineFacts{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// runTimeout ends a run that hangs: the driver allows a run 180 s.
const runTimeout = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "all", "steady_small, steady_heavy, inoculated, outbreak, community, or all")
		seed     = flag.Int64("seed", 1009, "the only source of variation: payload bytes, their order, arrival times, ASLR seeds")
		seconds  = flag.Int("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced layer walk and per-layer metrics")
		out      = flag.String("out", "", "append each result as one JSON line to this file, for -compare")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int, out string, compare bool, args []string) error {
	decl, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(decl, args[0], args[1], os.Stdout)
	}
	if seconds <= 0 {
		seconds = decl.RunSeconds
	}
	if workload == "all" {
		return runAll(decl, seed, seconds, trace, out)
	}
	if !decl.hasWorkload(workload) {
		return fmt.Errorf("unknown workload %q", workload)
	}
	time.AfterFunc(runTimeout, func() {
		fmt.Fprintln(os.Stderr, "bench: run exceeded", runTimeout)
		os.Exit(2)
	})
	m := machine()
	fmt.Printf("# bench %s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d %s commit=%s loopback\n",
		workload, seed, seconds, trace, m.NProc, m.GOMAXPROCS, m.GoVersion, m.Commit)

	rep, err := runWorkload(decl, workload, trace != 0, fullConfig(seed, seconds))
	if err != nil {
		return err
	}
	rep.printTable(os.Stdout)
	if out != "" {
		rec := record{Workload: workload, Seed: seed, Trace: trace, Machine: m, result: rep.result(), Own: rep.own, FalseAlarmSeeds: rep.falseAlarmSeeds}
		if err := appendRecord(out, rec); err != nil {
			return err
		}
	}
	return rep.printResult(os.Stdout)
}

// runWorkload measures one workload and checks that what was measured is
// exactly what BENCHMARK.json declares for that kind of run.
func runWorkload(decl *benchmarkFile, workload string, traced bool, cfg config) (*report, error) {
	rep := newReport()
	decls, own := decl.EndToEnd, ownMetrics[workload]
	var err error
	switch {
	case traced:
		decls, own = decl.PerLayer, nil
		err = runTraced(cfg, rep)
	case workload == "outbreak":
		err = runOutbreak(cfg, rep)
	case workload == "community":
		err = runCommunity(cfg, rep)
	default:
		err = runSteady(cfg.steadySpec(workload), cfg, rep)
	}
	if err != nil {
		return nil, err
	}
	return rep, rep.check(decls, own)
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in a process of its own, one after another, so
// that set-up time, CPU time and peak memory belong to one workload each.
func runAll(decl *benchmarkFile, seed int64, seconds, trace int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range decl.Workloads {
		args := []string{"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
		if trace != 0 {
			break // a traced run walks the inputs of all five workloads
		}
	}
	return nil
}
