//go:build linux

package main

import (
	"fmt"
	"time"
)

// The sandbox this benchmark runs in is a small virtual machine on a shared
// host. Its speed for interpreter-like work (dispatch plus loads and stores
// over a megabyte) drifts by 20-70% over minutes to hours with the
// neighbours' memory traffic, while a register-only loop holds to 3%. That
// drift moves every run-level figure of every workload together, and no
// amount of sampling inside a run averages it out, because a run is shorter
// than the drift. As measured, the same commit reads 25-45% worse in a slow
// hour than in a quiet one, more than any bound a metric may carry.
//
// So every run times a frozen reference kernel in short slices between its
// measured segments (while the daemons are idle), and reports durations and
// rates at the reference speed: duration x refNsPerStep / measured ns/step.
// Over 24 runs of one seed the kernel's speed explained the run-to-run
// movement of throughput and CPU per operation with r = 0.8 to 0.98 and a
// log-log slope of 0.6 to 1.15, and scaling by it cut their spread by half
// to three quarters. It is a model, not an identity: workloads that keep both
// cores busy (community) lose more to a busy host than this one thread does.
// The raw figures are printed beside the scaled ones.
//
// The kernel uses nothing of the repository, and later changes may not edit
// this directory. What a change to the system under test could still do is
// work in the background while the kernel is timed, slow it, and so flatter
// every scaled figure. So the process's CPU time over the slices is compared
// with the slices' own length: the kernel is one thread, and a run in which
// the process burnt more than maxSharedCPU times that is refused.

const (
	// refNsPerStep is the kernel's speed on this sandbox when the host is
	// quiet. It only fixes the unit: on another machine every scaled figure
	// shifts by one constant factor.
	refNsPerStep = 10.0
	sliceSteps   = 400_000 // about 4 ms
	maxSharedCPU = 1.5
)

// refMachine is the reference kernel: a little bytecode machine with eight
// registers, 1 MiB of memory and a fixed pseudo-random program.
type refMachine struct {
	mem  []uint32
	code []uint8
	regs [8]uint32
	pc   int
}

func newRefMachine() *refMachine {
	m := &refMachine{mem: make([]uint32, 1<<18), code: make([]uint8, 4096)}
	x := uint32(2463534242)
	next := func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	for i := range m.mem {
		m.mem[i] = next()
	}
	for i := range m.code {
		m.code[i] = uint8(next())
	}
	return m
}

func (m *refMachine) run(steps int) {
	r, pc := &m.regs, m.pc
	mask := uint32(len(m.mem) - 1)
	for i := 0; i < steps; i++ {
		op := m.code[pc]
		a, b := (op>>2)&7, (op>>5)&7
		switch op & 3 {
		case 0:
			r[a] += r[b] + 1
		case 1:
			r[a] = m.mem[(r[b]+uint32(i))&mask]
		case 2:
			m.mem[(r[a]^uint32(i))&mask] = r[b]
		case 3:
			if r[a]&1 == 0 {
				pc += int(b)
			}
		}
		pc = (pc + 1) & (len(m.code) - 1)
	}
	m.pc = pc
}

// calibrator collects the reference kernel's slices of one run.
type calibrator struct {
	m         *refMachine
	slices    []int64       // picoseconds per step
	wall, cpu time.Duration // over all slices: their length, and the process's CPU time
}

func newCalibrator() *calibrator {
	c := &calibrator{m: newRefMachine(), slices: make([]int64, 0, 4096)}
	c.m.run(sliceSteps) // touch the memory once before any slice counts
	return c
}

// slice times the kernel once. Call it only while nothing is being timed.
func (c *calibrator) slice() {
	cpu0, t0 := cpuTime(), time.Now()
	c.m.run(sliceSteps)
	took := time.Since(t0)
	c.wall, c.cpu = c.wall+took, c.cpu+cpuTime()-cpu0
	c.slices = append(c.slices, int64(took)*1000/sliceSteps)
}

// sharedCPU is the process's CPU time over the slices as a multiple of the
// slices' length: 1 when only the kernel ran.
func (c *calibrator) sharedCPU() float64 {
	if c.wall == 0 {
		return 1
	}
	return c.cpu.Seconds() / c.wall.Seconds()
}

// check refuses a run whose daemons were busy while the kernel was timed.
// The smoke test, which runs the workloads side by side, passes no limit.
func (c *calibrator) check(limit float64) error {
	if s := c.sharedCPU(); limit > 0 && s > limit {
		return fmt.Errorf("the process used %.2f CPUs while the one-thread reference kernel was timed (allowed %.1f): the daemons were not idle, and the scaled figures would be flattered", s, limit)
	}
	return nil
}

// nsPerStep is the median slice.
func (c *calibrator) nsPerStep() float64 {
	s := append([]int64(nil), c.slices...)
	sortInt64(s)
	return float64(quantile(s, 0.5)) / 1000
}

// scale is the factor that brings a duration measured in this run to the
// reference speed; a rate is divided by it.
func (c *calibrator) scale() float64 {
	if len(c.slices) == 0 {
		return 1
	}
	return refNsPerStep / c.nsPerStep()
}

func (c *calibrator) note(rep *report) {
	rep.note("machine speed: reference kernel %.3f ns/step, median of %d slices (reference %.1f); durations x %.4f, rates / %.4f; the process used %.2f CPUs meanwhile",
		c.nsPerStep(), len(c.slices), refNsPerStep, c.scale(), c.scale(), c.sharedCPU())
}

// raw formats a figure as measured, for a scaled metric's detail column.
func raw(v float64, unit string) string { return fmt.Sprintf("measured %.6g %s", v, unit) }
