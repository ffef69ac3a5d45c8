package core

import (
	"runtime"
	"sort"
	"sync"

	"sweeper/internal/proc"
	"sweeper/internal/vm"
)

// isolateInput identifies the exploit request by replaying the requests
// received since the checkpoint one at a time — each on its own (pooled)
// clone — and seeing which one reproduces the failure (the fallback the paper
// also uses when taint analysis alone cannot name the input). A bounded
// worker pool (one per usable processor) replays candidates concurrently and
// stops handing out work past the earliest reproducer found; the first
// reproducing candidate in arrival order is returned. With one processor the
// pool is one worker trying the candidates in order, stopping at the first
// reproducer.
func (s *Sweeper) isolateInput(snap *proc.Snapshot) int {
	candidates := s.proc.Log.RequestsSince(snap.LogLen)
	if len(candidates) == 0 {
		return -1
	}
	if len(candidates) == 1 {
		return candidates[0]
	}
	sort.Ints(candidates)
	tryCandidate := func(i int) bool {
		sb, err := s.sandbox(snap)
		if err != nil {
			return false
		}
		defer sb.Release()
		var others []int
		for j, id := range candidates {
			if j != i {
				others = append(others, id)
			}
		}
		sb.Proc.DropRequests(others...)
		stop := sb.Run()
		return stop.Reason == vm.StopFault || stop.Reason == vm.StopViolation
	}
	workers := min(runtime.GOMAXPROCS(0), len(candidates))
	var (
		mu   sync.Mutex
		next int
		best = -1 // lowest reproducing candidate index found so far
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i >= len(candidates) || (best >= 0 && i > best) {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				if tryCandidate(i) {
					mu.Lock()
					if best < 0 || i < best {
						best = i
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if best >= 0 {
		return candidates[best]
	}
	return -1
}
