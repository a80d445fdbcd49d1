// Package pool is the repository's one worker-pool primitive: contiguous
// range splitting of an index space over a bounded number of goroutines.
//
// Several hot paths fan work out over goroutines with identical ad-hoc
// loops (the simulated device's grid execution, the CPU treecode's batch
// loop, the charge pass, the interaction-list traversal, the direct-sum
// baselines). Centralizing the splitting here keeps the partitioning rule —
// worker w owns [w*n/W, (w+1)*n/W) — identical everywhere, which matters
// for code that reuses per-worker scratch buffers: the worker index passed
// to Blocks is a stable identity for the duration of one call.
//
// The pool is purely a host-execution construct; it never interacts with
// modeled time.
package pool

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Workers returns the number of goroutines Blocks and For will actually use
// for n items and the requested worker count: workers <= 0 selects
// GOMAXPROCS, and the result is clamped to [1, n] (0 items still report 1
// so per-worker state can be sized uniformly).
func Workers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	return max(workers, 1)
}

// Blocks partitions [0, n) into Workers(n, workers) contiguous ranges and
// runs fn(w, lo, hi) for each, where w is the worker index in
// [0, Workers(n, workers)). With a single worker fn runs inline on the
// calling goroutine; otherwise each range runs on its own goroutine and
// Blocks returns after all complete. fn must be safe for concurrent calls
// with distinct w.
//
// A panic in fn reaches the caller either way, so a caller can recover
// it: a worker goroutine recovers its own panic, and once every worker
// has finished, Blocks panics on the calling goroutine with an error that
// carries the first recovered value and that worker's stack.
func Blocks(n, workers int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers(n, workers)
	if w == 1 {
		fn(0, 0, n)
		return
	}
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first *workerPanic
	)
	for i := 0; i < w; i++ {
		lo := i * n / w
		hi := (i + 1) * n / w
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					p := &workerPanic{value: v, stack: debug.Stack()}
					once.Do(func() { first = p })
				}
			}()
			fn(i, lo, hi)
		}(i, lo, hi)
	}
	wg.Wait()
	if first != nil {
		panic(first)
	}
}

// workerPanic is what Blocks re-panics with on the calling goroutine.
type workerPanic struct {
	value any
	stack []byte
}

func (p *workerPanic) Error() string {
	return fmt.Sprintf("%v\n\nworker goroutine stack:\n%s", p.value, p.stack)
}

// For runs fn(i) for every i in [0, n) using Blocks' range partitioning:
// the common case when no per-worker state is needed.
func For(n, workers int, fn func(i int)) {
	Blocks(n, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}
