package pool

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkersClamp(t *testing.T) {
	cases := []struct {
		n, workers, want int
	}{
		{10, 4, 4},
		{10, 100, 10},                         // never more workers than items
		{3, 0, min(runtime.GOMAXPROCS(0), 3)}, // <=0 selects GOMAXPROCS
		{0, 4, 1},                             // zero items still report one worker
		{10, -1, min(runtime.GOMAXPROCS(0), 10)},
		{10, 1, 1},
	}
	for _, c := range cases {
		if got := Workers(c.n, c.workers); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

// TestBlocksPartition verifies the ranges tile [0, n) exactly, in worker
// order, for a spread of worker counts.
func TestBlocksPartition(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 1000} {
		for _, workers := range []int{1, 2, 3, 7, 64, 0} {
			seen := make([]int32, n)
			var calls atomic.Int32
			Blocks(n, workers, func(w, lo, hi int) {
				calls.Add(1)
				if lo > hi || lo < 0 || hi > n {
					t.Errorf("n=%d workers=%d: bad range [%d,%d)", n, workers, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d covered %d times", n, workers, i, c)
				}
			}
			if n > 0 {
				if want := Workers(n, workers); calls.Load() != int32(want) {
					t.Errorf("n=%d workers=%d: fn called %d times, want %d", n, workers, calls.Load(), want)
				}
			} else if calls.Load() != 0 {
				t.Errorf("n=0: fn called %d times, want 0", calls.Load())
			}
		}
	}
}

// TestBlocksSingleWorkerInline pins the inline guarantee: one worker means
// fn runs on the calling goroutine, so callers may use non-thread-safe
// state without synchronization.
func TestBlocksSingleWorkerInline(t *testing.T) {
	sum := 0 // would race if fn ran on another goroutine under -race
	Blocks(100, 1, func(w, lo, hi int) {
		if w != 0 {
			t.Errorf("single worker index = %d", w)
		}
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	if sum != 4950 {
		t.Errorf("sum = %d, want 4950", sum)
	}
}

func TestForCoversAll(t *testing.T) {
	n := 777
	seen := make([]int32, n)
	For(n, 4, func(i int) { atomic.AddInt32(&seen[i], 1) })
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

// TestBlocksWorkerPanicReachesCaller pins that a panic on a worker
// goroutine does not crash the process: Blocks waits for every worker,
// then panics on the caller with the worker's value and stack, which the
// caller can recover.
func TestBlocksWorkerPanicReachesCaller(t *testing.T) {
	var done atomic.Int32
	var got any
	func() {
		defer func() { got = recover() }()
		Blocks(8, 4, func(w, lo, hi int) {
			if w == 2 {
				panic("boom")
			}
			done.Add(1)
		})
	}()
	err, ok := got.(error)
	if !ok {
		t.Fatalf("recovered %T %v, want an error", got, got)
	}
	if msg := err.Error(); !strings.Contains(msg, "boom") || !strings.Contains(msg, "worker goroutine stack") {
		t.Fatalf("recovered error lacks the value or the stack: %q", msg)
	}
	if done.Load() != 3 {
		t.Fatalf("%d other workers finished, want 3", done.Load())
	}
}
