// Package flagged exercises the mutexcopy analyzer: locks returned by
// value. The parameter, receiver and range copies below are go vet
// copylocks findings, so mutexcopy stays silent on them.
package flagged

import "sync"

// guarded embeds a mutex, so any by-value copy of it copies the lock.
type guarded struct {
	mu sync.Mutex
	n  int
}

// ByValue receives a lock by value.
func ByValue(mu sync.Mutex) { // go vet copylocks
	mu.Lock()
	defer mu.Unlock()
}

// Nested receives a lock inside a struct by value.
func Nested(g guarded) int { // go vet copylocks
	return g.n
}

// Value uses a by-value receiver on a lock-bearing type.
func (g guarded) Value() int { // go vet copylocks
	return g.n
}

// Sum copies a lock per iteration through the range value.
func Sum(gs []guarded) int {
	total := 0
	for _, g := range gs { // go vet copylocks
		total += g.n
	}
	return total
}

// Fresh returns a lock-bearing literal by value, which go vet accepts.
func Fresh() guarded { // want "result of Fresh copies a lock"
	return guarded{n: 1}
}

// Named returns a lock-bearing value through a named result.
func Named() (g guarded) { // want "result of Named copies a lock"
	g.n = 2
	return
}
