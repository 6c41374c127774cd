package metrics

import (
	"sync"
	"sync/atomic"
)

// Counter is a concurrency-safe monotonic event counter, used by the
// discovery and response-cache counters. It sits on the discovery fast
// path, so it is a bare atomic rather than a mutexed int: Inc is one
// uncontended atomic add and Value one atomic load.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// CounterSet is a concurrency-safe map of labelled counters, used for
// per-host discovery assignment counts. The label set is effectively fixed
// once every host has been assigned to, while Inc runs on every discovery
// answer. The layout exploits that: an atomic.Pointer holds an immutable
// map from label to a per-label atomic cell, so Inc on a known label and
// every read are lock-free; the mutex is taken only to grow the label set,
// by publishing a copied map, which happens once per host ever.
type CounterSet struct {
	mu   sync.Mutex // serialises label insertion only
	vals atomic.Pointer[map[string]*atomic.Int64]
}

func (c *CounterSet) cell(label string) *atomic.Int64 {
	if m := c.vals.Load(); m != nil {
		if n, ok := (*m)[label]; ok {
			return n
		}
	}
	return nil
}

// Inc adds one to the counter for label.
func (c *CounterSet) Inc(label string) { c.Add(label, 1) }

// Add adds delta to the counter for label.
func (c *CounterSet) Add(label string, delta int64) {
	if n := c.cell(label); n != nil {
		n.Add(delta)
		return
	}
	c.addSlow(label, delta)
}

// addSlow publishes a copied map with the new label's cell.
func (c *CounterSet) addSlow(label string, delta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Re-check under the lock: another writer may have inserted the label.
	if n := c.cell(label); n != nil {
		n.Add(delta)
		return
	}
	old := c.vals.Load()
	var size int
	if old != nil {
		size = len(*old)
	}
	next := make(map[string]*atomic.Int64, size+1)
	if old != nil {
		for l, n := range *old {
			next[l] = n
		}
	}
	n := new(atomic.Int64)
	n.Store(delta)
	next[label] = n
	c.vals.Store(&next)
}

// Value returns the counter for label (zero when never incremented).
func (c *CounterSet) Value(label string) int64 {
	if n := c.cell(label); n != nil {
		return n.Load()
	}
	return 0
}

// Snapshot returns a copy of every labelled counter.
func (c *CounterSet) Snapshot() map[string]int64 {
	m := c.vals.Load()
	if m == nil {
		return map[string]int64{}
	}
	out := make(map[string]int64, len(*m))
	for l, n := range *m {
		out[l] = n.Load()
	}
	return out
}
