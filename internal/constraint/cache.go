package constraint

import (
	"sync"

	"repro/internal/metrics"
)

// DefaultCacheSize bounds the parsed-constraint cache when the caller
// doesn't pick a size. One entry per service is the natural working set;
// 1024 covers a large registry while keeping the worst-case footprint
// trivial (an entry is a hash plus a small parsed struct).
const DefaultCacheSize = 1024

// Cache memoizes FromDescription results per service. The registry no
// longer consults it — discovery reads the digest the store keeps beside
// each service — and it is compiled only for bench/layers.go, which times
// it as a reference (see registry.Registry.ConstraintCache). Entries are
// keyed by service id and validated against an FNV-1a hash of the
// description text: when the description changes, the hash no longer
// matches and the entry is reparsed, so a lookup can never return a
// constraint parsed from a different description than the one passed in.
// Invalidate drops an entry outright.
//
// Cached *Constraint values are shared between goroutines; they are
// immutable after parsing and must not be modified by callers.
//
// All methods are safe for concurrent use and safe on a nil receiver
// (a nil cache simply parses every time).
type Cache struct {
	// Hits counts lookups answered from the cache; Misses counts lookups
	// that had to parse; Invalidations counts entries dropped by
	// Invalidate. All are always allocated.
	Hits          *metrics.Counter
	Misses        *metrics.Counter
	Invalidations *metrics.Counter

	max int

	mu      sync.Mutex
	entries map[string]*cacheEntry // guarded by mu
	order   []string               // guarded by mu; insertion order for FIFO eviction
}

type cacheEntry struct {
	hash uint64
	c    *Constraint
	err  error
}

// NewCache creates a cache bounded to max entries; max <= 0 means
// DefaultCacheSize.
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	return &Cache{
		Hits:          &metrics.Counter{},
		Misses:        &metrics.Counter{},
		Invalidations: &metrics.Counter{},
		max:           max,
		entries:       make(map[string]*cacheEntry),
	}
}

// FromDescription returns the parsed constraint block for desc, reusing
// the cached parse when serviceID's entry matches desc's hash, and
// reports whether the answer came from the cache. The rest of the
// description (FromDescription's second result) is not cached: the
// discovery path never uses it.
func (c *Cache) FromDescription(serviceID, desc string) (_ *Constraint, cached bool, _ error) {
	if c == nil || serviceID == "" {
		parsed, _, err := FromDescription(desc)
		return parsed, false, err
	}
	h := hashDescription(desc)
	c.mu.Lock()
	e, ok := c.entries[serviceID]
	c.mu.Unlock()
	if ok && e.hash == h {
		c.Hits.Inc()
		return e.c, true, e.err
	}
	c.Misses.Inc()
	parsed, _, err := FromDescription(desc)
	c.store(serviceID, &cacheEntry{hash: h, c: parsed, err: err})
	return parsed, false, err
}

// store inserts or replaces serviceID's entry, evicting the oldest
// entries when a new key would exceed the bound. A key invalidated and
// re-added may appear twice in the FIFO order; the duplicate only makes
// an eviction slightly early, never incorrect.
func (c *Cache) store(id string, e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, present := c.entries[id]; !present {
		for len(c.entries) >= c.max && len(c.order) > 0 {
			oldest := c.order[0]
			c.order = c.order[1:]
			delete(c.entries, oldest)
		}
		c.order = append(c.order, id)
	}
	c.entries[id] = e
}

// Invalidate drops the entry for serviceID if present.
func (c *Cache) Invalidate(serviceID string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	_, ok := c.entries[serviceID]
	if ok {
		delete(c.entries, serviceID)
	}
	c.mu.Unlock()
	if ok {
		c.Invalidations.Inc()
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// FNV-1a parameters (hash/fnv's 64-bit constants, inlined so the hot
// path hashes the string directly instead of converting it to []byte and
// boxing a hash.Hash64).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashDescription is FNV-1a over the description text — the version key
// that ties a cached parse to the exact text it was parsed from. The loop
// indexes the string's bytes in place: no copy, no interface, no escape.
func hashDescription(desc string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(desc); i++ {
		h ^= uint64(desc[i])
		h *= fnvPrime64
	}
	return h
}
