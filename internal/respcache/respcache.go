// Package respcache caches preserialized discovery responses. A
// per-service binding list is rendered in the encoding (JSON or SOAP) the
// first request after a change asks for, the other encoding on the first
// request that asks for that, and each is then served with a single Write
// until one of the four causes that could alter the answer moves. Each has
// one owner and one mechanism, and the cache is told of none of them:
//
//   - the stored service: the store's change count (store.Store.Changes),
//     advanced by every Apply and Load — a leader's write, a replayed or
//     followed record, a follower's bootstrap — is part of the epoch;
//   - the NodeState rows: the balancer's snapshot generation is part of
//     the entry key, so a collector republish misses;
//   - the brownout tier: the tier is part of the entry key, and the
//     admission controller's transition count is part of the epoch, since
//     a transition also changes the overrides the decision is computed
//     under;
//   - the request time: entries carry an Expires instant, the next
//     constraint time-window boundary or freshness horizon.
//
// The epoch is the sum of the counters the cache was built with plus its
// own flush count (BumpEpoch). Entries are stamped with the epoch observed
// *before* the decision was computed, so a change that lands mid-flight
// leaves a stamp that never validates — conservative, never stale.
//
// Its size follows the store, not a fixed cap. The registry stores only
// answers to lookups that resolved, so a scan of unknown names stores
// nothing, and the memory spent is one rendered answer per stored service
// in each space. Keys the store does not bound one-to-one — case variants
// of one name, services deleted since their answer was stored — can still
// reach numSpaces × services entries; adding one more key then flushes the
// whole table, a deterministic reset (no RNG, per the repo's norand
// invariant).
package respcache

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Space separates the cache's key namespaces: discovery by service name
// (REST and SOAP GetServiceBindingsByName) and by service id (SOAP
// GetServiceBindings). The same string could legally be both a name and
// an id, so the spaces never share keys.
type Space int

const (
	SpaceName Space = iota
	SpaceID
	numSpaces
)

// Entry is one preserialized response. Gen, Tier, and Expires record the
// world the entry was rendered in; Lookup revalidates all three plus the
// epoch. Decision is retained so a cache hit can feed the same
// discovery metrics a rendered response would.
//
// An entry is immutable once stored. It carries the encoding its first
// request asked for; the other one is nil until a request wants it, renders
// it from URIs and Decision, and swaps in a sibling entry (StoreSibling)
// holding both. An entry stored with both encodings needs no URIs.
type Entry struct {
	Gen      uint64
	Tier     uint32
	Expires  time.Time // zero means no time-dependent constraint or freshness horizon
	JSON     []byte
	SOAP     []byte
	URIs     []string // the arranged answer the encodings are rendered from
	Decision core.Decision

	epoch uint64 // epoch observed before the decision was computed
}

// Cache is an epoch-validated map of preserialized responses. All methods
// are safe for concurrent use.
type Cache struct {
	services func() int      // immutable after New
	sources  []func() uint64 // immutable after New
	flushes  atomic.Uint64

	mu     sync.RWMutex
	spaces [numSpaces]map[string]*Entry // guarded by mu

	Hits   metrics.Counter
	Misses metrics.Counter
}

// New creates a cache that holds at most one entry per service in each
// space: services reports how many services the store holds, and StoreAt
// reads it before the cache takes its own lock. Each source is a counter
// that only grows and that its owner advances no later than the change it
// counts becomes visible; the epoch moves whenever one of them does.
func New(services func() int, sources ...func() uint64) *Cache {
	c := &Cache{services: services, sources: sources}
	c.mu.Lock()
	for i := range c.spaces {
		c.spaces[i] = make(map[string]*Entry)
	}
	c.mu.Unlock()
	return c
}

// Epoch returns the current epoch: the flush count plus every source.
// Callers read it before computing a decision and pass it back to StoreAt,
// so entries rendered across a concurrent change can never validate.
func (c *Cache) Epoch() uint64 {
	e := c.flushes.Load()
	for _, src := range c.sources {
		e += src()
	}
	return e
}

// BumpEpoch invalidates every live entry by advancing the epoch.
func (c *Cache) BumpEpoch() {
	c.flushes.Add(1)
}

// Lookup returns the cached entry for (space, key) if it was rendered in
// the current world: same epoch, same snapshot generation, same
// brownout tier, and not past its expiry. Misses and invalid entries
// count as misses.
func (c *Cache) Lookup(space Space, key string, gen uint64, tier uint32, now time.Time) *Entry {
	c.mu.RLock()
	e := c.spaces[space][key]
	c.mu.RUnlock()
	if e == nil || e.epoch != c.Epoch() || e.Gen != gen || e.Tier != tier ||
		(!e.Expires.IsZero() && !now.Before(e.Expires)) {
		c.Misses.Inc()
		return nil
	}
	c.Hits.Inc()
	return e
}

// StoreAt inserts an entry stamped with the epoch the caller read before
// computing it. When a new key would take the cache past numSpaces entries
// per stored service, the whole table is flushed first — a deterministic
// reset rather than a randomized eviction; storing under an existing key
// never flushes.
func (c *Cache) StoreAt(space Space, key string, e *Entry, epoch uint64) {
	if e == nil {
		return
	}
	e.epoch = epoch
	bound := int(numSpaces) * c.services() // the store's lock, never under ours
	c.mu.Lock()
	if _, exists := c.spaces[space][key]; !exists && c.lenLocked() >= bound {
		for i := range c.spaces {
			c.spaces[i] = make(map[string]*Entry)
		}
	}
	c.spaces[space][key] = e
	c.mu.Unlock()
}

// StoreSibling replaces of, an entry Lookup returned for (space, key), with
// sib, a copy of it that also carries its second encoding. The sibling
// keeps of's validity stamp — epoch, generation, tier, expiry — so it is
// valid exactly as long as of would have been: a change that landed since
// of was computed leaves both invalid. When (space, key) no longer holds
// of (a newer answer was stored, or the table was flushed) nothing is
// stored; the caller still serves sib, which is as good as of was.
func (c *Cache) StoreSibling(space Space, key string, of, sib *Entry) {
	sib.epoch = of.epoch
	c.mu.Lock()
	if c.spaces[space][key] == of {
		c.spaces[space][key] = sib
	}
	c.mu.Unlock()
}

// Len reports the live entry count across all spaces.
func (c *Cache) Len() int {
	c.mu.RLock()
	n := c.lenLocked()
	c.mu.RUnlock()
	return n
}

// lenLocked sums the space sizes; callers hold mu.
func (c *Cache) lenLocked() int {
	n := 0
	for i := range c.spaces {
		n += len(c.spaces[i])
	}
	return n
}

// bufPool recycles the scratch buffers used to render responses (and by
// the registry's pooled JSON writer). Oversized buffers are dropped on
// return so one pathological response cannot pin memory forever.
var bufPool = sync.Pool{
	New: func() interface{} { return new(bytes.Buffer) },
}

const maxPooledBuffer = 1 << 20

// GetBuffer returns a reset scratch buffer from the pool.
func GetBuffer() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// PutBuffer returns a buffer to the pool unless it has grown past the
// pooling cap.
func PutBuffer(b *bytes.Buffer) {
	if b == nil || b.Cap() > maxPooledBuffer {
		return
	}
	bufPool.Put(b)
}
