// Package respcache keeps one preserialized discovery answer per stored
// service, on the service's own discovery entry in the store
// (store.DiscoveryView.Answer), and says when it may be served. A service's
// answer is rendered in the encoding (JSON or SOAP) the first request after
// a change asks for, the other encoding on the first request that asks for
// that, and each is then served with a single Write until one of the four
// things it was computed from moves. Each has one owner and one mechanism,
// and the cache is told of none of them:
//
//   - the stored service: a write, a replayed or followed record or a
//     follower's bootstrap that re-indexes the service gives it a new
//     entry with an empty slot, so the answer goes with the version it was
//     computed from, and a write to one service leaves every other
//     service's answer standing;
//   - the NodeState rows: the balancer's snapshot generation is stamped on
//     the answer, so the next sweep's install misses;
//   - the brownout tier: the tier is stamped on the answer, and the
//     admission controller's transition count is part of the epoch, since
//     a transition also changes the overrides the decision is computed
//     under;
//   - the request time: answers carry an Expires instant, the next
//     constraint time-window boundary or freshness horizon.
//
// The epoch is the sum of the counters the cache was built with plus its
// own flush count. An answer is stamped with the epoch and generation read
// *before* its decision was computed and is put on the entry of the view
// it was computed from (Put), so a change that lands mid-flight leaves an
// answer that either never validates or is never read — conservative,
// never stale.
//
// There is no table to bound: the store holds at most one answer per
// stored service, and an unknown name or id reaches no entry to fill.
package respcache

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/store"
)

// Entry is one preserialized answer. Epoch, Gen, Tier, and Expires record
// the world it was rendered in, and Get revalidates all four. Decision is
// retained so a hit can feed the same discovery metrics a rendered
// response would.
//
// An entry is immutable once put. It carries the encoding its first
// request asked for; the other one is nil until a request wants it, renders
// it from URIs and Decision into a copy, and puts the copy in its place.
type Entry struct {
	Epoch    uint64 // the cache's epoch read before the decision was computed
	Gen      uint64
	Tier     uint32
	Expires  time.Time // zero means no time-dependent constraint or freshness horizon
	JSON     []byte
	SOAP     []byte
	URIs     []string // the arranged answer the encodings are rendered from
	Decision core.Decision
}

// Cache says which answers on the store's entries are still valid. All
// methods are safe for concurrent use.
type Cache struct {
	store   *store.Store    // immutable after New; only Lookup and Len read it
	sources []func() uint64 // immutable after New
	flushes atomic.Uint64

	Hits   metrics.Counter
	Misses metrics.Counter
}

// New creates the cache of the answers kept on s's entries. Each source is
// a counter that only grows and that its owner advances no later than the
// change it counts becomes visible; the epoch moves whenever one of them
// does.
func New(s *store.Store, sources ...func() uint64) *Cache {
	return &Cache{store: s, sources: sources}
}

// Epoch returns the current epoch: the flush count plus every source.
// Callers read it before computing a decision and stamp the answer with
// it, so answers rendered across a concurrent change can never validate.
func (c *Cache) Epoch() uint64 {
	e := c.flushes.Load()
	for _, src := range c.sources {
		e += src()
	}
	return e
}

// Get returns the answer v's entry holds if it was computed in the current
// world: same epoch, same snapshot generation, same brownout tier, and not
// past its expiry. Anything else — no answer, a stale one, a view built by
// hand — counts as a miss.
func (c *Cache) Get(v store.DiscoveryView, gen uint64, tier uint32, now time.Time) *Entry {
	e, _ := v.Answer().(*Entry)
	if e == nil || e.Epoch != c.Epoch() || e.Gen != gen || e.Tier != tier ||
		(!e.Expires.IsZero() && !now.Before(e.Expires)) {
		c.Misses.Inc()
		return nil
	}
	c.Hits.Inc()
	return e
}

// Put leaves e on the entry of v, the view it was computed from, in place
// of old, what the entry held when the computation started (nil for
// nothing). An entry that no longer holds old keeps what replaced it: a
// newer answer, or a sibling that adds old's other encoding.
func Put(v store.DiscoveryView, old, e *Entry) {
	if old == nil {
		v.CompareAndSwapAnswer(nil, e) // not a nil *Entry, which an empty slot is not
		return
	}
	v.CompareAndSwapAnswer(old, e)
}

// Len reports how many stored services carry an answer, valid or not.
func (c *Cache) Len() int { return c.store.Answers() }

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
