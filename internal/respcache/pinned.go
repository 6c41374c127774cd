// Kept for `bench/`, which is frozen; no production caller. The names here
// are the response cache's interface from before answers moved onto the
// store's entries, adapted to the entries: the serving path calls Get and
// Put, and a bannedcall row keeps it from calling these.

package respcache

import "time"

// Space is the key namespace a Lookup resolves its key in: a service name
// (case-insensitive) or a service id.
type Space int

const (
	SpaceName Space = iota
	SpaceID
)

// Lookup resolves key in space through the store and returns the answer
// Get finds on the service's entry; an unknown key is a miss.
func (c *Cache) Lookup(space Space, key string, gen uint64, tier uint32, now time.Time) *Entry {
	v, _ := c.store.LookupService(key, space == SpaceID)
	return c.Get(v, gen, tier, now)
}

// StoreAt drops e: it does not say which version of the service it was
// computed from, and only an answer put on the entry it was computed from
// can be served (Put).
func (c *Cache) StoreAt(space Space, key string, e *Entry, epoch uint64) {}

// BumpEpoch invalidates every answer by advancing the epoch.
func (c *Cache) BumpEpoch() {
	c.flushes.Add(1)
}
