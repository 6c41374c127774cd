// Kept for the frozen benchmark; no production caller.

package pinnedlib

type Space int

const SpaceName Space = 0

type pinned struct {
	Legacy *Cache
}

func (c *Cache) Lookup(space Space, key string) string { return c.Get(key) }
