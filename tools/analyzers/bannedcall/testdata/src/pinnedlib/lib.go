// Package pinnedlib mirrors a package that keeps names for the frozen
// benchmark in pinned.go: its own code may use them.
package pinnedlib

type Cache struct {
	pinned
	hits int
}

// Get is the name the serving path calls.
func (c *Cache) Get(key string) string { c.hits++; return key }

func warm(c *Cache) string { return c.Lookup(SpaceName, "k") + c.Legacy.Get("k") }
