package constraint

import "repro/internal/metrics"

// Cache is what was a memo of parsed constraint blocks per service and is
// now the counters of a stateless parse (FromDescription, kept for bench/ in
// pinned.go). Nothing needs the memo: discovery reads the digest the store
// keeps on each service's entry (store.DiscoveryView.Digest), parsed once
// per version of the description. The zero value is ready to use, and so
// is a nil *Cache.
type Cache struct {
	// Hits stays 0; Misses counts the parses made for a named service.
	Hits, Misses metrics.Counter
}
