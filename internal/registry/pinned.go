// Kept for `bench/`, which is frozen; no production caller.

package registry

import "repro/internal/constraint"

// pinned holds the Registry fields only bench/ reads; Registry embeds it,
// so they are read as fields of the Registry.
type pinned struct {
	// ConstraintCache serves nothing: discovery reads the digest the store
	// keeps on each service's entry (store.DiscoveryView.Digest).
	// bench/layers.go times its parse, and bench/bench_test.go requires
	// registry_constraint_cache_hits_total, which reads its Hits and stays
	// 0.
	ConstraintCache *constraint.Cache
}
