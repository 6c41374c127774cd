// Kept for `bench/`, which is frozen; no production caller.

package constraint

// FromDescription parses desc's constraint block and reports that the
// answer did not come from a cache. The rest of the description
// (FromDescription's second result) is dropped.
func (c *Cache) FromDescription(serviceID, desc string) (_ *Constraint, cached bool, _ error) {
	if c != nil && serviceID != "" {
		c.Misses.Inc()
	}
	parsed, _, err := FromDescription(desc)
	return parsed, false, err
}
