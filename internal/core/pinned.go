// Kept for `bench/`, which is frozen; no production caller.

package core

import (
	"time"

	"repro/internal/store"
)

// ArrangeView is ArrangeViewTimed with no stage timer.
func (b *Balancer) ArrangeView(view store.DiscoveryView, now time.Time) ([]string, Decision) {
	return b.arrange(view, now, nil)
}
