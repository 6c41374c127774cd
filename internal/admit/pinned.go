// Kept for `bench/`, which is frozen; no production caller.

package admit

import (
	"context"
	"time"
)

// WithBudget derives a context whose budget ends d from now on the
// controller's clock: the budget Wrap gives an admitted request, for work
// that does not arrive through Wrap. Cancelling ends the budget; the
// returned exceeded func reports whether the deadline had passed by then
// (or by now, if the work is still running).
func (c *Controller) WithBudget(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc, func() bool) {
	if d <= 0 {
		return ctx, func() {}, func() bool { return false }
	}
	b := &budget{parent: ctx, clock: c.clock, deadline: c.clock.Now().Add(d)}
	return b, func() { b.end() }, b.exceeded
}
