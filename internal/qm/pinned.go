// Kept for `bench/`, which is frozen; no production caller.

package qm

import (
	"context"

	"repro/internal/core"
)

// GetServiceBindingsByNameCtx is GetServiceBindingsByName with request
// context: when ctx carries the flight frame of a sampled request, the
// view load and every balancer step add their time to its record. The
// serving path calls ServiceViewCtx and ArrangeCtx itself.
func (m *Manager) GetServiceBindingsByNameCtx(ctx context.Context, name string) ([]string, core.Decision, error) {
	return m.bindings(ctx, name, false)
}
