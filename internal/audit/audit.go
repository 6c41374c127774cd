// Package audit maintains the registry's audit trail: every
// LifeCycleManager action stores an AuditableEvent recording who did
// what to which objects and when (thesis Fig. 1.18; Table 1.1 "Audit
// trail: Yes"). Events are themselves registry objects, stored in the same
// store and queryable through the same catalogs.
package audit

import (
	"sort"
	"time"

	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/store"
)

// Trail builds events on a clock and reads them back from a store.
type Trail struct {
	store *store.Store
	clock simclock.Clock
}

// New creates a trail over s, timestamped by clock (nil = real).
func New(s *store.Store, clock simclock.Clock) *Trail {
	if clock == nil {
		clock = simclock.Real{}
	}
	return &Trail{store: s, clock: clock}
}

// Event builds the event covering the affected object ids. It is not
// stored here: the LifeCycleManager puts it last in the mutation it
// describes, so the event and the write are logged and applied as one.
func (t *Trail) Event(kind rim.EventType, userID string, affected ...string) *rim.AuditableEvent {
	return rim.NewAuditableEvent(kind, userID, t.clock.Now(), affected...)
}

// EventsFor returns the events whose AffectedIDs include objectID, oldest
// first.
func (t *Trail) EventsFor(objectID string) []*rim.AuditableEvent {
	return t.filter(func(e *rim.AuditableEvent) bool {
		for _, id := range e.AffectedIDs {
			if id == objectID {
				return true
			}
		}
		return false
	})
}

// EventsBy returns the events performed by the given user, oldest first.
func (t *Trail) EventsBy(userID string) []*rim.AuditableEvent {
	return t.filter(func(e *rim.AuditableEvent) bool { return e.UserID == userID })
}

// EventsSince returns events at or after the cutoff, oldest first — the
// feed the subscription bus consumes.
func (t *Trail) EventsSince(cutoff time.Time) []*rim.AuditableEvent {
	return t.filter(func(e *rim.AuditableEvent) bool { return !e.Timestamp.Before(cutoff) })
}

func (t *Trail) filter(keep func(*rim.AuditableEvent) bool) []*rim.AuditableEvent {
	var out []*rim.AuditableEvent
	for _, o := range t.store.ByType(rim.TypeAuditableEvent) {
		if e, ok := o.(*rim.AuditableEvent); ok && keep(e) {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Timestamp.Equal(out[j].Timestamp) {
			return out[i].Timestamp.Before(out[j].Timestamp)
		}
		return out[i].ID < out[j].ID
	})
	return out
}
