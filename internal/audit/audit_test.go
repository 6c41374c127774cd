package audit

import (
	"testing"
	"time"

	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/store"
)

var t0 = time.Date(2011, 4, 22, 10, 0, 0, 0, time.UTC)

// record stores the event the trail builds, as the LifeCycleManager does
// with the mutation the event describes.
func record(t *testing.T, trail *Trail, kind rim.EventType, userID string, affected ...string) *rim.AuditableEvent {
	t.Helper()
	e := trail.Event(kind, userID, affected...)
	if err := trail.store.Put(e); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRecordAndQuery(t *testing.T) {
	s := store.New()
	clk := simclock.NewManual(t0)
	trail := New(s, clk)

	e1 := record(t, trail, rim.EventCreated, "urn:uuid:gold", "urn:uuid:org")
	clk.Advance(time.Second)
	record(t, trail, rim.EventUpdated, "urn:uuid:gold", "urn:uuid:org", "urn:uuid:svc")
	clk.Advance(time.Second)
	record(t, trail, rim.EventDeleted, "urn:uuid:admin", "urn:uuid:svc")

	org := trail.EventsFor("urn:uuid:org")
	if len(org) != 2 || org[0].ID != e1.ID || org[0].EventKind != rim.EventCreated {
		t.Fatalf("EventsFor(org) = %+v", org)
	}
	svc := trail.EventsFor("urn:uuid:svc")
	if len(svc) != 2 || svc[1].EventKind != rim.EventDeleted {
		t.Fatalf("EventsFor(svc) = %+v", svc)
	}
	if got := trail.EventsBy("urn:uuid:gold"); len(got) != 2 {
		t.Fatalf("EventsBy = %d", len(got))
	}
	if got := trail.EventsSince(t0.Add(time.Second)); len(got) != 2 {
		t.Fatalf("EventsSince = %d", len(got))
	}
	if got := trail.EventsFor("urn:uuid:ghost"); len(got) != 0 {
		t.Fatalf("ghost events = %d", len(got))
	}
}

func TestEventsArePersistedObjects(t *testing.T) {
	s := store.New()
	trail := New(s, simclock.NewManual(t0))
	e := record(t, trail, rim.EventApproved, "urn:uuid:u", "urn:uuid:x")
	got, err := s.Get(e.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Base().ObjectType != rim.TypeAuditableEvent {
		t.Fatalf("stored type = %s", got.Base().ObjectType)
	}
}

func TestOrderingStableAtSameTimestamp(t *testing.T) {
	s := store.New()
	trail := New(s, simclock.NewManual(t0))
	for i := 0; i < 5; i++ {
		record(t, trail, rim.EventUpdated, "urn:uuid:u", "urn:uuid:x")
	}
	got := trail.EventsFor("urn:uuid:x")
	if len(got) != 5 {
		t.Fatalf("events = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].ID > got[i].ID {
			t.Fatal("tie-break ordering not by id")
		}
	}
}
