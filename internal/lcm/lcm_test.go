package lcm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/events"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/store"
	"repro/internal/xacml"
)

var t0 = time.Date(2011, 4, 22, 10, 0, 0, 0, time.UTC)

func newManager() (*Manager, *store.Store, *audit.Trail, *events.Bus) {
	s := store.New()
	trail := audit.New(s, simclock.NewManual(t0))
	bus := events.NewBus()
	m := New(s, nil, trail, bus)
	return m, s, trail, bus
}

func user(id string) Context {
	return Context{UserID: id, Roles: []string{xacml.RoleRegisteredUser}}
}

func admin() Context {
	return Context{UserID: "urn:uuid:admin", Roles: []string{xacml.RoleAdministrator}}
}

func TestSubmitSetsOwnerAndAudits(t *testing.T) {
	m, s, trail, _ := newManager()
	ctx := user("urn:uuid:gold")
	org := rim.NewOrganization("SDSU")
	if err := m.SubmitObjects(ctx, org); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(org.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Base().Owner != "urn:uuid:gold" || got.Base().Status != rim.StatusSubmitted {
		t.Fatalf("stored = %+v", got.Base())
	}
	evs := trail.EventsFor(org.ID)
	if len(evs) != 1 || evs[0].EventKind != rim.EventCreated {
		t.Fatalf("audit = %+v", evs)
	}
}

func TestSubmitRejectsGuestAndInvalidAndDuplicate(t *testing.T) {
	m, _, _, _ := newManager()
	org := rim.NewOrganization("SDSU")
	if err := m.SubmitObjects(Guest, org); !errors.Is(err, ErrDenied) {
		t.Fatalf("guest submit: %v", err)
	}
	bad := rim.NewOrganization("")
	if err := m.SubmitObjects(user("urn:uuid:g"), bad); err == nil {
		t.Fatal("invalid object submitted")
	}
	ctx := user("urn:uuid:g")
	if err := m.SubmitObjects(ctx, org); err != nil {
		t.Fatal(err)
	}
	if err := m.SubmitObjects(ctx, org); !errors.Is(err, store.ErrExists) {
		t.Fatalf("duplicate submit: %v, want ErrExists", err)
	}
	// Nor twice in one batch, and then none of the batch is stored.
	other, twin := rim.NewOrganization("UCSD"), rim.NewOrganization("twin")
	twin.ID = other.ID
	if err := m.SubmitObjects(ctx, other, twin); !errors.Is(err, store.ErrExists) {
		t.Fatalf("one id twice in a batch: %v, want ErrExists", err)
	}
	if m.Store.Has(other.ID) {
		t.Fatal("a refused batch left its first object behind")
	}
}

// TestSubmitConcurrentSameID: the existence check and the insert are one
// step of the write bracket, so of N racing submissions of one id exactly
// one wins and the rest get ErrExists — on an in-memory manager too, whose
// bracket is its own mutex.
func TestSubmitConcurrentSameID(t *testing.T) {
	m, s, _, _ := newManager()
	const goroutines = 16
	results := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		o := rim.NewOrganization(fmt.Sprintf("Org-%d", i))
		o.ID = "urn:uuid:contested"
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = m.SubmitObjects(admin(), o)
		}(i)
	}
	wg.Wait()
	wins := 0
	for i, err := range results {
		switch {
		case err == nil:
			wins++
		case errors.Is(err, store.ErrExists):
		default:
			t.Fatalf("submit %d: unexpected error %v", i, err)
		}
	}
	if wins != 1 || len(s.ByType(rim.TypeOrganization)) != 1 {
		t.Fatalf("wins = %d, organizations = %d, want exactly 1", wins, len(s.ByType(rim.TypeOrganization)))
	}
}

func TestUpdatePreservesOwnershipAndAuthorizes(t *testing.T) {
	m, s, _, _ := newManager()
	owner := user("urn:uuid:gold")
	other := user("urn:uuid:evil")
	svc := rim.NewService("Adder", "adds")
	if err := m.SubmitObjects(owner, svc); err != nil {
		t.Fatal(err)
	}
	// Non-owner cannot update.
	svc2 := svc.Clone()
	svc2.Description = rim.NewIString("hacked")
	if err := m.UpdateObjects(other, svc2); !errors.Is(err, ErrDenied) {
		t.Fatalf("foreign update: %v", err)
	}
	// Owner can; owner field survives even if the caller blanked it.
	svc3 := svc.Clone()
	svc3.Owner = ""
	svc3.Description = rim.NewIString("edited")
	if err := m.UpdateObjects(owner, svc3); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(svc.ID)
	if got.Base().Owner != "urn:uuid:gold" || got.Base().Description.String() != "edited" {
		t.Fatalf("after update: %+v", got.Base())
	}
	// Updating a missing object fails.
	ghost := rim.NewService("Ghost", "")
	if err := m.UpdateObjects(owner, ghost); err == nil {
		t.Fatal("update of missing object accepted")
	}
}

func TestVersioningBumpsOnUpdate(t *testing.T) {
	m, s, _, _ := newManager()
	m.Versioning = true
	ctx := user("urn:uuid:gold")
	svc := rim.NewService("Adder", "v1")
	if err := m.SubmitObjects(ctx, svc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		up := svc.Clone()
		up.Description = rim.NewIString("rev")
		if err := m.UpdateObjects(ctx, up); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := s.Get(svc.ID)
	if got.Base().Version.VersionName != "1.4" {
		t.Fatalf("version = %q", got.Base().Version.VersionName)
	}
}

func TestBumpVersion(t *testing.T) {
	cases := map[string]string{"1.1": "1.2", "2.9": "2.10", "": "1.1", "weird": "1.1", "3.x": "1.1"}
	for in, want := range cases {
		if got := bumpVersion(in); got != want {
			t.Errorf("bumpVersion(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLifeCycleTransitions(t *testing.T) {
	m, s, _, _ := newManager()
	ctx := user("urn:uuid:gold")
	svc := rim.NewService("Adder", "")
	if err := m.SubmitObjects(ctx, svc); err != nil {
		t.Fatal(err)
	}
	// Submitted -> Deprecated is allowed (skip approve), but
	// Undeprecate requires Deprecated.
	if err := m.UndeprecateObjects(ctx, svc.ID); !errors.Is(err, ErrInvalidState) {
		t.Fatalf("undeprecate from submitted: %v", err)
	}
	if err := m.ApproveObjects(ctx, svc.ID); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(svc.ID); got.Base().Status != rim.StatusApproved {
		t.Fatal("not approved")
	}
	if err := m.DeprecateObjects(ctx, svc.ID); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(svc.ID); got.Base().Status != rim.StatusDeprecated {
		t.Fatal("not deprecated")
	}
	// Deprecated -> Deprecated is invalid.
	if err := m.DeprecateObjects(ctx, svc.ID); !errors.Is(err, ErrInvalidState) {
		t.Fatalf("double deprecate: %v", err)
	}
	if err := m.UndeprecateObjects(ctx, svc.ID); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(svc.ID); got.Base().Status != rim.StatusApproved {
		t.Fatal("not undeprecated")
	}
}

func TestRemoveCascadesOrganizationServices(t *testing.T) {
	m, s, _, _ := newManager()
	ctx := user("urn:uuid:gold")
	org := rim.NewOrganization("SDSU")
	svc := rim.NewService("NodeStatus", "")
	assoc := rim.NewAssociation(rim.AssocOffersService, org.ID, svc.ID)
	if err := m.SubmitObjects(ctx, org, svc, assoc); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveObjects(ctx, org.ID); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{org.ID, svc.ID, assoc.ID} {
		if s.Has(id) {
			t.Fatalf("object %s survived cascade", id)
		}
	}
}

func TestRemoveServiceKeepsOrganization(t *testing.T) {
	m, s, _, _ := newManager()
	ctx := user("urn:uuid:gold")
	org := rim.NewOrganization("SDSU")
	svc := rim.NewService("ServiceAdder", "")
	assoc := rim.NewAssociation(rim.AssocOffersService, org.ID, svc.ID)
	if err := m.SubmitObjects(ctx, org, svc, assoc); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveObjects(ctx, svc.ID); err != nil {
		t.Fatal(err)
	}
	if s.Has(svc.ID) || s.Has(assoc.ID) {
		t.Fatal("service or dangling association survived")
	}
	if !s.Has(org.ID) {
		t.Fatal("organization removed by service delete")
	}
}

func TestRemoveDeniedForNonOwner(t *testing.T) {
	m, s, _, _ := newManager()
	if err := m.SubmitObjects(user("urn:uuid:gold"), rim.NewOrganization("SDSU")); err != nil {
		t.Fatal(err)
	}
	orgs := s.ByType(rim.TypeOrganization)
	if err := m.RemoveObjects(user("urn:uuid:evil"), orgs[0].Base().ID); !errors.Is(err, ErrDenied) {
		t.Fatalf("foreign remove: %v", err)
	}
	// Admin can remove anything.
	if err := m.RemoveObjects(admin(), orgs[0].Base().ID); err != nil {
		t.Fatal(err)
	}
}

func TestCascadeAuthorizationCoversCascadedObjects(t *testing.T) {
	// gold owns the org, silver owns the service it offers: gold cannot
	// delete the org because the cascade would delete silver's service.
	m, _, _, _ := newManager()
	gold, silver := user("urn:uuid:gold"), user("urn:uuid:silver")
	org := rim.NewOrganization("SDSU")
	if err := m.SubmitObjects(gold, org); err != nil {
		t.Fatal(err)
	}
	svc := rim.NewService("Shared", "")
	if err := m.SubmitObjects(silver, svc); err != nil {
		t.Fatal(err)
	}
	assoc := rim.NewAssociation(rim.AssocOffersService, org.ID, svc.ID)
	if err := m.SubmitObjects(gold, assoc); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveObjects(gold, org.ID); !errors.Is(err, ErrDenied) {
		t.Fatalf("cascade crossed ownership: %v", err)
	}
}

func TestSlots(t *testing.T) {
	m, s, _, _ := newManager()
	ctx := user("urn:uuid:gold")
	svc := rim.NewService("Adder", "")
	if err := m.SubmitObjects(ctx, svc); err != nil {
		t.Fatal(err)
	}
	if err := m.AddSlots(ctx, svc.ID, rim.Slot{Name: "copyright", Values: []string{"2011"}}); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(svc.ID)
	if v, ok := got.Base().SlotValue("copyright"); !ok || v != "2011" {
		t.Fatalf("slot = %q, %v", v, ok)
	}
	if err := m.AddSlots(ctx, svc.ID, rim.Slot{}); err == nil {
		t.Fatal("unnamed slot accepted")
	}
	if err := m.RemoveSlots(ctx, svc.ID, "copyright"); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Get(svc.ID)
	if _, ok := got.Base().SlotValue("copyright"); ok {
		t.Fatal("slot not removed")
	}
	if err := m.AddSlots(ctx, "urn:uuid:ghost", rim.Slot{Name: "x"}); err == nil {
		t.Fatal("slots on missing object accepted")
	}
}

func TestRelocate(t *testing.T) {
	m, s, _, _ := newManager()
	ctx := user("urn:uuid:gold")
	svc := rim.NewService("Adder", "")
	if err := m.SubmitObjects(ctx, svc); err != nil {
		t.Fatal(err)
	}
	if err := m.RelocateObjects(ctx, "http://other-registry.example/omar", svc.ID); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(svc.ID)
	if got.Base().Home != "http://other-registry.example/omar" {
		t.Fatalf("home = %q", got.Base().Home)
	}
}

func TestBusNotifications(t *testing.T) {
	m, _, _, bus := newManager()
	ch := make(events.ChanDeliverer, 10)
	bus.Subscribe("urn:uuid:watcher", events.Selector{ObjectType: rim.TypeService}, ch)
	ctx := user("urn:uuid:gold")
	svc := rim.NewService("Watched", "")
	if err := m.SubmitObjects(ctx, svc); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-ch:
		if n.EventKind != rim.EventCreated {
			t.Fatalf("notification = %+v", n)
		}
	default:
		t.Fatal("no notification on submit")
	}
}
