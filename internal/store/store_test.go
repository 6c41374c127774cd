package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/integration/leakcheck"
	"repro/internal/rim"
)

func TestPutGetIsolation(t *testing.T) {
	s := New()
	svc := rim.NewService("NodeStatus", "monitor")
	svc.AddBinding("http://thermo.sdsu.edu:8080/svc")
	if err := s.Put(svc); err != nil {
		t.Fatal(err)
	}
	// Mutating the original after Put must not affect the store.
	svc.Name = rim.NewIString("mutated")
	got, err := s.Get(svc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Base().Name.String() != "NodeStatus" {
		t.Fatal("Put did not clone input")
	}
	// Mutating the Get result must not affect the store.
	got.Base().Name = rim.NewIString("mutated2")
	got2, _ := s.Get(svc.ID)
	if got2.Base().Name.String() != "NodeStatus" {
		t.Fatal("Get did not clone output")
	}
}

func TestGetDeleteNotFound(t *testing.T) {
	s := New()
	if _, err := s.Get("urn:uuid:nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing: %v", err)
	}
	// Deleting it is not an error: a replayed record may name an id that a
	// covering checkpoint already lacks.
	s.Apply(Change{Deletes: []string{"urn:uuid:nope"}})
	if s.Len() != 0 {
		t.Fatalf("Len = %d after deleting a missing id", s.Len())
	}
}

// TestApplyOrder: removals, then puts, then content — so a change that
// swaps an id for itself leaves the new object, as the leader's
// SwapDirect always did and replay, which put first, did not.
func TestApplyOrder(t *testing.T) {
	s := New()
	old, gone := rim.NewUser("operator", rim.PersonName{}), rim.NewOrganization("gone")
	for _, o := range []rim.Object{old, gone} {
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	next := rim.NewUser("operator", rim.PersonName{})
	next.ID = old.ID
	next.Description = rim.NewIString("second boot")
	owned := []Entry{{Object: next}}
	if err := Admit(owned); err != nil {
		t.Fatal(err)
	}
	s.Apply(Change{Puts: owned, Deletes: []string{old.ID, gone.ID, "urn:uuid:never-stored"}, ContentPutID: "c", Content: []byte("x")})
	got, err := s.Get(old.ID)
	if err != nil || got.Base().Description.String() != "second boot" {
		t.Fatalf("the swapped-in object: %v, %v", got, err)
	}
	if rows := s.FindByName(rim.TypeUser, "operator"); len(rows) != 1 || s.Has(gone.ID) || s.Len() != 1 {
		t.Fatalf("%d operator rows, %d objects after the swap, want 1 and 1", len(rows), s.Len())
	}
	if _, err := s.GetContent("c"); err != nil {
		t.Fatal(err)
	}
	if err := Admit([]Entry{{Object: next}, {}}); err == nil {
		t.Fatal("Admit accepted a nil object")
	}
	if err := Admit([]Entry{{Object: &rim.Service{}}}); err == nil {
		t.Fatal("Admit accepted an object without an id")
	}
}

func TestTypeAndOwnerIndexes(t *testing.T) {
	s := New()
	org := rim.NewOrganization("SDSU")
	org.Owner = "urn:uuid:gold"
	svc := rim.NewService("Adder", "")
	svc.Owner = "urn:uuid:gold"
	other := rim.NewService("Other", "")
	for _, o := range []rim.Object{org, svc, other} {
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.ByType(rim.TypeService); len(got) != 2 {
		t.Fatalf("ByType(Service) = %d", len(got))
	}
	if got := s.ByOwner("urn:uuid:gold"); len(got) != 2 {
		t.Fatalf("ByOwner = %d", len(got))
	}
	s.Apply(Change{Deletes: []string{svc.ID}})
	if got := s.ByOwner("urn:uuid:gold"); len(got) != 1 {
		t.Fatalf("ByOwner after delete = %d", len(got))
	}
	if got := s.ByType(rim.TypeService); len(got) != 1 {
		t.Fatalf("ByType after delete = %d", len(got))
	}
}

func TestOwnerReindexOnPut(t *testing.T) {
	s := New()
	svc := rim.NewService("S", "")
	svc.Owner = "urn:uuid:a"
	if err := s.Put(svc); err != nil {
		t.Fatal(err)
	}
	svc.Owner = "urn:uuid:b"
	if err := s.Put(svc); err != nil {
		t.Fatal(err)
	}
	if got := s.ByOwner("urn:uuid:a"); len(got) != 0 {
		t.Fatal("stale owner index entry")
	}
	if got := s.ByOwner("urn:uuid:b"); len(got) != 1 {
		t.Fatal("new owner not indexed")
	}
}

func TestAssociationIndexes(t *testing.T) {
	s := New()
	org := rim.NewOrganization("SDSU")
	svc := rim.NewService("Adder", "")
	a := rim.NewAssociation(rim.AssocOffersService, org.ID, svc.ID)
	for _, o := range []rim.Object{org, svc, a} {
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	from := s.AssociationsFrom(org.ID)
	if len(from) != 1 || from[0].TargetID != svc.ID {
		t.Fatalf("AssociationsFrom = %+v", from)
	}
	to := s.AssociationsTo(svc.ID)
	if len(to) != 1 || to[0].SourceID != org.ID {
		t.Fatalf("AssociationsTo = %+v", to)
	}
	s.Apply(Change{Deletes: []string{a.ID}})
	if len(s.AssociationsFrom(org.ID)) != 0 || len(s.AssociationsTo(svc.ID)) != 0 {
		t.Fatal("association index not cleaned on delete")
	}
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		name, pattern string
		want          bool
	}{
		{"DemoOrganization", "Demo%", true},
		{"DemoOrganization", "demo%", true}, // case-insensitive
		{"DemoOrg_AddDescription", "DemoOrg!%", false},
		{"DemoSrv_AddAccessUri", "DemoSrv%", true},
		{"NodeStatus", "%Status", true},
		{"NodeStatus", "%status%", true},
		{"NodeStatus", "Node_tatus", true},
		{"NodeStatus", "Node_status", false},
		{"abc", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "abc", true},
		{"abc", "ab", false},
		{"aXbXc", "a%b%c", true},
		{"ac", "a%b%c", false},
	}
	for _, c := range cases {
		if got := MatchLike(c.name, c.pattern); got != c.want {
			t.Errorf("MatchLike(%q, %q) = %v, want %v", c.name, c.pattern, got, c.want)
		}
	}
}

func TestMatchLikeProperties(t *testing.T) {
	// Every string matches "%" and itself.
	f := func(s string) bool {
		return MatchLike(s, "%") && MatchLike(s, s+"%") && MatchLike(s, "%"+s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFindByName(t *testing.T) {
	s := New()
	names := []string{"DemoOrg_DeleteOrganization", "DemoOrg_AddDescription", "DemoOrg_ModifyService", "Unrelated"}
	for _, n := range names {
		if err := s.Put(rim.NewOrganization(n)); err != nil {
			t.Fatal(err)
		}
	}
	got := s.FindByName(rim.TypeOrganization, "DemoOrg_%")
	if len(got) != 3 {
		t.Fatalf("FindByName = %d results", len(got))
	}
	// Sorted by name.
	if got[0].Base().Name.String() != "DemoOrg_AddDescription" {
		t.Fatalf("first result %q", got[0].Base().Name.String())
	}
}

func TestFindOneByName(t *testing.T) {
	s := New()
	if err := s.Put(rim.NewOrganization("SDSU")); err != nil {
		t.Fatal(err)
	}
	o, err := s.FindOneByName(rim.TypeOrganization, "sdsu")
	if err != nil || o.Base().Name.String() != "SDSU" {
		t.Fatalf("FindOneByName: %v", err)
	}
	if _, err := s.FindOneByName(rim.TypeOrganization, "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing: %v", err)
	}
	if err := s.Put(rim.NewOrganization("SDSU")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FindOneByName(rim.TypeOrganization, "SDSU"); err == nil {
		t.Fatal("ambiguous name accepted")
	}
}

func TestContentStore(t *testing.T) {
	s := New()
	s.Apply(Change{ContentPutID: "c1", Content: []byte("wsdl")})
	data, err := s.GetContent("c1")
	if err != nil || string(data) != "wsdl" {
		t.Fatalf("GetContent: %q, %v", data, err)
	}
	data[0] = 'X'
	again, _ := s.GetContent("c1")
	if string(again) != "wsdl" {
		t.Fatal("content aliased")
	}
	s.Apply(Change{ContentDeleteID: "c1"})
	if _, err := s.GetContent("c1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
}

func TestNodeStateTable(t *testing.T) {
	tab := NewNodeStateTable()
	now := time.Date(2011, 4, 22, 12, 0, 0, 0, time.UTC)
	tab.Upsert(NodeState{Host: "thermo.sdsu.edu", Load: 0.5, MemoryB: 4 << 30, SwapB: 1 << 30, Updated: now})
	tab.Upsert(NodeState{Host: "exergy.sdsu.edu", Load: 2.5, MemoryB: 2 << 30, SwapB: 1 << 30, Updated: now.Add(-time.Minute)})

	row, ok := tab.Snapshot().Get("thermo.sdsu.edu")
	if !ok || row.Load != 0.5 {
		t.Fatalf("Get: %+v %v", row, ok)
	}
	if rows := tab.Snapshot().Rows(); len(rows) != 2 || rows[0].Host != "exergy.sdsu.edu" {
		t.Fatalf("Rows = %v", rows)
	}
	if tab.Snapshot().Len() != 2 {
		t.Fatalf("Len = %d", tab.Snapshot().Len())
	}

	// Install overlays the installed rows: a later row for a host wins,
	// and a host it does not name carries over.
	tab.Install([]NodeState{{Host: "down.sdsu.edu", Failures: 1}, {Host: "down.sdsu.edu", Failures: 2}}, now)
	snap := tab.Snapshot()
	if row, _ := snap.Get("down.sdsu.edu"); row.Failures != 2 {
		t.Fatalf("Failures = %d", row.Failures)
	}
	if snap.Len() != 3 || snap.Gen() != 4 || !snap.Taken().Equal(now) {
		t.Fatalf("after Install: len %d gen %d taken %v, want 3, 4, %v", snap.Len(), snap.Gen(), snap.Taken(), now)
	}

	// Reset replaces every row.
	tab.Reset([]NodeState{{Host: "thermo.sdsu.edu", Updated: now}})
	if _, ok := tab.Snapshot().Get("down.sdsu.edu"); ok || tab.Snapshot().Len() != 1 {
		t.Fatalf("Reset kept rows: %v", tab.Snapshot().Rows())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := New()
	org := rim.NewOrganization("SDSU")
	org.Telephones = append(org.Telephones, rim.TelephoneNumber{CountryCode: "1", AreaCode: "619", Number: "594-5200", Type: "OfficePhone"})
	svc := rim.NewService("NodeStatus", "Service to monitor node status")
	svc.AddBinding("http://thermo.sdsu.edu:8080/NodeStatus/NodeStatusService")
	assoc := rim.NewAssociation(rim.AssocOffersService, org.ID, svc.ID)
	user := rim.NewUser("gold", rim.PersonName{FirstName: "G"})
	ev := rim.NewAuditableEvent(rim.EventCreated, user.ID, time.Date(2011, 4, 22, 1, 2, 3, 0, time.UTC), org.ID)
	q := rim.NewAdhocQuery("find", "SQL-92", "SELECT s.id FROM Service s")
	for _, o := range []rim.Object{org, svc, assoc, user, ev, q} {
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	s.Apply(Change{ContentPutID: "c1", Content: []byte{1, 2, 3}})
	s.NodeState().Upsert(NodeState{Host: "thermo.sdsu.edu", Load: 1.25, MemoryB: 42, Updated: time.Date(2011, 4, 22, 2, 0, 0, 0, time.UTC)})

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := restored.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != s.Len() {
		t.Fatalf("restored %d objects, want %d", restored.Len(), s.Len())
	}
	got, err := restored.Get(svc.ID)
	if err != nil {
		t.Fatal(err)
	}
	rs, ok := got.(*rim.Service)
	if !ok {
		t.Fatalf("restored service has type %T", got)
	}
	if len(rs.Bindings) != 1 || rs.Bindings[0].AccessURI != "http://thermo.sdsu.edu:8080/NodeStatus/NodeStatusService" {
		t.Fatalf("restored bindings: %+v", rs.Bindings)
	}
	if from := restored.AssociationsFrom(org.ID); len(from) != 1 {
		t.Fatal("associations not reindexed after Load")
	}
	if data, err := restored.GetContent("c1"); err != nil || len(data) != 3 {
		t.Fatalf("restored content: %v %v", data, err)
	}
	if row, ok := restored.NodeState().Snapshot().Get("thermo.sdsu.edu"); !ok || row.Load != 1.25 {
		t.Fatalf("restored nodestate: %+v %v", row, ok)
	}
}

// TestLoadRejectsGarbage also holds Load's decode workers to their
// lifetime: a stream that fails, in a worker or in the reader, still
// leaves none of them running.
func TestLoadRejectsGarbage(t *testing.T) {
	defer leakcheck.Check(t)()
	s := New()
	if err := s.Load(bytes.NewReader([]byte("{not json"))); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("garbage: %v", err)
	}
	bad := append(rawFrame("Martian", []byte("{}")), trailer(1)...)
	if err := s.Load(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "Martian") {
		t.Fatalf("unknown kind: %v", err)
	}
	src := New()
	for i := 0; i < 64; i++ {
		if err := src.Put(rim.NewService(fmt.Sprintf("Svc-%d", i), "")); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.Load(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("a snapshot cut mid-way loaded")
	}
}

// TestChangesCountsEveryTableChange: Apply, Put and a successful Load each
// advance the change count by one; a refused Put or a failed Load leaves
// it, like the tables, where it was.
func TestChangesCountsEveryTableChange(t *testing.T) {
	s := New()
	step := func(what string, want uint64, do func() error) {
		t.Helper()
		before := s.Changes()
		do()
		if got := s.Changes() - before; got != want {
			t.Fatalf("%s moved the change count by %d, want %d", what, got, want)
		}
	}
	svc := rim.NewService("Adder", "")
	step("Apply", 1, func() error { s.Apply(Change{ContentPutID: "c", Content: []byte("x")}); return nil })
	step("Put", 1, func() error { return s.Put(svc) })
	step("a refused Put", 0, func() error { return s.Put(nil) })
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	step("Save", 0, func() error { return s.Save(io.Discard) })
	step("a failed Load", 0, func() error { return s.Load(bytes.NewReader(snap.Bytes()[:snap.Len()/2])) })
	step("Load", 1, func() error { return s.Load(bytes.NewReader(snap.Bytes())) })
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				o := rim.NewOrganization(fmt.Sprintf("org-%d-%d", i, j))
				if err := s.Put(o); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Get(o.ID); err != nil {
					t.Error(err)
					return
				}
				s.FindByName(rim.TypeOrganization, "org-%")
				s.NodeState().Upsert(NodeState{Host: fmt.Sprintf("h%d", i), Load: float64(j)})
				s.NodeState().Snapshot().Rows()
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Fatalf("Len = %d", s.Len())
	}
}
