package store

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/constraint"
	"repro/internal/rim"
)

// population is a small registry with every kind of index row: named and
// unnamed objects, an owner, associations, content, services with and
// without constraints and bindings, and two services sharing a name.
func population() ([]rim.Object, map[string][]byte) {
	org := rim.NewOrganization("SDSU")
	org.Owner = "urn:uuid:owner"
	var objs []rim.Object
	for i, desc := range []string{
		"plain",
		"<constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>",
		"<constraint><cpuLoad>broken</cpuLoad></constraint>",
		"<constrain><memory>memory gr 1GB</memory></constrain> trailing text",
	} {
		svc := rim.NewService(fmt.Sprintf("svc-%d", i%3), desc) // svc-0 twice
		svc.Owner = org.Owner
		for b := 0; b < i; b++ {
			svc.AddBinding(fmt.Sprintf("http://h%d.example:8080/svc-%d", b, i))
		}
		objs = append(objs, svc, rim.NewAssociation(rim.AssocOffersService, org.ID, svc.ID))
	}
	unnamed := rim.NewService("", "no name")
	unnamed.Bindings = append(unnamed.Bindings, rim.NewServiceBinding(unnamed.ID, ""))
	objs = append(objs, org, unnamed)
	return objs, map[string][]byte{"urn:uuid:content": []byte("payload")}
}

// TestLoadedStoreEqualsPutBuiltStore: the same objects arriving by Put and
// by Save→Load leave the same store behind — every index, the discovery
// entries included — and answer discovery the same. Load adopts a loaded
// store whole, so a table it drops has to have been declared outside
// tables; the field census below is what catches that.
func TestLoadedStoreEqualsPutBuiltStore(t *testing.T) {
	objs, content := population()
	built := New()
	for _, o := range objs {
		if err := built.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	for id, data := range content {
		built.Apply(Change{ContentPutID: id, Content: data})
	}
	var snap bytes.Buffer
	if err := built.Save(&snap); err != nil {
		t.Fatal(err)
	}
	loaded := New()
	// Something to replace: a load must not merge.
	if err := loaded.Put(rim.NewService("stale", "gone after the load")); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Load(&snap); err != nil {
		t.Fatal(err)
	}

	if len(loaded.services) != 5 {
		t.Fatalf("the loaded store has %d discovery entries, want 5", len(loaded.services))
	}
	if !reflect.DeepEqual(loaded.tables, built.tables) {
		t.Fatalf("loaded and put-built tables differ:\nloaded %+v\n built %+v", loaded.tables, built.tables)
	}
	var fields []string
	typ := reflect.TypeOf(Store{})
	for i := 0; i < typ.NumField(); i++ {
		fields = append(fields, typ.Field(i).Name)
	}
	// changes is not state a snapshot carries: it counts loads too, so a
	// load must leave it where it is and advance it.
	if got := strings.Join(fields, " "); got != "mu tables changes nodeState" {
		t.Fatalf("Store's fields are now %q: state a snapshot carries belongs in tables, where Load cannot leave it behind", got)
	}

	for _, o := range objs {
		id := o.Base().ID
		for _, key := range []struct {
			by   string
			view func(*Store) (DiscoveryView, error)
		}{
			{"id " + id, func(s *Store) (DiscoveryView, error) { return s.ServiceView(id) }},
			{"name " + o.Base().Name.String(), func(s *Store) (DiscoveryView, error) { return s.ServiceViewByName(o.Base().Name.String()) }},
		} {
			want, wantErr := key.view(built)
			got, gotErr := key.view(loaded)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("by %s: loaded store says %v, put-built %v", key.by, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if got.ID != want.ID || got.Description != want.Description || !reflect.DeepEqual(got.URIs, want.URIs) {
				t.Fatalf("by %s: loaded view %+v, put-built %+v", key.by, got, want)
			}
			if !reflect.DeepEqual(got.Digest(), want.Digest()) {
				t.Fatalf("by %s: loaded digest %+v, put-built %+v", key.by, got.Digest(), want.Digest())
			}
		}
	}
}

// TestViewErrorsAndDigestContent pins what the entry lookup answers for the
// keys that have no entry, and what a digest holds.
func TestViewErrorsAndDigestContent(t *testing.T) {
	objs, _ := population()
	s := New()
	for _, o := range objs {
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ServiceViewByName("svc-0"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("two services named svc-0: %v", err)
	}
	if _, err := s.ServiceViewByName("SDSU"); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("an organization's name resolved as a service: %v", err)
	}
	v, err := s.ServiceViewByName("SVC-2") // names are case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	dg := v.Digest()
	if dg.Constraint != nil || dg.Err == nil {
		t.Fatalf("malformed block digested as %+v", dg)
	}
	if want := []string{"h0.example", "h1.example"}; !reflect.DeepEqual(dg.Hosts, want) {
		t.Fatalf("hosts = %v, want %v", dg.Hosts, want)
	}
	unnamed, err := s.ServiceViewByName("")
	if err != nil {
		t.Fatal(err)
	}
	if len(unnamed.URIs) != 0 || unnamed.URIs == nil {
		t.Fatalf("a service whose only binding has no URI: URIs = %#v, want empty and non-nil", unnamed.URIs)
	}

	// A deleted service has no entry; one re-put as another kind neither.
	s.Apply(Change{Deletes: []string{v.ID}})
	if _, err := s.ServiceView(v.ID); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("deleted service: %v", err)
	}
	org := rim.NewOrganization("was a service")
	org.ID = unnamed.ID
	if err := s.Put(org); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ServiceView(org.ID); err == nil || !strings.Contains(err.Error(), "is not a service") {
		t.Fatalf("organization under a service's old id: %v", err)
	}
}

// TestDigestRace: goroutines racing to be the first to digest one entry
// all come away with the same digest, and it is the right one.
func TestDigestRace(t *testing.T) {
	const desc = "<constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>"
	for round := 0; round < 50; round++ {
		s := New()
		svc := rim.NewService("raced", desc)
		svc.AddBinding("http://h0.example:8080/raced")
		if err := s.Put(svc); err != nil {
			t.Fatal(err)
		}
		const racers = 8
		got := make([]*Digest, racers)
		var start, done sync.WaitGroup
		start.Add(1)
		for g := 0; g < racers; g++ {
			done.Add(1)
			go func(g int) {
				defer done.Done()
				v, err := s.ServiceView(svc.ID)
				if err != nil {
					t.Error(err)
					return
				}
				start.Wait()
				got[g] = v.Digest()
			}(g)
		}
		start.Done()
		done.Wait()
		want, _, _ := constraint.FromDescription(desc)
		for g, dg := range got {
			if dg != got[0] {
				t.Fatalf("round %d: racer %d holds a digest of its own", round, g)
			}
		}
		if !reflect.DeepEqual(got[0], &Digest{Constraint: want, Hosts: []string{"h0.example"}}) {
			t.Fatalf("digest = %+v", got[0])
		}
	}
}
