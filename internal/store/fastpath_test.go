package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/rim"
)

func TestTableSnapshotLifecycle(t *testing.T) {
	tab := NewNodeStateTable()
	now := time.Date(2011, 4, 22, 12, 0, 0, 0, time.UTC)
	tab.Upsert(NodeState{Host: "thermo.sdsu.edu", Load: 0.5, Updated: now})

	s1 := tab.Snapshot(now, 0)
	if s1.Gen() == 0 || s1.Len() != 1 {
		t.Fatalf("first snapshot gen=%d len=%d", s1.Gen(), s1.Len())
	}
	if got := tab.Snapshot(now, 0); got != s1 {
		t.Fatal("coherent snapshot should be served without republish")
	}

	// A mutation invalidates the published snapshot: with no staleness
	// allowance the next read republishes and sees the write.
	tab.Upsert(NodeState{Host: "exergy.sdsu.edu", Load: 2.5, Updated: now})
	s2 := tab.Snapshot(now, 0)
	if s2 == s1 || s2.Len() != 2 || s2.Gen() <= s1.Gen() {
		t.Fatalf("post-write snapshot gen=%d len=%d", s2.Gen(), s2.Len())
	}
	if row, ok := s2.Get("exergy.sdsu.edu"); !ok || row.Load != 2.5 {
		t.Fatalf("snapshot row = %+v %v", row, ok)
	}

	// Within the staleness guard a changed table still serves the old
	// snapshot lock-free; past the guard it republishes.
	tab.Delete("exergy.sdsu.edu")
	if got := tab.Snapshot(now.Add(10*time.Second), 25*time.Second); got != s2 {
		t.Fatal("within maxAge the stale snapshot should be served")
	}
	s3 := tab.Snapshot(now.Add(30*time.Second), 25*time.Second)
	if s3 == s2 || s3.Len() != 1 {
		t.Fatalf("expired guard should republish, got len=%d", s3.Len())
	}
}

func TestTableSnapshotConcurrent(t *testing.T) {
	tab := NewNodeStateTable()
	now := time.Date(2011, 4, 22, 12, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tab.Upsert(NodeState{Host: fmt.Sprintf("h%d.sdsu.edu", g), Load: float64(i)})
				tab.Publish(now)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				s := tab.Snapshot(now, time.Minute)
				if s == nil {
					t.Error("nil snapshot")
					return
				}
				s.Get("h0.sdsu.edu")
			}
		}()
	}
	wg.Wait()
	// The installed snapshot must never regress behind the latest publish.
	final := tab.Snapshot(now, 0)
	if final.Len() != 4 {
		t.Fatalf("final snapshot len = %d, want 4", final.Len())
	}
}

func TestServiceView(t *testing.T) {
	s := New()
	svc := rim.NewService("Adder", "Adds numbers <constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>")
	svc.AddBinding("http://thermo.sdsu.edu:8080/Adder/addService")
	svc.AddBinding("http://exergy.sdsu.edu:8080/Adder/addService")
	if err := s.Put(svc); err != nil {
		t.Fatal(err)
	}
	org := rim.NewOrganization("SDSU")
	if err := s.Put(org); err != nil {
		t.Fatal(err)
	}

	v, err := s.ServiceView(svc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != svc.ID || v.Description != svc.Description.String() || len(v.URIs) != 2 {
		t.Fatalf("view = %+v", v)
	}
	// The view is the stored entry, not a copy of it: nothing is built per
	// call, and readers may only read it. A write replaces the entry and
	// leaves the views handed out before it as they were.
	v2, _ := s.ServiceView(svc.ID)
	if &v2.URIs[0] != &v.URIs[0] {
		t.Fatal("a second view of an unchanged service copied its URIs")
	}
	if v2.Digest() != v.Digest() {
		t.Fatal("two views of one entry digested it twice")
	}
	up := svc.Clone()
	up.Bindings = up.Bindings[1:]
	if err := s.Put(up); err != nil {
		t.Fatal(err)
	}
	v3, _ := s.ServiceView(svc.ID)
	if len(v3.URIs) != 1 || v3.URIs[0] != "http://exergy.sdsu.edu:8080/Adder/addService" {
		t.Fatalf("view after the write = %+v", v3)
	}
	if len(v3.Digest().Hosts) != 1 || v3.Digest().Hosts[0] != "exergy.sdsu.edu" {
		t.Fatalf("digest after the write = %+v", v3.Digest())
	}
	if len(v.URIs) != 2 || v.URIs[0] != "http://thermo.sdsu.edu:8080/Adder/addService" || len(v.Digest().Hosts) != 2 {
		t.Fatalf("the write edited a view loaded before it: %+v", v)
	}

	if _, err := s.ServiceView("urn:uuid:ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing id: %v", err)
	}
	if _, err := s.ServiceView(org.ID); err == nil {
		t.Fatal("non-service id should error")
	}

	byName, err := s.ServiceViewByName("Adder")
	if err != nil || byName.ID != svc.ID {
		t.Fatalf("by name: %+v, %v", byName, err)
	}
	if _, err := s.ServiceViewByName("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing name: %v", err)
	}
}
