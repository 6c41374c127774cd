package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/rim"
)

// TestTableSnapshotLifecycle: a reader only loads the installed snapshot,
// every install is one generation, and an installed snapshot never changes
// under its readers.
func TestTableSnapshotLifecycle(t *testing.T) {
	tab := NewNodeStateTable()
	now := time.Date(2011, 4, 22, 12, 0, 0, 0, time.UTC)
	s0 := tab.Snapshot()
	if s0.Gen() != 1 || s0.Len() != 0 || !s0.Taken().IsZero() {
		t.Fatalf("empty table: gen=%d len=%d taken=%v", s0.Gen(), s0.Len(), s0.Taken())
	}

	tab.Upsert(NodeState{Host: "thermo.sdsu.edu", Load: 0.5, Updated: now})
	s1 := tab.Snapshot()
	if s1.Gen() != 2 || s1.Len() != 1 || !s1.Taken().Equal(now) {
		t.Fatalf("after Upsert: gen=%d len=%d taken=%v", s1.Gen(), s1.Len(), s1.Taken())
	}
	if got := tab.Snapshot(); got != s1 {
		t.Fatal("a read without an install returned a different snapshot")
	}

	later := now.Add(10 * time.Second)
	tab.Install([]NodeState{{Host: "exergy.sdsu.edu", Load: 2.5, Updated: later}}, later)
	s2 := tab.Snapshot()
	if s2.Gen() != 3 || s2.Len() != 2 || !s2.Taken().Equal(later) {
		t.Fatalf("after Install: gen=%d len=%d taken=%v", s2.Gen(), s2.Len(), s2.Taken())
	}
	if row, ok := s2.Get("exergy.sdsu.edu"); !ok || row.Load != 2.5 {
		t.Fatalf("installed row = %+v %v", row, ok)
	}
	if _, ok := s1.Get("exergy.sdsu.edu"); ok || s1.Len() != 1 {
		t.Fatal("an install changed a snapshot a reader already holds")
	}

	// Reset replaces every row and counts as taken at its newest row.
	tab.Reset([]NodeState{{Host: "romulus.sdsu.edu", Updated: now}, {Host: "remus.sdsu.edu", Updated: later}})
	s3 := tab.Snapshot()
	if s3.Gen() != 4 || s3.Len() != 2 || !s3.Taken().Equal(later) {
		t.Fatalf("after Reset: gen=%d len=%d taken=%v", s3.Gen(), s3.Len(), s3.Taken())
	}
	if _, ok := s3.Get("thermo.sdsu.edu"); ok {
		t.Fatal("Reset kept a row it was not given")
	}
}

// TestTableSnapshotConcurrent: concurrent installs lose nothing and take
// one generation each, and a reader never sees the generation go back.
func TestTableSnapshotConcurrent(t *testing.T) {
	tab := NewNodeStateTable()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tab.Upsert(NodeState{Host: fmt.Sprintf("h%d.sdsu.edu", g), Load: float64(i)})
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for i := 0; i < 400; i++ {
				s := tab.Snapshot()
				if s.Gen() < last {
					t.Errorf("generation went back from %d to %d", last, s.Gen())
					return
				}
				last = s.Gen()
				s.Get("h0.sdsu.edu")
			}
		}()
	}
	wg.Wait()
	final := tab.Snapshot()
	if final.Len() != 4 || final.Gen() != 801 {
		t.Fatalf("final snapshot len=%d gen=%d, want 4 and 801", final.Len(), final.Gen())
	}
	for g := 0; g < 4; g++ {
		if row, _ := final.Get(fmt.Sprintf("h%d.sdsu.edu", g)); row.Load != 199 {
			t.Fatalf("h%d: load %v, want its last write 199", g, row.Load)
		}
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
