package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/rim"
	"repro/internal/store"
)

// storedView puts one constrained service into a fresh store and returns
// its view: the one kind of view whose digest is memoized.
func storedView(t *testing.T) (*store.Store, store.DiscoveryView) {
	t.Helper()
	s := store.New()
	svc := rim.NewService("Adder", constrained)
	for _, u := range uris() {
		svc.AddBinding(u)
	}
	if err := s.Put(svc); err != nil {
		t.Fatal(err)
	}
	view, err := s.ServiceView(svc.ID)
	if err != nil {
		t.Fatal(err)
	}
	return s, view
}

func TestArrangeViewUsesCacheAndSnapshot(t *testing.T) {
	s, view := storedView(t)
	b := &Balancer{Table: table(), Policy: PolicyFilter}

	out, dec := b.ArrangeView(view, t0)
	if len(out) != 1 || out[0] != uriThermo {
		t.Fatalf("arranged = %v", out)
	}
	if dec.SnapshotGen == 0 {
		t.Fatal("filtered decision should record the snapshot generation")
	}

	// A second load of the same entry reads the first one's digest: the
	// very same parsed constraint, not an equal one.
	again, err := s.ServiceView(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	out2, dec2 := b.ArrangeView(again, t0)
	if len(out2) != 1 || out2[0] != uriThermo {
		t.Fatalf("second arrange = %v", out2)
	}
	if dec2.Constraint != dec.Constraint {
		t.Fatal("second arrange parsed the description again")
	}
	if dec2.SnapshotGen != dec.SnapshotGen {
		t.Fatalf("unchanged table should reuse the snapshot: gen %d vs %d", dec2.SnapshotGen, dec.SnapshotGen)
	}

	// A hand-built view has no entry behind it and is parsed per call.
	bare := store.DiscoveryView{ID: view.ID, Description: view.Description, URIs: view.URIs}
	_, dec3 := b.ArrangeView(bare, t0)
	_, dec4 := b.ArrangeView(bare, t0)
	if dec3.Constraint == dec4.Constraint || dec3.Constraint == dec.Constraint {
		t.Fatal("a hand-built view shared a parsed constraint")
	}
	if !reflect.DeepEqual(dec3, dec) {
		t.Fatalf("hand-built view decided differently:\n got %+v\nwant %+v", dec3, dec)
	}
}

func TestArrangeViewDescriptionEditReparses(t *testing.T) {
	s, view := storedView(t)
	b := &Balancer{Table: table(), Policy: PolicyFilter}
	if out, _ := b.ArrangeView(view, t0); len(out) != 1 {
		t.Fatalf("arranged = %v", out)
	}
	// Re-putting the service replaces its entry, digest and all: no hook,
	// nothing to invalidate, and a stale constraint is never applied.
	svc := rim.NewService("Adder", `Adder <constraint><cpuLoad>load ls 0.1</cpuLoad></constraint>`)
	svc.ID = view.ID
	for _, u := range uris() {
		svc.AddBinding(u)
	}
	if err := s.Put(svc); err != nil {
		t.Fatal(err)
	}
	edited, err := s.ServiceView(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if out, _ := b.ArrangeView(edited, t0); len(out) != 0 {
		t.Fatalf("tightened constraint should exclude every host, got %v", out)
	}
	// The view loaded before the write still answers for the version it
	// was loaded from.
	if out, _ := b.ArrangeView(view, t0); len(out) != 1 {
		t.Fatalf("old view = %v", out)
	}
}

// TestArrangeNeverAliasesTheView scribbles over every answer of every
// policy and outcome: the view's URIs — shared, on a stored view, by every
// reader of the service — must come through untouched and unsorted.
func TestArrangeNeverAliasesTheView(t *testing.T) {
	quarantined := table()
	for _, h := range []string{"thermo.sdsu.edu", "exergy.sdsu.edu", "romulus.sdsu.edu"} {
		quarantined.Upsert(store.NodeState{Host: h, Health: store.HealthQuarantined, Updated: t0})
	}
	descriptions := []string{
		constrained,
		"no block at all",
		"<constraint><cpuLoad>nonsense</cpuLoad></constraint>",
		"<constraint><starttime>0100</starttime><endtime>0200</endtime></constraint>",
		"<constraint><cpuLoad>load ls 0.0001</cpuLoad></constraint>",
	}
	for _, policy := range []Policy{PolicyStock, PolicyFilter, PolicyRankFirst, PolicyLeastLoaded} {
		for _, tab := range []*store.NodeStateTable{table(), quarantined} {
			for _, desc := range descriptions {
				for _, fallback := range []bool{false, true} {
					b := &Balancer{Table: tab, Policy: policy, FallbackAll: fallback, Degraded: DegradedStatic}
					view := store.DiscoveryView{Description: desc, URIs: uris()}
					out, _ := b.ArrangeView(view, t0)
					for i := range out {
						out[i] = "scribbled"
					}
					if !reflect.DeepEqual(view.URIs, uris()) {
						t.Fatalf("policy %v fallback %v %q: the view's URIs are now %v", policy, fallback, desc, view.URIs)
					}
				}
			}
		}
	}
}

// TestDecisionCountsFromArrange: arrange tallies the verdicts as it
// classifies and records the host it serves first.
func TestDecisionCountsFromArrange(t *testing.T) {
	b := &Balancer{Table: table(), Policy: PolicyRankFirst}
	_, dec := b.ArrangeURIs(constrained, uris(), t0)
	if dec.Eligible() != 1 || dec.Ineligible() != 1 || dec.Unknown() != 1 || dec.Quarantined() != 0 {
		t.Fatalf("counts = %d/%d/%d/%d, want 1/1/1/0",
			dec.Eligible(), dec.Ineligible(), dec.Unknown(), dec.Quarantined())
	}
	if dec.ServedHost() != "thermo.sdsu.edu" {
		t.Fatalf("served host = %q", dec.ServedHost())
	}
}

// TestArrangeReadsInstalledSnapshot: discovery reads the snapshot the last
// install left, however old, and the next install is seen at once.
func TestArrangeReadsInstalledSnapshot(t *testing.T) {
	tab := table()
	b := &Balancer{Table: tab, Policy: PolicyFilter}
	view := store.DiscoveryView{ID: "urn:uuid:adder", Description: constrained, URIs: uris()}

	_, dec := b.ArrangeView(view, t0)
	gen := dec.SnapshotGen
	if gen != tab.Snapshot().Gen() {
		t.Fatalf("gen = %d, want the installed %d", gen, tab.Snapshot().Gen())
	}

	// No install, no new generation, however much time passes.
	out, dec2 := b.ArrangeView(view, t0.Add(time.Hour))
	if dec2.SnapshotGen != gen || len(out) != 1 || out[0] != uriThermo {
		t.Fatalf("an hour on: gen %d (want %d), arrange %v", dec2.SnapshotGen, gen, out)
	}

	// An install is observed by the next read.
	tab.Upsert(store.NodeState{Host: "thermo.sdsu.edu", Load: 9.9, Updated: t0})
	out3, dec3 := b.ArrangeView(view, t0)
	if dec3.SnapshotGen != gen+1 {
		t.Fatalf("gen after an install = %d, want %d", dec3.SnapshotGen, gen+1)
	}
	if len(out3) != 0 {
		t.Fatalf("overloaded thermo should now be excluded, got %v", out3)
	}
}

func TestArrangeStockSkipsTableAndCache(t *testing.T) {
	b := &Balancer{Table: table(), Policy: PolicyStock}
	view := store.DiscoveryView{ID: "urn:uuid:adder", Description: constrained, URIs: uris()}
	out, dec := b.ArrangeView(view, t0)
	if len(out) != 3 {
		t.Fatalf("stock arrange = %v", out)
	}
	if dec.SnapshotGen != 0 || dec.Constraint != nil {
		t.Fatalf("stock decision touched fast-path state: %+v", dec)
	}
}
