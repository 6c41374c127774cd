package core

import (
	"testing"
	"time"

	"repro/internal/store"
)

var (
	t0 = time.Date(2011, 4, 22, 11, 0, 0, 0, time.UTC) // 11:00, inside 1000-1200
	// Three deployment hosts with distinct states.
	uriThermo  = "http://thermo.sdsu.edu:8080/Adder/addService"  // low load, lots of memory
	uriExergy  = "http://exergy.sdsu.edu:8080/Adder/addService"  // overloaded
	uriRomulus = "http://romulus.sdsu.edu:8080/Adder/addService" // no NodeState row
)

const constrained = `Adder service <constraint><cpuLoad>load ls 1.0</cpuLoad><memory>memory gr 1GB</memory></constraint>`

func table() *store.NodeStateTable {
	tab := store.NewNodeStateTable()
	tab.Upsert(store.NodeState{Host: "thermo.sdsu.edu", Load: 0.2, MemoryB: 4 << 30, SwapB: 1 << 30, Updated: t0})
	tab.Upsert(store.NodeState{Host: "exergy.sdsu.edu", Load: 3.5, MemoryB: 4 << 30, SwapB: 1 << 30, Updated: t0})
	return tab
}

func uris() []string { return []string{uriExergy, uriThermo, uriRomulus} }

func TestPolicyStockIgnoresConstraints(t *testing.T) {
	b := &Balancer{Table: table(), Policy: PolicyStock}
	out, dec := b.ArrangeURIs(constrained, uris(), t0)
	if len(out) != 3 || out[0] != uriExergy {
		t.Fatalf("stock order changed: %v", out)
	}
	if dec.Filtered {
		t.Fatal("stock policy filtered")
	}
}

func TestPolicyFilterKeepsOnlyEligible(t *testing.T) {
	b := &Balancer{Table: table(), Policy: PolicyFilter}
	out, dec := b.ArrangeURIs(constrained, uris(), t0)
	if len(out) != 1 || out[0] != uriThermo {
		t.Fatalf("filter = %v", out)
	}
	if !dec.Filtered || dec.Eligible() != 1 || dec.Ineligible() != 1 || dec.Unknown() != 1 {
		t.Fatalf("decision = %+v", dec)
	}
}

func TestPolicyRankFirstOrdersEligibleUnknownIneligible(t *testing.T) {
	b := &Balancer{Table: table(), Policy: PolicyRankFirst}
	out, _ := b.ArrangeURIs(constrained, uris(), t0)
	want := []string{uriThermo, uriRomulus, uriExergy}
	if len(out) != 3 || out[0] != want[0] || out[1] != want[1] || out[2] != want[2] {
		t.Fatalf("rank-first = %v, want %v", out, want)
	}
}

func TestPolicyLeastLoadedSortsByLoad(t *testing.T) {
	tab := table()
	tab.Upsert(store.NodeState{Host: "romulus.sdsu.edu", Load: 0.05, MemoryB: 8 << 30, SwapB: 1 << 30, Updated: t0})
	b := &Balancer{Table: tab, Policy: PolicyLeastLoaded}
	out, dec := b.ArrangeURIs(constrained, uris(), t0)
	// romulus (0.05) then thermo (0.2); exergy ineligible and dropped.
	if len(out) != 2 || out[0] != uriRomulus || out[1] != uriThermo {
		t.Fatalf("least-loaded = %v", out)
	}
	if dec.Eligible() != 2 {
		t.Fatalf("eligible = %d", dec.Eligible())
	}
}

func TestNoConstraintMeansStockOrder(t *testing.T) {
	b := &Balancer{Table: table(), Policy: PolicyFilter}
	out, dec := b.ArrangeURIs("plain description, no constraints", uris(), t0)
	if len(out) != 3 || out[0] != uriExergy {
		t.Fatalf("unconstrained = %v", out)
	}
	if dec.Constraint != nil || dec.Filtered {
		t.Fatalf("decision = %+v", dec)
	}
}

func TestMalformedConstraintFallsBackToStock(t *testing.T) {
	b := &Balancer{Table: table(), Policy: PolicyFilter}
	out, dec := b.ArrangeURIs("<constraint><cpuLoad>garbage</cpuLoad></constraint>", uris(), t0)
	if len(out) != 3 {
		t.Fatalf("malformed = %v", out)
	}
	if dec.ConstraintErr == nil {
		t.Fatal("constraint error not surfaced")
	}
}

func TestTimeWindowSkipFiltering(t *testing.T) {
	// 13:00 is outside the 1000-1200 window.
	at := time.Date(2011, 4, 22, 13, 0, 0, 0, time.UTC)
	desc := `<constraint><cpuLoad>load ls 1.0</cpuLoad><starttime>1000</starttime><endtime>1200</endtime></constraint>`
	b := &Balancer{Table: table(), Policy: PolicyFilter, TimeMode: TimeWindowSkipFiltering}
	out, dec := b.ArrangeURIs(desc, uris(), at)
	if len(out) != 3 {
		t.Fatalf("outside-window skip = %v", out)
	}
	if dec.TimeWindowOK || dec.Filtered {
		t.Fatalf("decision = %+v", dec)
	}
}

func TestTimeWindowExclude(t *testing.T) {
	at := time.Date(2011, 4, 22, 13, 0, 0, 0, time.UTC)
	desc := `<constraint><cpuLoad>load ls 1.0</cpuLoad><starttime>1000</starttime><endtime>1200</endtime></constraint>`
	b := &Balancer{Table: table(), Policy: PolicyFilter, TimeMode: TimeWindowExclude}
	out, dec := b.ArrangeURIs(desc, uris(), at)
	if len(out) != 0 {
		t.Fatalf("outside-window exclude = %v", out)
	}
	if dec.TimeWindowOK {
		t.Fatal("window reported ok")
	}
	// Inside the window, filtering runs normally.
	out, _ = b.ArrangeURIs(desc, uris(), t0)
	if len(out) != 1 || out[0] != uriThermo {
		t.Fatalf("inside-window = %v", out)
	}
}

func TestWindowOnlyConstraintServesStockInsideWindow(t *testing.T) {
	desc := `<constraint><starttime>1000</starttime><endtime>1200</endtime></constraint>`
	b := &Balancer{Table: table(), Policy: PolicyFilter}
	out, dec := b.ArrangeURIs(desc, uris(), t0)
	if len(out) != 3 || dec.Filtered {
		t.Fatalf("window-only = %v, %+v", out, dec)
	}
}

func TestFreshnessCutoff(t *testing.T) {
	tab := table()
	// thermo's row is 2 minutes old.
	tab.Upsert(store.NodeState{Host: "thermo.sdsu.edu", Load: 0.2, MemoryB: 4 << 30, SwapB: 1 << 30, Updated: t0.Add(-2 * time.Minute)})
	b := &Balancer{Table: tab, Policy: PolicyFilter, Freshness: time.Minute}
	out, dec := b.ArrangeURIs(constrained, uris(), t0)
	if len(out) != 0 {
		t.Fatalf("stale row used: %v", out)
	}
	if dec.Unknown() != 2 { // thermo stale + romulus missing
		t.Fatalf("unknown = %d", dec.Unknown())
	}
	// Without the cutoff the stale row is trusted.
	b.Freshness = 0
	out, _ = b.ArrangeURIs(constrained, uris(), t0)
	if len(out) != 1 || out[0] != uriThermo {
		t.Fatalf("no-cutoff = %v", out)
	}
}

func TestFailedRowTreatedAsUnknown(t *testing.T) {
	tab := table()
	tab.RecordFailure("thermo.sdsu.edu", t0)
	b := &Balancer{Table: tab, Policy: PolicyFilter}
	out, dec := b.ArrangeURIs(constrained, uris(), t0)
	if len(out) != 0 {
		t.Fatalf("failed host served: %v", out)
	}
	if dec.Unknown() != 2 {
		t.Fatalf("unknown = %d", dec.Unknown())
	}
}

func TestFallbackAllServesLoadOrdered(t *testing.T) {
	tab := store.NewNodeStateTable()
	tab.Upsert(store.NodeState{Host: "thermo.sdsu.edu", Load: 5, MemoryB: 1, SwapB: 1, Updated: t0})
	tab.Upsert(store.NodeState{Host: "exergy.sdsu.edu", Load: 2, MemoryB: 1, SwapB: 1, Updated: t0})
	b := &Balancer{Table: tab, Policy: PolicyFilter, FallbackAll: true}
	out, dec := b.ArrangeURIs(constrained, uris(), t0)
	if !dec.FellBack {
		t.Fatal("no fallback recorded")
	}
	// exergy (2) before thermo (5), unknown romulus last.
	if len(out) != 3 || out[0] != uriExergy || out[1] != uriThermo || out[2] != uriRomulus {
		t.Fatalf("fallback order = %v", out)
	}
	// Without fallback: empty.
	b.FallbackAll = false
	out, _ = b.ArrangeURIs(constrained, uris(), t0)
	if len(out) != 0 {
		t.Fatalf("no-fallback = %v", out)
	}
}

func TestDecisionVerdictStringAndPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		PolicyStock: "stock", PolicyFilter: "filter", PolicyRankFirst: "rank-first",
		PolicyLeastLoaded: "least-loaded", Policy(9): "unknown-policy",
	} {
		if p.String() != want {
			t.Errorf("Policy(%d).String() = %q", int(p), p.String())
		}
	}
	for v, want := range map[Verdict]string{
		VerdictEligible: "eligible", VerdictIneligible: "ineligible", VerdictUnknown: "unknown",
	} {
		if v.String() != want {
			t.Errorf("verdict string %q", v.String())
		}
	}
}

func TestSwapConstraintEnforced(t *testing.T) {
	tab := store.NewNodeStateTable()
	tab.Upsert(store.NodeState{Host: "thermo.sdsu.edu", Load: 0.1, MemoryB: 4 << 30, SwapB: 1 << 20, Updated: t0})
	desc := `<constraint><swapmemory>swapmemory gr 5MB</swapmemory></constraint>`
	b := &Balancer{Table: tab, Policy: PolicyFilter}
	out, _ := b.ArrangeURIs(desc, []string{uriThermo}, t0)
	if len(out) != 0 {
		t.Fatalf("swap-starved host served: %v", out)
	}
	tab.Upsert(store.NodeState{Host: "thermo.sdsu.edu", Load: 0.1, MemoryB: 4 << 30, SwapB: 10 << 20, Updated: t0})
	out, _ = b.ArrangeURIs(desc, []string{uriThermo}, t0)
	if len(out) != 1 {
		t.Fatalf("swap-rich host excluded: %v", out)
	}
}

func TestEmptyURIList(t *testing.T) {
	b := &Balancer{Table: table(), Policy: PolicyFilter}
	out, dec := b.ArrangeURIs(constrained, nil, t0)
	if len(out) != 0 || dec.Eligible() != 0 {
		t.Fatalf("empty input: %v %+v", out, dec)
	}
}
