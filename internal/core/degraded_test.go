package core

import (
	"reflect"
	"testing"

	"repro/internal/store"
)

// quarantine marks the hosts' rows as an open collector breaker does.
func quarantine(tab *store.NodeStateTable, hosts ...string) {
	for _, h := range hosts {
		row, _ := tab.Snapshot().Get(h)
		row.Host, row.Health = h, store.HealthQuarantined
		tab.Upsert(row)
	}
}

func TestQuarantinedHostExcludedFromAllPolicies(t *testing.T) {
	tab := table()
	quarantine(tab, "thermo.sdsu.edu")
	for _, policy := range []Policy{PolicyFilter, PolicyRankFirst, PolicyLeastLoaded} {
		b := &Balancer{Table: tab, Policy: policy}
		out, dec := b.ArrangeURIs(constrained, uris(), t0)
		for _, u := range out {
			if u == uriThermo {
				t.Fatalf("%v served quarantined host: %v", policy, out)
			}
		}
		if dec.Quarantined() != 1 {
			t.Fatalf("%v quarantined count = %d", policy, dec.Quarantined())
		}
	}
}

func TestFallbackSkipsQuarantinedHosts(t *testing.T) {
	tab := table()
	// Make every host ineligible-or-worse: thermo quarantined, exergy
	// overloaded (already 3.5 load), romulus unknown but quarantined too.
	quarantine(tab, "thermo.sdsu.edu", "romulus.sdsu.edu")
	b := &Balancer{Table: tab, Policy: PolicyFilter, FallbackAll: true}
	out, dec := b.ArrangeURIs(constrained, uris(), t0)
	if !dec.FellBack {
		t.Fatal("expected fallback")
	}
	if !reflect.DeepEqual(out, []string{uriExergy}) {
		t.Fatalf("fallback served quarantined hosts: %v", out)
	}
}

func TestDegradedStaticServesStockWhenAllQuarantined(t *testing.T) {
	tab := table()
	quarantine(tab, "thermo.sdsu.edu", "exergy.sdsu.edu", "romulus.sdsu.edu")

	// Strict mode: nothing survives, nothing served.
	strict := &Balancer{Table: tab, Policy: PolicyFilter, FallbackAll: true}
	out, dec := strict.ArrangeURIs(constrained, uris(), t0)
	if len(out) != 0 || dec.Degraded {
		t.Fatalf("strict mode served %v (degraded=%v)", out, dec.Degraded)
	}

	// DegradedStatic: the stored order comes back, flagged.
	degraded := &Balancer{Table: tab, Policy: PolicyFilter, FallbackAll: true, Degraded: DegradedStatic}
	out, dec = degraded.ArrangeURIs(constrained, uris(), t0)
	if !dec.Degraded {
		t.Fatal("decision not flagged degraded")
	}
	if !reflect.DeepEqual(out, uris()) {
		t.Fatalf("degraded output = %v, want stored order %v", out, uris())
	}
}

func TestDegradedStaticDoesNotFireWhenHostsSurvive(t *testing.T) {
	b := &Balancer{Table: table(), Policy: PolicyFilter, Degraded: DegradedStatic}
	out, dec := b.ArrangeURIs(constrained, uris(), t0)
	if dec.Degraded {
		t.Fatal("degraded fired with an eligible host available")
	}
	if !reflect.DeepEqual(out, []string{uriThermo}) {
		t.Fatalf("out = %v", out)
	}
}

func TestTimeWindowExcludeIsNotDegradation(t *testing.T) {
	// Outside the service's time window the service is closed by policy;
	// DegradedStatic must not resurrect it.
	desc := `svc <constraint><cpuLoad>load ls 1.0</cpuLoad><starttime>1000</starttime><endtime>1200</endtime></constraint>`
	b := &Balancer{Table: table(), Policy: PolicyFilter, TimeMode: TimeWindowExclude, Degraded: DegradedStatic}
	night := t0.Add(12 * 60 * 60 * 1e9) // 23:00, outside the window
	out, dec := b.ArrangeURIs(desc, uris(), night)
	if len(out) != 0 || dec.Degraded {
		t.Fatalf("closed window served %v (degraded=%v)", out, dec.Degraded)
	}
}
