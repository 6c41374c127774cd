package lbexp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mtc"
)

// smallWorkload keeps unit-test runs fast; the benches scale it up.
func smallWorkload() mtc.Workload {
	return mtc.Workload{
		Tasks: 40, MeanInterarrival: 3 * time.Second, Deterministic: true,
		TaskCPU: 8, TaskMemB: 16 << 20, Seed: 42,
	}
}

func TestNewSetupPublishesDeployment(t *testing.T) {
	s, err := NewSetup(Config{Hosts: 3, RegistryPolicy: core.PolicyFilter})
	if err != nil {
		t.Fatal(err)
	}
	// NodeStatus published and collectable (Fig. 3.7).
	targets := s.Registry.QM.CollectionTargets()
	if len(targets) != 3 {
		t.Fatalf("collection targets = %v", targets)
	}
	if s.Registry.Store.NodeState().Len() != 3 {
		t.Fatalf("nodestate rows = %d", s.Registry.Store.NodeState().Len())
	}
	uris, _, err := s.Conn.ServiceBindings("Worker")
	if err != nil || len(uris) == 0 {
		t.Fatalf("worker uris = %v, %v", uris, err)
	}
}

func TestHostCapIsApplied(t *testing.T) {
	s, err := NewSetup(Config{Hosts: 99})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Cluster.Names()); got != len(HostNames) {
		t.Fatalf("hosts = %d", got)
	}
}

// TestH1Shape verifies the headline claim's shape: the load-balanced
// registry beats the stock/first-uri baseline on load fairness, and the
// baseline concentrates everything on one host.
func TestH1Shape(t *testing.T) {
	base := Config{Hosts: 4, Heterogeneous: true, Workload: smallWorkload()}
	tbl, reports, err := ComparePolicies(base, H1Combos)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(H1Combos) {
		t.Fatalf("reports = %d", len(reports))
	}
	out := tbl.String()
	if !strings.Contains(out, "stock/first-uri") || !strings.Contains(out, "lb-least-loaded/first-uri") {
		t.Fatalf("table:\n%s", out)
	}

	byName := map[string]int{}
	for i, c := range H1Combos {
		byName[c.Name] = i
	}
	stock := reports[byName["stock/first-uri"]]
	lb := reports[byName["lb-least-loaded/first-uri"]]

	// Stock concentrates: exactly one host receives tasks.
	used := 0
	for _, n := range stock.PerHostTasks {
		if n > 0 {
			used++
		}
	}
	if used != 1 {
		t.Fatalf("stock used %d hosts: %v", used, stock.PerHostTasks)
	}
	// LB spreads to several hosts and wins on fairness.
	usedLB := 0
	for _, n := range lb.PerHostTasks {
		if n > 0 {
			usedLB++
		}
	}
	if usedLB < 2 {
		t.Fatalf("lb used %d hosts: %v", usedLB, lb.PerHostTasks)
	}
	if lb.MeanFairness() <= stock.MeanFairness() {
		t.Fatalf("lb fairness %.3f <= stock %.3f", lb.MeanFairness(), stock.MeanFairness())
	}
}

func TestH2PeriodSweepRuns(t *testing.T) {
	base := Config{
		Hosts: 3, RegistryPolicy: core.PolicyLeastLoaded,
		Workload: smallWorkload(),
	}
	tbl, err := PeriodSweep(base, []time.Duration{5 * time.Second, 25 * time.Second, 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 || !strings.Contains(tbl.String(), "25s") {
		t.Fatalf("table:\n%s", tbl.String())
	}
}

func TestH3TimeOfDay(t *testing.T) {
	results, tbl, err := TimeOfDay(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 12 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		inWindow := r.RequestHour >= 10 && r.RequestHour < 12
		if inWindow {
			if !r.WindowOK || r.URIs == 0 {
				t.Fatalf("in-window row broken: %+v", r)
			}
			continue
		}
		switch r.Mode {
		case core.TimeWindowSkipFiltering:
			// Outside window the thesis-literal mode serves stock order.
			if r.URIs == 0 || r.Filtered {
				t.Fatalf("skip mode row broken: %+v", r)
			}
		case core.TimeWindowExclude:
			if r.URIs != 0 {
				t.Fatalf("exclude mode leaked URIs: %+v", r)
			}
		}
	}
	_ = tbl.String()
}

func TestH4NetDelay(t *testing.T) {
	tbl, err := NetDelay(4, 30)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	// Delays 5, 20, 35, 50 -> two hosts under 30 ms.
	if !strings.Contains(out, "returned URIs") {
		t.Fatalf("table:\n%s", out)
	}
	found := false
	for _, row := range tbl.Rows {
		if row[0] == "returned URIs" && row[1] == "2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected 2 eligible URIs:\n%s", out)
	}
}

func TestH5FailureShape(t *testing.T) {
	base := Config{
		Hosts: 4, Heterogeneous: true,
		Constraint: `<constraint><cpuLoad>load ls 1000.0</cpuLoad></constraint>`,
		Workload: mtc.Workload{
			Tasks: 60, MeanInterarrival: 3 * time.Second, Deterministic: true,
			TaskCPU: 8, TaskMemB: 8 << 20, Seed: 42,
		},
	}
	tbl, results, err := Failure(base, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	stock, lb := results[0], results[1]
	// Both complete everything (clients retry past the dead host).
	if stock.Completed != 60 || lb.Completed != 60 {
		t.Fatalf("completed: stock=%d lb=%d", stock.Completed, lb.Completed)
	}
	// Stock keeps offering the dead host first: many retries; the LB
	// registry stops serving it after its failed sweep: strictly fewer.
	if stock.Retries <= lb.Retries {
		t.Fatalf("retries: stock=%d lb=%d", stock.Retries, lb.Retries)
	}
	// Stock concentrated pre-failure traffic on the doomed host.
	if stock.TasksOnFailedHost <= lb.TasksOnFailedHost {
		t.Fatalf("tasksOnFailedHost: stock=%d lb=%d", stock.TasksOnFailedHost, lb.TasksOnFailedHost)
	}
	if !strings.Contains(tbl.String(), "stock") {
		t.Fatalf("table:\n%s", tbl)
	}
}

func TestFallbackAblation(t *testing.T) {
	// An impossible constraint: nothing eligible. Without fallback the
	// workload is fully dropped; with fallback it completes.
	base := Config{
		Hosts:          3,
		RegistryPolicy: core.PolicyFilter,
		Constraint:     `<constraint><cpuLoad>load ls 0.000001</cpuLoad></constraint>`,
		Workload: mtc.Workload{
			Tasks: 10, MeanInterarrival: 2 * time.Second, Deterministic: true,
			TaskCPU: 2, TaskMemB: 1 << 20, Seed: 7, Drain: time.Minute,
		},
	}
	noFallback, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	// The first collection happens at load 0 (eligible!), so tasks do run
	// until load rises; assert only that drops occur eventually... To be
	// deterministic, make the bound impossible via memory instead.
	base.Constraint = `<constraint><memory>memory gr 1024GB</memory></constraint>`
	noFallback, err = Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if noFallback.Dropped != 10 {
		t.Fatalf("no-fallback dropped = %d", noFallback.Dropped)
	}
	base.FallbackAll = true
	withFallback, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if withFallback.Completed != 10 {
		t.Fatalf("fallback completed = %d", withFallback.Completed)
	}
}

func TestFreshnessAblation(t *testing.T) {
	// With a freshness cutoff shorter than the collection period, rows go
	// stale between sweeps and strict filtering returns nothing; the
	// RankFirst policy still serves unknown hosts.
	cfg := Config{
		Hosts:            3,
		RegistryPolicy:   core.PolicyRankFirst,
		Freshness:        10 * time.Second,
		CollectionPeriod: 2 * time.Minute,
		Workload: mtc.Workload{
			Tasks: 10, MeanInterarrival: 5 * time.Second, Deterministic: true,
			TaskCPU: 2, TaskMemB: 1 << 20, Seed: 8, Drain: time.Minute,
		},
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 10 {
		t.Fatalf("rank-first with stale rows completed = %d", rep.Completed)
	}
}
