package registry

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/breaker"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/hostsim"
	"repro/internal/nodestatus"
	"repro/internal/obs"
	"repro/internal/rim"
	"repro/internal/simclock"
)

// newObservedRegistry builds a registry over a simulated 4-host cluster
// with admission and tracing on (every request sampled), collects one
// sweep, and serves it over httptest — the smallest deployment where every
// metric family has data behind it.
func newObservedRegistry(t *testing.T) (*Registry, *httptest.Server) {
	t.Helper()
	clk := simclock.NewManual(t0)
	cluster := hostsim.NewCluster()
	ns := rim.NewService(nodestatus.ServiceName, "Service to monitor node status")
	svc := rim.NewService("Adder",
		`<constraint><cpuLoad>load ls 1.0</cpuLoad><memory>memory gr 1GB</memory></constraint>`)
	for _, name := range []string{"h00.sdsu.edu", "h01.sdsu.edu", "h02.sdsu.edu", "h03.sdsu.edu"} {
		cluster.Add(hostsim.NewHost(hostsim.Config{
			Name: name, Cores: 2, TotalMemB: 4 << 30, TotalSwapB: 2 << 30,
		}, t0))
		ns.AddBinding("http://" + name + ":8080/NodeStatus/NodeStatusService")
		svc.AddBinding("http://" + name + ":8080/Adder/addService")
	}
	reg, err := New(Config{
		Clock:          clk,
		Policy:         core.PolicyFilter,
		SnapshotMaxAge: 25 * time.Second,
		Invoker:        hostsim.LocalInvoker{Cluster: cluster, Clock: clk},
		Breaker:        &breaker.Config{Threshold: 3, BaseBackoff: 50 * time.Second, MaxBackoff: 10 * time.Minute},
		TraceSample:    1,
		Admission:      &admit.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.LCM.SubmitObjects(reg.AdminContext(), ns, svc); err != nil {
		t.Fatal(err)
	}
	reg.Collector.CollectOnce()
	srv := httptest.NewServer(reg.Handler())
	t.Cleanup(srv.Close)
	return reg, srv
}

func TestHealthEndpoint(t *testing.T) {
	_, srv := newObservedRegistry(t)
	resp, err := srv.Client().Get(srv.URL + "/registry/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health status = %d", resp.StatusCode)
	}
	var v struct {
		Stats struct {
			Sweeps int
			Errs   int
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("health is not JSON: %v", err)
	}
	if v.Stats.Sweeps != 1 || v.Stats.Errs != 0 {
		t.Fatalf("health stats = %+v, want 1 sweep and 0 errors", v.Stats)
	}
}

// TestMetricsExpositionRoundTrip scrapes /registry/metrics after a few
// discoveries, an unrouted request and a second sweep, and re-parses it
// through the strict exposition parser: a malformed document, a missing or
// mistyped family, or a value other than the one that traffic implies fails.
func TestMetricsExpositionRoundTrip(t *testing.T) {
	reg, srv := newObservedRegistry(t)
	for i := 0; i < 3; i++ {
		resp, err := srv.Client().Get(srv.URL + "/registry/bindings?service=Adder")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bindings status = %d", resp.StatusCode)
		}
	}
	if status := getJSON(t, srv, "/registry/no-such-route", nil); status != http.StatusNotFound {
		t.Fatalf("unrouted path status = %d, want 404", status)
	}
	// Three failures open h03's breaker, so the second sweep skips that host.
	// Balance and SLO rollups ride the sweep.
	for i := 0; i < 3; i++ {
		reg.Breakers.Failure("h03.sdsu.edu", reg.Clock.Now())
	}
	reg.Collector.CollectOnce()

	resp, err := srv.Client().Get(srv.URL + "/registry/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition 0.0.4", got)
	}
	scrape, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not round-trip: %v", err)
	}

	for _, want := range []struct{ name, typ string }{
		{"registry_objects", "gauge"},
		{"registry_constraint_cache_hits_total", "counter"},
		{"registry_respcache_hits_total", "counter"},
		{"registry_respcache_misses_total", "counter"},
		{"registry_respcache_invalidations_total", "counter"},
		{"registry_respcache_entries", "gauge"},
		{"registry_respcache_renders_total", "counter"},
		{"registry_edge_rejected_total", "counter"},
		{"registry_collector_sweeps_total", "counter"},
		{"registry_collector_errors_total", "counter"},
		{"registry_collector_timeouts_total", "counter"},
		{"registry_collector_retries_total", "counter"},
		{"registry_collector_breaker_skips_total", "counter"},
		{"registry_breaker_state", "gauge"},
		{"registry_nodestate_rows", "gauge"},
		{"registry_node_load", "gauge"},
		{"registry_node_health", "gauge"},
		{"registry_nodestate_snapshot_generation", "gauge"},
		{"registry_nodestate_snapshot_age_seconds", "gauge"},
		{"registry_discovery_total", "counter"},
		{"registry_discovery_errors_total", "counter"},
		{"registry_discovery_fallback_total", "counter"},
		{"registry_discovery_degraded_total", "counter"},
		{"registry_discovery_verdicts_total", "counter"},
		{"registry_discovery_latency_seconds", "histogram"},
		{"registry_balance_assignments_total", "counter"},
		{"registry_balance_fairness_index", "gauge"},
		{"registry_balance_capacity_skew", "gauge"},
		{"registry_balance_rollups_total", "counter"},
		{"registry_balance_staleness_seconds", "histogram"},
		{"registry_slo_availability_burn_rate", "gauge"},
		{"registry_slo_latency_burn_rate", "gauge"},
		{"registry_traces_sampled_total", "counter"},
		{"registry_trace_sample_rate", "gauge"},
		{"registry_admission_admitted_total", "counter"},
		{"registry_admission_shed_total", "counter"},
		{"registry_admission_queued_total", "counter"},
		{"registry_admission_deadline_exceeded_total", "counter"},
		{"registry_admission_inflight", "gauge"},
		{"registry_admission_queue_depth", "gauge"},
		{"registry_admission_dropping", "gauge"},
		{"registry_brownout_tier", "gauge"},
		{"registry_brownout_transitions_total", "counter"},
	} {
		if f, ok := scrape.Families[want.name]; !ok {
			t.Errorf("family %s missing from scrape", want.name)
		} else if f.Type != want.typ {
			t.Errorf("family %s has type %s, want %s", want.name, f.Type, want.typ)
		}
	}

	check := func(name string, labels map[string]string, want float64) {
		t.Helper()
		got, ok := scrape.Value(name, labels)
		if !ok {
			t.Errorf("%s%v missing", name, labels)
			return
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s%v = %v, want %v", name, labels, got, want)
		}
	}
	// Three discoveries of one service, all sampled and all over REST: the
	// first parses the constraint, renders JSON and fills the response
	// cache, the other two are answered from it and never reach the
	// balancer; nothing rendered an envelope nobody asked for.
	check("registry_discovery_total", nil, 3)
	check("registry_constraint_cache_hits_total", nil, 0)
	check("registry_respcache_hits_total", nil, 2)
	check("registry_respcache_misses_total", nil, 1)
	check("registry_respcache_entries", nil, 1)
	check("registry_respcache_invalidations_total", nil, 1) // the fixture's submit; the boot's own writes precede it
	check("registry_respcache_renders_total", map[string]string{"encoding": "json"}, 1)
	check("registry_respcache_renders_total", map[string]string{"encoding": "soap"}, 0)
	check("registry_edge_rejected_total", map[string]string{"reason": "not-found"}, 1)
	check("registry_collector_sweeps_total", nil, 2)
	check("registry_collector_errors_total", nil, 0)
	check("registry_collector_breaker_skips_total", nil, 1)
	check("registry_nodestate_rows", nil, 4)
	check("registry_breaker_state", map[string]string{"host": "h02.sdsu.edu"}, 0)
	check("registry_breaker_state", map[string]string{"host": "h03.sdsu.edu"}, 1)
	check("registry_discovery_latency_seconds_count", nil, 3)
	check("registry_traces_sampled_total", nil, 3)
	check("registry_trace_sample_rate", nil, 1)
	if v, ok := scrape.Value("registry_node_load", map[string]string{"host": "h00.sdsu.edu"}); !ok || v < 0 {
		t.Errorf("registry_node_load{host=h00} = %v (ok=%v), want >= 0", v, ok)
	}
	// All three passed the admission controller: admitted, nothing shed,
	// CoDel not dropping, the ladder at nominal.
	discovery := map[string]string{"class": "discovery"}
	check("registry_admission_admitted_total", discovery, 3)
	check("registry_admission_shed_total", discovery, 0)
	check("registry_admission_dropping", discovery, 0)
	check("registry_brownout_tier", nil, 0)

	// Balance: the second sweep's rollup saw all three assignments. A host
	// with none exports no child, so an absent sample counts as zero.
	// Fairness is Jain's index over the per-host counts, skew the busiest
	// host's share against its capacity share (equal memory: a quarter).
	hosts := []string{"h00.sdsu.edu", "h01.sdsu.edu", "h02.sdsu.edu", "h03.sdsu.edu"}
	var total, sumsq, busiest float64
	for _, host := range hosts {
		c, _ := scrape.Value("registry_balance_assignments_total", map[string]string{"host": host})
		total, sumsq, busiest = total+c, sumsq+c*c, math.Max(busiest, c)
	}
	if total != 3 {
		t.Fatalf("balance assignments sum to %v, want 3", total)
	}
	check("registry_balance_staleness_seconds_count", nil, 3)
	check("registry_balance_rollups_total", nil, 2)
	check("registry_balance_fairness_index", nil, total*total/(float64(len(hosts))*sumsq))
	check("registry_balance_capacity_skew", nil, busiest/total*float64(len(hosts)))
	// No errors, and on the manual clock every request is instantaneous.
	for _, family := range []string{"registry_slo_availability_burn_rate", "registry_slo_latency_burn_rate"} {
		for _, window := range []string{"5m", "1h"} {
			check(family, map[string]string{"window": window}, 0)
		}
	}
}

// tracesList is the /registry/traces list shape the tests decode.
type tracesList struct {
	SampleRate int                   `json:"sampleRate"`
	Traces     []flight.RecordExport `json:"traces"`
}

// TestDiscoveryTraceRetrievable is the tentpole acceptance check: the id
// echoed in X-Registry-Trace must be fetchable from /registry/traces — a
// projection of the flight ring — with the discovery stage sequence intact,
// for the request that ran the balancer and for the cache hit after it.
func TestDiscoveryTraceRetrievable(t *testing.T) {
	_, srv := newObservedRegistry(t)
	var ids [2]string // the miss, then the hit
	for i := range ids {
		resp, err := srv.Client().Get(srv.URL + "/registry/bindings?service=Adder")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ids[i] = resp.Header.Get("X-Registry-Trace"); ids[i] == "" {
			t.Fatal("no X-Registry-Trace header with sampling on")
		}
	}
	id := ids[0]

	var exp flight.RecordExport
	if status := getJSON(t, srv, "/registry/traces?id="+id, &exp); status != http.StatusOK {
		t.Fatalf("traces?id=%s status = %d", id, status)
	}
	if exp.Trace != id || exp.Route != "bindings" || exp.CacheHit || exp.Verdict != "filtered" || exp.Eligible != 4 {
		t.Fatalf("trace record = %+v, want the filtered 4-host miss with id %s", exp, id)
	}
	var names []string
	for _, s := range exp.Stages {
		names = append(names, s.Name)
	}
	if got, want := strings.Join(names, " "), "view constraint snapshot evaluate arrange"; got != want {
		t.Errorf("trace stages = %q, want %q", got, want)
	}
	var hit flight.RecordExport
	if getJSON(t, srv, "/registry/traces?id="+ids[1], &hit); hit.Trace != ids[1] || !hit.CacheHit {
		t.Errorf("trace record of the second request = %+v, want the cache hit with id %s", hit, ids[1])
	}

	// The list endpoint carries both, newest first.
	var v tracesList
	getJSON(t, srv, "/registry/traces", &v)
	if v.SampleRate != 1 {
		t.Errorf("sampleRate = %d, want 1", v.SampleRate)
	}
	if len(v.Traces) != 2 || v.Traces[0].Trace != ids[1] || v.Traces[1].Trace != id {
		t.Errorf("/registry/traces list = %+v, want %s then %s", v.Traces, ids[1], id)
	}

	if status := getJSON(t, srv, "/registry/traces?id=deadbeef-000000", nil); status != http.StatusNotFound {
		t.Errorf("unknown trace id status = %d, want 404", status)
	}
	for _, bad := range []string{"abc", "0", "-3"} {
		if status := getJSON(t, srv, "/registry/traces?n="+bad, nil); status != http.StatusBadRequest {
			t.Errorf("traces?n=%s status = %d, want 400", bad, status)
		}
	}
	if getJSON(t, srv, "/registry/traces?n=1", &v); len(v.Traces) != 1 {
		t.Errorf("traces?n=1 returned %d records", len(v.Traces))
	}
}

// getJSON GETs path, decodes a 200 body into v (when non-nil), and returns
// the status.
func getJSON(t *testing.T, srv *httptest.Server, path string, v interface{}) int {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s is not JSON: %v", path, err)
		}
	}
	return resp.StatusCode
}

// TestTracingDisabledByDefault: with no TraceSample configured, discovery
// responses carry no trace header and no flight record carries an id —
// tracing is strictly opt-in.
func TestTracingDisabledByDefault(t *testing.T) {
	reg := newRegistry(t)
	svc := rim.NewService("Plain", "")
	svc.AddBinding("http://h.example/x")
	if err := reg.LCM.SubmitObjects(reg.AdminContext(), svc); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/registry/bindings?service=Plain")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bindings status = %d", resp.StatusCode)
	}
	if h := resp.Header.Get("X-Registry-Trace"); h != "" {
		t.Fatalf("X-Registry-Trace = %q with sampling off", h)
	}
	var v tracesList
	getJSON(t, srv, "/registry/traces", &v)
	if v.SampleRate != 0 || len(v.Traces) != 0 {
		t.Fatalf("sampleRate=%d traces=%d, want 0 and 0", v.SampleRate, len(v.Traces))
	}
	if reg.Flight.Written() != 1 {
		t.Fatalf("flight ring holds %d records, want the one unsampled discovery", reg.Flight.Written())
	}
}

// TestPprofOptIn: /debug/pprof/ exists only when Config.Pprof is set.
func TestPprofOptIn(t *testing.T) {
	off := newRegistry(t)
	srvOff := httptest.NewServer(off.Handler())
	defer srvOff.Close()
	resp, err := srvOff.Client().Get(srvOff.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof served without opt-in: status %d", resp.StatusCode)
	}

	on, err := New(Config{Clock: simclock.NewManual(t0), Policy: core.PolicyFilter, Pprof: true})
	if err != nil {
		t.Fatal(err)
	}
	srvOn := httptest.NewServer(on.Handler())
	defer srvOn.Close()
	resp, err = srvOn.Client().Get(srvOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d with -pprof", resp.StatusCode)
	}
}
