package registry

// Flight-recorder and diagnostic-bundle HTTP suite: records present on
// edge cache hits (the path that bypasses tracing entirely), filter
// parameters, a concurrent hammer for -race, every
// bundle section, the opt-in goroutine dump, and the /registry/health
// per-component rollup across degraded and brownout transitions.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/store"
)

// flightPageJSON mirrors the /registry/flight envelope for decoding.
type flightPageJSON struct {
	Written uint64                `json:"written"`
	Ring    int                   `json:"ring"`
	Records []flight.RecordExport `json:"records"`
}

// getFlight fetches /registry/flight with the given query string.
func getFlight(t *testing.T, srv *httptest.Server, query string) flightPageJSON {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/registry/flight" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight status = %d (body %q)", resp.StatusCode, body)
	}
	var page flightPageJSON
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("flight page: %v (body %q)", err, body)
	}
	return page
}

// TestFlightRecordsCacheHits is the tentpole claim: the warm FastServe
// path, which bypasses tracing and per-request metrics contexts, still
// leaves one complete wide-event record per request.
func TestFlightRecordsCacheHits(t *testing.T) {
	reg, srv, _ := newCachedRegistry(t, nil)

	getBindings(t, srv, "Adder")
	getBindings(t, srv, "Adder")
	if reg.RespCache.Hits.Value() == 0 {
		t.Fatal("second discovery did not hit the response cache")
	}

	page := getFlight(t, srv, "")
	if page.Written < 2 {
		t.Fatalf("written = %d, want >= 2", page.Written)
	}
	hits := getFlight(t, srv, "?hit=true&route=bindings")
	if len(hits.Records) == 0 {
		t.Fatal("no cache-hit records for route=bindings")
	}
	rec := hits.Records[0]
	if !rec.CacheHit {
		t.Fatalf("filtered record not a cache hit: %+v", rec)
	}
	if rec.Route != "bindings" || rec.Outcome != "admitted" || rec.Status != http.StatusOK {
		t.Fatalf("cache-hit envelope wrong: %+v", rec)
	}
	if rec.Host == "" || !strings.HasSuffix(rec.Host, ".sdsu.edu") {
		t.Fatalf("cache-hit record lost the chosen host: %+v", rec)
	}
	if rec.Verdict != "filtered" {
		t.Fatalf("verdict = %q, want filtered (PolicyFilter decision): %+v", rec.Verdict, rec)
	}
	if rec.SnapshotGen == 0 {
		t.Fatalf("cache-hit record lost the snapshot generation: %+v", rec)
	}
	if rec.Eligible == 0 {
		t.Fatalf("cache-hit record lost the eligibility counts: %+v", rec)
	}

	// The miss (first request) is the hit=false complement.
	misses := getFlight(t, srv, "?hit=false&route=bindings")
	if len(misses.Records) == 0 {
		t.Fatal("no cache-miss record for the first request")
	}

	// Unknown-service discovery serves a client error; the record says so.
	resp, err := srv.Client().Get(srv.URL + "/registry/bindings?service=Nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	errs := getFlight(t, srv, "?outcome=client-error")
	if len(errs.Records) == 0 {
		t.Fatal("client error left no flight record")
	}
}

// TestFlightFilterParams covers the filter surface: n bounds, host match,
// and a 400 on each malformed parameter.
func TestFlightFilterParams(t *testing.T) {
	_, srv, _ := newCachedRegistry(t, nil)
	for i := 0; i < 5; i++ {
		getBindings(t, srv, "Adder")
	}
	if page := getFlight(t, srv, "?n=2"); len(page.Records) != 2 {
		t.Fatalf("n=2 returned %d records", len(page.Records))
	}
	all := getFlight(t, srv, "")
	host := all.Records[0].Host
	if host == "" {
		t.Fatalf("newest record has no host: %+v", all.Records[0])
	}
	for _, rec := range getFlight(t, srv, "?host="+host).Records {
		if rec.Host != host {
			t.Fatalf("host filter leaked %+v", rec)
		}
	}
	for _, bad := range []string{"?n=0", "?n=x", "?route=nope", "?outcome=nope", "?hit=maybe"} {
		resp, err := srv.Client().Get(srv.URL + "/registry/flight" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestFlightConcurrentHammer pounds discovery (warm cache hits writing
// the ring) while readers snapshot it — the seqlock's -race contract.
func TestFlightConcurrentHammer(t *testing.T) {
	_, srv, _ := newCachedRegistry(t, nil)
	getBindings(t, srv, "Adder") // warm the cache

	const writers, readers, rounds = 4, 2, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := srv.Client().Get(srv.URL + "/registry/bindings?service=Adder")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := srv.Client().Get(srv.URL + "/registry/flight?n=500")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	page := getFlight(t, srv, "?n=500")
	if page.Written < writers*rounds {
		t.Fatalf("written = %d, want >= %d", page.Written, writers*rounds)
	}
}

// bundleJSON mirrors the /registry/debug/bundle document for decoding.
type bundleJSON struct {
	At      string                     `json:"at"`
	Config  map[string]interface{}     `json:"config"`
	Health  map[string]json.RawMessage `json:"health"`
	Metrics string                     `json:"metrics"`
	Flight  []flight.RecordExport      `json:"flight"`
	Traces  []json.RawMessage          `json:"traces"`
	WAL     *struct {
		Segments int64 `json:"segments"`
	} `json:"wal"`
	BrownoutTier int                        `json:"brownoutTier"`
	SLO          map[string]json.RawMessage `json:"slo"`
	Balance      map[string]int64           `json:"balanceAssignments"`
	Goroutines   string                     `json:"goroutines"`
}

func getBundle(t *testing.T, srv *httptest.Server, query string) bundleJSON {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/registry/debug/bundle" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bundle status = %d (body %q)", resp.StatusCode, body)
	}
	var doc bundleJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("bundle: %v", err)
	}
	return doc
}

// TestBundleSections checks every section of the one-shot bundle is
// present and carries live data after a little traffic, every request
// sampled: the two records appear under flight and again under traces.
func TestBundleSections(t *testing.T) {
	_, srv, _ := newSampledCachedRegistry(t, nil, 1)
	getBindings(t, srv, "Adder")
	getBindings(t, srv, "Adder")

	doc := getBundle(t, srv, "")
	if doc.At == "" {
		t.Error("bundle missing timestamp")
	}
	if doc.Config["policy"] != "filter" {
		t.Errorf("bundle config policy = %v, want filter", doc.Config["policy"])
	}
	if doc.Config["traceSampleRate"] != float64(1) {
		t.Errorf("bundle config traceSampleRate = %v, want 1", doc.Config["traceSampleRate"])
	}
	for _, comp := range []string{"collector", "wal", "admission", "edgecache", "balance"} {
		if _, ok := doc.Health[comp]; !ok {
			t.Errorf("bundle health missing component %q", comp)
		}
	}
	if !strings.Contains(doc.Metrics, "registry_balance_fairness_index") {
		t.Error("bundle metrics snapshot missing registry_balance_fairness_index")
	}
	if len(doc.Flight) != 2 || len(doc.Traces) != 2 {
		t.Errorf("bundle has %d flight records and %d traces, want 2 of each", len(doc.Flight), len(doc.Traces))
	}
	if doc.WAL != nil {
		t.Errorf("bundle WAL section = %+v for an in-memory registry, want null", doc.WAL)
	}
	for _, window := range []string{"5m", "1h"} {
		if _, ok := doc.SLO[window]; !ok {
			t.Errorf("bundle SLO missing window %q", window)
		}
	}
	if doc.Goroutines != "" {
		t.Error("goroutine dump present without opt-in")
	}

	withG := getBundle(t, srv, "?goroutines=1")
	if !strings.Contains(withG.Goroutines, "goroutine") {
		t.Error("opt-in goroutine dump empty")
	}
	if n := len(getBundle(t, srv, "?n=1").Flight); n != 1 {
		t.Errorf("bundle n=1 carried %d flight records", n)
	}
	resp, err := srv.Client().Get(srv.URL + "/registry/debug/bundle?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bundle bad n: status %d, want 400", resp.StatusCode)
	}
}

// healthJSON mirrors the extended /registry/health response.
type healthJSON struct {
	Status     string `json:"status"`
	Components map[string]struct {
		Status string             `json:"status"`
		Note   string             `json:"note"`
		Values map[string]float64 `json:"values"`
	} `json:"components"`
}

func getHealth(t *testing.T, srv *httptest.Server) healthJSON {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/registry/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health status = %d", resp.StatusCode)
	}
	var h healthJSON
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("health: %v", err)
	}
	return h
}

// TestHealthRollupTransitions walks the rollup through its states: all-ok
// at rest, degraded while a host is quarantined, degraded again while the
// brownout ladder is engaged, and back to ok after recovery.
func TestHealthRollupTransitions(t *testing.T) {
	adm := admitTestConfig()
	reg := newAdmitRegistry(t, adm, core.DegradedEmpty)
	seedWorker(t, reg, "thermo.sdsu.edu", "exergy.sdsu.edu")
	now := reg.Clock.Now()
	for _, h := range []string{"thermo.sdsu.edu", "exergy.sdsu.edu"} {
		reg.Store.NodeState().Upsert(store.NodeState{
			Host: h, Load: 0.2, MemoryB: 4 << 30, SwapB: 1 << 30, Updated: now,
		})
	}
	srv := httptest.NewServer(reg.Handler())
	t.Cleanup(srv.Close)

	h := getHealth(t, srv)
	if h.Status != "ok" {
		t.Fatalf("resting status = %q, want ok (components %+v)", h.Status, h.Components)
	}
	for _, comp := range []string{"collector", "wal", "admission", "edgecache", "balance"} {
		if _, ok := h.Components[comp]; !ok {
			t.Fatalf("rollup missing component %q", comp)
		}
	}
	if h.Components["wal"].Status != "disabled" {
		t.Errorf("in-memory registry wal status = %q, want disabled", h.Components["wal"].Status)
	}
	if h.Components["admission"].Status != "ok" {
		t.Errorf("nominal admission status = %q, want ok", h.Components["admission"].Status)
	}

	// Quarantine a host: the collector component (and the overall status)
	// must go degraded.
	reg.Store.NodeState().Upsert(store.NodeState{
		Host: "exergy.sdsu.edu", Load: 0.2, MemoryB: 4 << 30, SwapB: 1 << 30,
		Updated: now, Health: store.HealthQuarantined,
	})
	h = getHealth(t, srv)
	if h.Status != "degraded" || h.Components["collector"].Status != "degraded" {
		t.Fatalf("quarantine not reflected: status %q, collector %+v",
			h.Status, h.Components["collector"])
	}

	// Clear it, then engage the brownout ladder: admission goes degraded.
	reg.Store.NodeState().Upsert(store.NodeState{
		Host: "exergy.sdsu.edu", Load: 0.2, MemoryB: 4 << 30, SwapB: 1 << 30,
		Updated: now,
	})
	if h = getHealth(t, srv); h.Status != "ok" {
		t.Fatalf("status after quarantine cleared = %q, want ok", h.Status)
	}
	driveDiscoveryOverload(reg, 2*time.Second)
	if reg.Admission.Tier() == admit.TierNominal {
		t.Fatal("overload driver did not engage the ladder")
	}
	h = getHealth(t, srv)
	if h.Status != "degraded" || h.Components["admission"].Status != "degraded" {
		t.Fatalf("brownout not reflected: status %q, admission %+v",
			h.Status, h.Components["admission"])
	}
	if h.Components["admission"].Values["tier"] == 0 {
		t.Errorf("admission tier value missing: %+v", h.Components["admission"])
	}

	// Calm recovers the ladder and the rollup.
	calmDiscovery(reg, 200)
	h = getHealth(t, srv)
	if h.Status != "ok" || h.Components["admission"].Status != "ok" {
		t.Fatalf("rollup did not recover: status %q, admission %+v",
			h.Status, h.Components["admission"])
	}
}
