package registry

// Response-cache integration suite: byte-identical answers before and
// after a cache hit on both the REST and SOAP bindings surfaces, epoch
// invalidation on LCM writes, generation keying on NodeState movement
// (quarantine), tier keying across the brownout ladder, and a concurrent
// hammer for -race. Trace sampling is off here; discover_test.go shows it
// changes none of this.

import (
	"bytes"
	"fmt"
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
	"repro/internal/obs"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/soap"
	"repro/internal/store"
)

// newCachedRegistry builds a registry with the response cache live
// (tracing off), a 4-host "Adder" service, and deterministic NodeState
// rows so every host is eligible. adm may be nil.
func newCachedRegistry(t *testing.T, adm *admit.Config) (*Registry, *httptest.Server, *rim.Service) {
	t.Helper()
	return newSampledCachedRegistry(t, adm, 0)
}

// newSampledCachedRegistry is newCachedRegistry tracing every sample-th
// discovery request.
func newSampledCachedRegistry(t *testing.T, adm *admit.Config, sample int) (*Registry, *httptest.Server, *rim.Service) {
	t.Helper()
	reg, err := New(Config{
		Clock:          simclock.NewManual(t0),
		Policy:         core.PolicyFilter,
		SnapshotMaxAge: 25 * time.Second,
		Admission:      adm,
		TraceSample:    sample,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := rim.NewService("Adder",
		`<constraint><cpuLoad>load ls 1.0</cpuLoad><memory>memory gr 1GB</memory></constraint>`)
	for _, name := range []string{"h00.sdsu.edu", "h01.sdsu.edu", "h02.sdsu.edu", "h03.sdsu.edu"} {
		svc.AddBinding("http://" + name + ":8080/Adder/addService")
		reg.Store.NodeState().Upsert(store.NodeState{
			Host: name, Load: 0.2, MemoryB: 4 << 30, SwapB: 1 << 30, Updated: t0,
		})
	}
	if err := reg.LCM.SubmitObjects(reg.AdminContext(), svc); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	t.Cleanup(srv.Close)
	return reg, srv, svc
}

// getBindings fetches the REST discovery endpoint and returns the body.
func getBindings(t *testing.T, srv *httptest.Server, service string) (string, *http.Response) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/registry/bindings?service=" + service)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bindings status = %d (body %q)", resp.StatusCode, body)
	}
	return string(body), resp
}

// postBindingsRaw POSTs a GetBindingsRequest envelope and returns the raw
// response bytes, so byte-identity can be asserted on the SOAP surface.
func postBindingsRaw(t *testing.T, srv *httptest.Server, req *GetBindingsRequest) []byte {
	t.Helper()
	body, _ := postBindings(t, srv, req)
	return body
}

// postBindings is postBindingsRaw plus the response headers.
func postBindings(t *testing.T, srv *httptest.Server, req *GetBindingsRequest) ([]byte, http.Header) {
	t.Helper()
	env, err := soap.Marshal(&soapRequest{Bindings: req})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/soap/registry", soap.ContentType, bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("soap bindings status = %d (body %q)", resp.StatusCode, body)
	}
	return body, resp.Header
}

// TestRESTCacheHitIsByteIdentical: the first GET renders and stores, the
// second is served from the preserialized entry — and the client cannot
// tell them apart.
func TestRESTCacheHitIsByteIdentical(t *testing.T) {
	reg, srv, _ := newCachedRegistry(t, nil)

	first, resp1 := getBindings(t, srv, "Adder")
	if got, want := reg.RespCache.Misses.Value(), int64(1); got != want {
		t.Fatalf("misses after cold GET = %d, want %d", got, want)
	}
	second, resp2 := getBindings(t, srv, "Adder")
	if got, want := reg.RespCache.Hits.Value(), int64(1); got != want {
		t.Fatalf("hits after warm GET = %d, want %d", got, want)
	}
	if first != second {
		t.Fatalf("cached response differs from fresh:\nfresh: %q\ncached: %q", first, second)
	}
	if ct1, ct2 := resp1.Header.Get("Content-Type"), resp2.Header.Get("Content-Type"); ct1 != ct2 || ct1 != "application/json" {
		t.Fatalf("content types differ: fresh %q cached %q", ct1, ct2)
	}
	for _, host := range []string{"h00", "h01", "h02", "h03"} {
		if !strings.Contains(second, host) {
			t.Errorf("cached body missing %s: %q", host, second)
		}
	}
	if got, want := reg.RespCache.Len(), 1; got != want {
		t.Fatalf("cache entries = %d, want %d", got, want)
	}
}

// TestSOAPCacheHitIsByteIdentical covers both key spaces (by-name and
// by-id) and the cross-protocol entry: the envelope preserialized on the
// SOAP miss also answers the REST edge, and vice versa.
func TestSOAPCacheHitIsByteIdentical(t *testing.T) {
	reg, srv, svc := newCachedRegistry(t, nil)

	byName := &GetBindingsRequest{ServiceName: "Adder"}
	fresh := postBindingsRaw(t, srv, byName)
	cached := postBindingsRaw(t, srv, byName)
	if !bytes.Equal(fresh, cached) {
		t.Fatalf("SOAP by-name cached envelope differs:\nfresh: %q\ncached: %q", fresh, cached)
	}
	if got, want := reg.RespCache.Hits.Value(), int64(1); got != want {
		t.Fatalf("hits after by-name pair = %d, want %d", got, want)
	}

	byID := &GetBindingsRequest{ServiceID: svc.ID}
	freshID := postBindingsRaw(t, srv, byID)
	cachedID := postBindingsRaw(t, srv, byID)
	if !bytes.Equal(freshID, cachedID) {
		t.Fatalf("SOAP by-id cached envelope differs:\nfresh: %q\ncached: %q", freshID, cachedID)
	}
	if got, want := reg.RespCache.Len(), 2; got != want {
		t.Fatalf("cache entries = %d, want %d (name + id spaces)", got, want)
	}

	// The by-name entry carries both encodings: the REST edge answers
	// from the same entry without a second balancer run.
	misses := reg.RespCache.Misses.Value()
	body, _ := getBindings(t, srv, "Adder")
	if got := reg.RespCache.Misses.Value(); got != misses {
		t.Fatalf("REST after SOAP by-name missed (misses %d -> %d), want shared hit", misses, got)
	}
	if !strings.Contains(body, "h00.sdsu.edu") {
		t.Fatalf("cross-protocol REST body = %q", body)
	}
}

// TestLCMWriteInvalidates: a life-cycle write bumps the epoch, so the
// next request re-renders and reflects the new binding list even though
// the snapshot generation never moved.
func TestLCMWriteInvalidates(t *testing.T) {
	reg, srv, svc := newCachedRegistry(t, nil)

	// Row first, so the later write is the only cache-relevant event.
	reg.Store.NodeState().Upsert(store.NodeState{
		Host: "h04.sdsu.edu", Load: 0.2, MemoryB: 4 << 30, SwapB: 1 << 30, Updated: t0,
	})
	before, _ := getBindings(t, srv, "Adder")
	if strings.Contains(before, "h04") {
		t.Fatalf("h04 bound before the update: %q", before)
	}
	epoch := reg.RespCache.Epoch()

	svc.AddBinding("http://h04.sdsu.edu:8080/Adder/addService")
	if err := reg.LCM.UpdateObjects(reg.AdminContext(), svc); err != nil {
		t.Fatal(err)
	}
	if got := reg.RespCache.Epoch(); got != epoch+1 {
		t.Fatalf("epoch after LCM write: %d -> %d, want one step", epoch, got)
	}

	after, _ := getBindings(t, srv, "Adder")
	if !strings.Contains(after, "h04.sdsu.edu") {
		t.Fatalf("stale cache served after LCM write: %q", after)
	}
	if got, want := reg.RespCache.Misses.Value(), int64(2); got != want {
		t.Fatalf("misses = %d, want %d (epoch invalidated the entry)", got, want)
	}
	if got, want := reg.RespCache.Hits.Value(), int64(0); got != want {
		t.Fatalf("hits = %d, want %d", got, want)
	}
}

// TestQuarantineInvalidatesViaGeneration: a NodeState write never touches
// the epoch — the snapshot generation key alone must retire the entry, and
// the recomputed answer must exclude the quarantined host.
func TestQuarantineInvalidatesViaGeneration(t *testing.T) {
	reg, srv, _ := newCachedRegistry(t, nil)

	before, _ := getBindings(t, srv, "Adder")
	if !strings.Contains(before, "h00.sdsu.edu") {
		t.Fatalf("h00 missing before quarantine: %q", before)
	}
	epoch := reg.RespCache.Epoch()

	reg.Store.NodeState().Upsert(store.NodeState{
		Host: "h00.sdsu.edu", Load: 0.2, MemoryB: 4 << 30, SwapB: 1 << 30,
		Updated: t0, Health: store.HealthQuarantined,
	})
	// Within SnapshotMaxAge the balancer itself tolerates the stale
	// snapshot (RCU window) — and so, correctly, does the cache. Step past
	// the window so the next read republishes and the generation moves.
	reg.Clock.(*simclock.Manual).Advance(26 * time.Second)
	after, _ := getBindings(t, srv, "Adder")
	if strings.Contains(after, "h00.sdsu.edu") {
		t.Fatalf("quarantined host served from stale cache: %q", after)
	}
	if !strings.Contains(after, "h01.sdsu.edu") {
		t.Fatalf("healthy host missing after quarantine: %q", after)
	}
	if got, want := reg.RespCache.Misses.Value(), int64(2); got != want {
		t.Fatalf("misses = %d, want %d (generation key must invalidate)", got, want)
	}
	if got := reg.RespCache.Epoch(); got != epoch {
		t.Fatalf("epoch %d -> %d, want unchanged (NodeState writes do not move it)", epoch, got)
	}
}

// TestBrownoutTierKeysCache: entries are keyed by the brownout tier, and
// every tier transition advances the epoch — a response rendered
// under nominal conditions is never served during a brownout, and one
// rendered during the brownout is never served after recovery.
func TestBrownoutTierKeysCache(t *testing.T) {
	adm := admitTestConfig()
	reg, srv, _ := newCachedRegistry(t, &adm)

	// Warm path through the admission middleware's FastServe hook.
	getBindings(t, srv, "Adder")
	getBindings(t, srv, "Adder")
	if got, want := reg.RespCache.Hits.Value(), int64(1); got != want {
		t.Fatalf("hits at nominal tier = %d, want %d", got, want)
	}

	epoch := reg.RespCache.Epoch()
	driveDiscoveryOverload(reg, 5*time.Second)
	if got := reg.Admission.Tier(); got < admit.TierStale {
		t.Fatalf("tier after overload = %v, want >= TierStale", got)
	}
	if got, want := reg.RespCache.Epoch()-epoch, uint64(reg.Admission.TierChanges()); got != want || got < 1 {
		t.Fatalf("epoch moved %d over the climb, want one per transition (%d)", got, want)
	}

	// The brownout answer is computed fresh (and re-cached under the new
	// tier key), then served warm while the tier holds.
	misses := reg.RespCache.Misses.Value()
	getBindings(t, srv, "Adder")
	if got := reg.RespCache.Misses.Value(); got != misses+1 {
		t.Fatalf("first brownout GET: misses %d -> %d, want a miss under the new tier", misses, got)
	}
	hits := reg.RespCache.Hits.Value()
	getBindings(t, srv, "Adder")
	if got := reg.RespCache.Hits.Value(); got != hits+1 {
		t.Fatalf("second brownout GET: hits %d -> %d, want a hit at the held tier", hits, got)
	}

	// Recovery is itself a tier transition: the brownout-era entry dies.
	calmDiscovery(reg, 200)
	if got := reg.Admission.Tier(); got != admit.TierNominal {
		t.Fatalf("tier after calm = %v, want TierNominal", got)
	}
	misses = reg.RespCache.Misses.Value()
	getBindings(t, srv, "Adder")
	if got := reg.RespCache.Misses.Value(); got != misses+1 {
		t.Fatalf("post-recovery GET: misses %d -> %d, want a fresh render", misses, got)
	}
}

// TestCachedAnswerExpiresAtFreshnessHorizon: with Freshness set and no
// sweep, nothing writes and the snapshot never moves, so only the clock can
// retire a cached answer. It is served until the earliest horizon (Updated
// + Freshness) of a row the constraint was evaluated against and
// recomputed from that instant; the row reads as unknown once it is older
// than Freshness, one tick later, and its host leaves the answer. Rows the
// constraint was not evaluated against — a failing host, a quarantined one
// — have earlier horizons that must not shorten the entry.
func TestCachedAnswerExpiresAtFreshnessHorizon(t *testing.T) {
	const fresh = 30 * time.Second
	clk := simclock.NewManual(t0.Add(20 * time.Second))
	reg, err := New(Config{
		Clock: clk, Policy: core.PolicyFilter, Freshness: fresh,
		SnapshotMaxAge: time.Hour, // the snapshot generation never moves
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := rim.NewService("Adder", `<constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>`)
	for _, row := range []store.NodeState{
		{Host: "h00.sdsu.edu", Load: 0.2, Updated: t0},                       // horizon t0+30s, the earliest evaluated
		{Host: "h01.sdsu.edu", Load: 0.2, Updated: t0.Add(10 * time.Second)}, // t0+40s
		{Host: "h02.sdsu.edu", Load: 0.2, Updated: t0.Add(-5 * time.Second), Failures: 1},
		{Host: "h03.sdsu.edu", Load: 0.2, Updated: t0.Add(-5 * time.Second), Health: store.HealthQuarantined},
	} {
		svc.AddBinding("http://" + row.Host + ":8080/Adder/addService")
		reg.Store.NodeState().Upsert(row)
	}
	if err := reg.LCM.SubmitObjects(reg.AdminContext(), svc); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	// at moves the clock to t0+offset, asks, and checks whether the answer
	// came from the cache, whether h00 is in it, and the verdict counts the
	// flight record carries.
	var first string
	at := func(offset time.Duration, hit, h00 bool, eligible, unknown uint8) {
		t.Helper()
		clk.Set(t0.Add(offset))
		body, _ := getBindings(t, srv, "Adder")
		rec := reg.Flight.Snapshot(flight.Filter{Limit: 1})[0]
		if served := strings.Contains(body, "h00.sdsu.edu"); rec.CacheHit != hit || served != h00 {
			t.Fatalf("t0+%v: hit %v, h00 served %v; want %v, %v (body %s)", offset, rec.CacheHit, served, hit, h00, body)
		}
		if rec.Eligible != eligible || rec.Unknown != unknown || rec.Quarantined != 1 {
			t.Fatalf("t0+%v: eligible/unknown/quarantined %d/%d/%d, want %d/%d/1",
				offset, rec.Eligible, rec.Unknown, rec.Quarantined, eligible, unknown)
		}
		if first == "" {
			first = body
		} else if h00 && body != first {
			t.Fatalf("t0+%v: body %s, want the first answer %s", offset, body, first)
		}
	}
	at(20*time.Second, false, true, 2, 1)
	at(25*time.Second, true, true, 2, 1) // past the unevaluated rows' horizons
	at(fresh-time.Nanosecond, true, true, 2, 1)
	at(fresh, false, true, 2, 1) // h00's horizon: recomputed, still fresh
	at(fresh+time.Nanosecond, false, false, 1, 2)
	at(39*time.Second, true, false, 1, 2) // h01's horizon is next
	at(40*time.Second, false, false, 1, 2)
}

// TestCachedDiscoveryConcurrent hammers the cached edge from many clients
// while writes churn both invalidation keys underneath it: LCM submissions
// bump the epoch and NodeState upserts move the snapshot generation. Run
// with -race; every response must be complete and well-formed.
func TestCachedDiscoveryConcurrent(t *testing.T) {
	reg, srv, _ := newCachedRegistry(t, nil)

	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := srv.Client()
			for j := 0; j < perWorker; j++ {
				resp, err := client.Get(srv.URL + "/registry/bindings?service=Adder")
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "h01.sdsu.edu") {
					errs <- &soap.Fault{Code: "test", String: string(body)}
					return
				}
			}
		}()
	}
	// Churn both cache keys while the readers run.
	for k := 0; k < 25; k++ {
		noise := rim.NewService("Noise", "")
		noise.AddBinding("http://noise.sdsu.edu:8080/Noise/n")
		if err := reg.LCM.SubmitObjects(reg.AdminContext(), noise); err != nil {
			t.Error(err)
			break
		}
		reg.Store.NodeState().Upsert(store.NodeState{
			Host: "h03.sdsu.edu", Load: 0.2 + float64(k)*0.01,
			MemoryB: 4 << 30, SwapB: 1 << 30, Updated: t0,
		})
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if hits, misses := reg.RespCache.Hits.Value(), reg.RespCache.Misses.Value(); hits+misses < workers*perWorker {
		t.Fatalf("hits %d + misses %d < %d requests", hits, misses, workers*perWorker)
	}
}

// TestCacheHoldsEveryStoredService: the cache is bounded by the store, not
// by a fixed cap, so a registry of 1,500 services keeps every answer. After
// a first pass over every name by REST and by SOAP, a second pass is all
// hits and renders nothing.
func TestCacheHoldsEveryStoredService(t *testing.T) {
	const services = 1500
	reg, err := New(Config{Clock: simclock.NewManual(t0), Policy: core.PolicyFilter, SnapshotMaxAge: 25 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	reg.Store.NodeState().Upsert(store.NodeState{Host: "h00.sdsu.edu", Load: 0.2, MemoryB: 4 << 30, SwapB: 1 << 30, Updated: t0})
	names := make([]string, services)
	objs := make([]rim.Object, services)
	for i := range names {
		names[i] = fmt.Sprintf("svc-%04d", i)
		svc := rim.NewService(names[i], `<constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>`)
		svc.AddBinding("http://h00.sdsu.edu:8080/" + names[i])
		objs[i] = svc
	}
	if err := reg.LCM.SubmitObjects(reg.AdminContext(), objs...); err != nil {
		t.Fatal(err)
	}
	h := reg.Handler()
	serve := func(req *http.Request) *httptest.ResponseRecorder {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d (body %q)", req.Method, req.URL, w.Code, w.Body.Bytes())
		}
		return w
	}
	pass := func() {
		for _, name := range names {
			serve(httptest.NewRequest(http.MethodGet, "/registry/bindings?service="+name, nil))
			env, err := soap.Marshal(&soapRequest{Bindings: &GetBindingsRequest{ServiceName: name}})
			if err != nil {
				t.Fatal(err)
			}
			serve(httptest.NewRequest(http.MethodPost, "/soap/registry", bytes.NewReader(env)))
		}
	}
	counters := func() (hits, json, soapRenders float64) {
		t.Helper()
		sc, err := obs.ParseExposition(serve(httptest.NewRequest(http.MethodGet, "/registry/metrics", nil)).Body)
		if err != nil {
			t.Fatal(err)
		}
		hits, _ = sc.Value("registry_respcache_hits_total", nil)
		json, _ = sc.Value("registry_respcache_renders_total", map[string]string{"encoding": "json"})
		soapRenders, _ = sc.Value("registry_respcache_renders_total", map[string]string{"encoding": "soap"})
		return hits, json, soapRenders
	}

	pass()
	hits, json, soapRenders := counters()
	if json != services || soapRenders != services {
		t.Fatalf("first pass rendered %v JSON and %v SOAP answers, want %d each", json, soapRenders, services)
	}
	pass()
	hits2, json2, soap2 := counters()
	if got, want := hits2-hits, float64(2*services); got != want {
		t.Fatalf("second pass: %v hits, want %v (every request)", got, want)
	}
	if json2 != json || soap2 != soapRenders {
		t.Fatalf("second pass rendered %v JSON and %v SOAP answers, want none", json2-json, soap2-soapRenders)
	}
	if got, want := reg.RespCache.Len(), services; got != want {
		t.Fatalf("RespCache.Len = %d, want %d", got, want)
	}
}
