package registry

// Shedding × degraded-mode composition: the brownout ladder's overrides
// (stale snapshots, forced static fallback) must compose with the
// balancer's own degradation machinery (quarantine, DegradedStatic)
// without double-degrading, and the whole admission edge must hold up
// under real concurrent HTTP load with the collector writing rows
// underneath it (run with -race; see `make overloadcheck`).

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/nodestatus"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/soap"
	"repro/internal/store"
)

// admitTestConfig mirrors internal/admit's test config: tight limits and
// sub-second brownout thresholds so a few simulated seconds of overload
// walk the whole ladder.
func admitTestConfig() admit.Config {
	return admit.Config{
		Discovery:        admit.ClassLimits{MaxInFlight: 2, MaxQueue: 8, Deadline: 250 * time.Millisecond},
		LCM:              admit.ClassLimits{MaxInFlight: 1, MaxQueue: 1, Deadline: time.Second},
		RetryAfter:       time.Second,
		BrownoutEscalate: 300 * time.Millisecond,
		BrownoutCalm:     500 * time.Millisecond,
	}
}

func newAdmitRegistry(t *testing.T, adm admit.Config, degraded core.DegradedMode) *Registry {
	t.Helper()
	r, err := New(Config{
		Clock:       simclock.NewManual(t0),
		Policy:      core.PolicyFilter,
		Degraded:    degraded,
		TraceSample: 2,
		Admission:   &adm,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// seedWorker publishes a constrained Worker service bound to hosts.
func seedWorker(t *testing.T, r *Registry, hosts ...string) {
	t.Helper()
	svc := rim.NewService("Worker",
		`worker <constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>`)
	for _, h := range hosts {
		svc.AddBinding("http://" + h + ":8080/Worker/workerService")
	}
	if err := r.LCM.SubmitObjects(r.AdminContext(), svc); err != nil {
		t.Fatal(err)
	}
}

// driveDiscoveryOverload holds every discovery slot busy for d of
// simulated time while arrivals outpace completions three to one, so the
// queue stands full and CoDel keeps dropping at its head, then lets the
// crowd disperse (the admit package's overload loop, replayed against the
// registry's own controller, whose tier the balancer, the edge and the
// cache read).
func driveDiscoveryOverload(r *Registry, d time.Duration) {
	c := r.Admission
	clk := r.Clock.(*simclock.Manual)
	class := admit.ClassDiscovery
	for i := 0; i < c.Limits(class).MaxInFlight; i++ {
		c.TryAdmit(class, clk.Now())
	}
	step := 10 * time.Millisecond
	for elapsed := time.Duration(0); elapsed < d; elapsed += step {
		now := clk.Now()
		for i := 0; i < 3; i++ {
			c.TryAdmit(class, now)
		}
		c.Release(class, now, now)
		clk.Advance(step)
	}
	for c.ClassStats(class).InFlight > 0 {
		now := clk.Now()
		c.Release(class, now, now)
		clk.Advance(step)
	}
}

// calmDiscovery runs fast, sparse completions until the ladder has had
// ample calm time to walk back to nominal.
func calmDiscovery(r *Registry, rounds int) {
	c := r.Admission
	clk := r.Clock.(*simclock.Manual)
	for i := 0; i < rounds; i++ {
		now := clk.Now()
		if out, _ := c.TryAdmit(admit.ClassDiscovery, now); out == admit.Admitted {
			c.Release(admit.ClassDiscovery, now, now.Add(time.Millisecond))
		}
		clk.Advance(200 * time.Millisecond)
	}
}

// TestBrownoutTiersComposeWithQuarantine drives the wired controller up
// the ladder and checks each override lands where the registry promised:
// tracing off at TierNoTrace, the static fallback forced at TierStatic —
// and that the top tier does NOT resurrect quarantined hosts while a
// healthy one is left: breaker verdicts in the snapshot keep excluding
// them.
func TestBrownoutTiersComposeWithQuarantine(t *testing.T) {
	r := newAdmitRegistry(t, admitTestConfig(), core.DegradedEmpty)
	seedWorker(t, r, "exergy.sdsu.edu", "thermo.sdsu.edu")
	now := r.Clock.Now()
	r.Store.NodeState().Upsert(store.NodeState{
		Host: "exergy.sdsu.edu", Load: 0.2, MemoryB: 4 << 30, SwapB: 1 << 30,
		Updated: now, Health: store.HealthQuarantined,
	})
	r.Store.NodeState().Upsert(store.NodeState{
		Host: "thermo.sdsu.edu", Load: 0.2, MemoryB: 4 << 30, SwapB: 1 << 30,
		Updated: now,
	})

	if got := r.traceEvery(); got != 2 {
		t.Fatalf("nominal trace sample = %d, want 2", got)
	}

	driveDiscoveryOverload(r, 5*time.Second)
	if got := r.Admission.Tier(); got != admit.TierStatic {
		t.Fatalf("tier after sustained overload = %v, want TierStatic", got)
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	if got := r.traceEvery(); got != 0 {
		t.Fatalf("trace sample at %v = %d, want 0 (TierNoTrace)", r.Admission.Tier(), got)
	}
	wantTracing(t, r, srv, 0)
	if !r.Balancer.Brownout.ForceStatic() {
		t.Fatalf("force static at %v = false", r.Admission.Tier())
	}

	// Discovery during the brownout: the healthy host is served normally,
	// the quarantined one stays excluded — degraded service is not
	// un-degraded service.
	uris, dec, err := r.QM.GetServiceBindingsByName("Worker")
	if err != nil {
		t.Fatal(err)
	}
	if len(uris) != 1 || !strings.Contains(uris[0], "thermo") {
		t.Fatalf("uris under brownout = %v, want thermo only", uris)
	}
	if dec.Quarantined() != 1 {
		t.Fatalf("quarantined = %d, want 1 (decision %+v)", dec.Quarantined(), dec)
	}
	if dec.Degraded {
		t.Fatalf("decision degraded with a healthy host available: %+v", dec)
	}

	// Calm walks the ladder back down and restores every override.
	calmDiscovery(r, 200)
	if got := r.Admission.Tier(); got != admit.TierNominal {
		t.Fatalf("tier after calm = %v, want TierNominal", got)
	}
	if got := r.traceEvery(); got != 2 {
		t.Fatalf("trace sample after recovery = %d, want 2", got)
	}
	wantTracing(t, r, srv, 2)
	if r.Balancer.Brownout.ForceStatic() {
		t.Fatal("force static after recovery = true, want false")
	}
}

// wantTracing checks the edge samples every rate-th discovery (none at
// rate 0) over two requests, and that /registry/metrics reports the rate.
func wantTracing(t *testing.T, r *Registry, srv *httptest.Server, rate int) {
	t.Helper()
	traced := 0
	for i := 0; i < 2; i++ {
		resp, err := srv.Client().Get(srv.URL + "/registry/bindings?service=Worker")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bindings at %v: status %d", r.Admission.Tier(), resp.StatusCode)
		}
		if resp.Header.Get("X-Registry-Trace") != "" {
			traced++
		}
	}
	want := 0
	if rate > 0 {
		want = 2 / rate
	}
	if traced != want {
		t.Fatalf("at %v %d of 2 requests carried X-Registry-Trace, want %d", r.Admission.Tier(), traced, want)
	}
	if got, ok := scrapeMetrics(t, srv).Value("registry_trace_sample_rate", nil); !ok || got != float64(rate) {
		t.Fatalf("registry_trace_sample_rate at %v = %v (ok=%v), want %d", r.Admission.Tier(), got, ok, rate)
	}
}

// TestDegradedStaticAndTierStaticIdempotent quarantines the whole cluster
// so discovery finds nothing, then checks the two static-fallback sources
// — the configured DegradedStatic policy and the brownout ladder's
// TierStatic — produce the same single degradation whether one or both
// are active: the stored order, once, flagged Degraded.
func TestDegradedStaticAndTierStaticIdempotent(t *testing.T) {
	hosts := []string{"exergy.sdsu.edu", "thermo.sdsu.edu"}
	quarantineAll := func(r *Registry) {
		now := r.Clock.Now()
		for _, h := range hosts {
			r.Store.NodeState().Upsert(store.NodeState{
				Host: h, Load: 0.2, MemoryB: 4 << 30, SwapB: 1 << 30,
				Updated: now, Health: store.HealthQuarantined,
			})
		}
	}
	wantStored := []string{
		"http://exergy.sdsu.edu:8080/Worker/workerService",
		"http://thermo.sdsu.edu:8080/Worker/workerService",
	}
	checkStored := func(t *testing.T, r *Registry, label string) {
		t.Helper()
		uris, dec, err := r.QM.GetServiceBindingsByName("Worker")
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(uris) != len(wantStored) {
			t.Fatalf("%s: uris = %v, want the stored order exactly once", label, uris)
		}
		for i, u := range wantStored {
			if uris[i] != u {
				t.Fatalf("%s: uris = %v, want stored order %v", label, uris, wantStored)
			}
		}
		if !dec.Degraded {
			t.Fatalf("%s: decision not marked Degraded: %+v", label, dec)
		}
		if dec.Quarantined() != len(hosts) {
			t.Fatalf("%s: quarantined = %d, want %d", label, dec.Quarantined(), len(hosts))
		}
	}

	// DegradedStatic alone (nominal tier).
	r := newAdmitRegistry(t, admitTestConfig(), core.DegradedStatic)
	seedWorker(t, r, hosts...)
	quarantineAll(r)
	checkStored(t, r, "DegradedStatic@nominal")

	// DegradedStatic + TierStatic: both active, still one degradation.
	driveDiscoveryOverload(r, 5*time.Second)
	if got := r.Admission.Tier(); got != admit.TierStatic {
		t.Fatalf("tier after sustained overload = %v, want TierStatic", got)
	}
	if !r.Balancer.Brownout.ForceStatic() {
		t.Fatal("TierStatic did not force static fallback on the balancer")
	}
	checkStored(t, r, "DegradedStatic@TierStatic")

	// TierStatic alone: the ladder forces the stored order even when the
	// configured policy would serve an empty answer.
	r2 := newAdmitRegistry(t, admitTestConfig(), core.DegradedEmpty)
	seedWorker(t, r2, hosts...)
	quarantineAll(r2)
	if uris, _, err := r2.QM.GetServiceBindingsByName("Worker"); err != nil || len(uris) != 0 {
		t.Fatalf("DegradedEmpty@nominal: uris = %v (err %v), want empty", uris, err)
	}
	driveDiscoveryOverload(r2, 5*time.Second)
	checkStored(t, r2, "DegradedEmpty@TierStatic")

	// Recovery: TierNominal hands the decision back to the configured
	// policy — empty again.
	calmDiscovery(r2, 200)
	if got := r2.Admission.Tier(); got != admit.TierNominal {
		t.Fatalf("tier after calm = %v, want TierNominal", got)
	}
	if uris, _, err := r2.QM.GetServiceBindingsByName("Worker"); err != nil || len(uris) != 0 {
		t.Fatalf("DegradedEmpty@recovered: uris = %v (err %v), want empty", uris, err)
	}
}

// TestDeadlineChargesQueueWait: a request's budget runs from its arrival,
// so one that waits out its deadline in the admission queue leaves the
// queue then — a REST miss with 503 + Retry-After, a SOAP GetBindings and
// a SOAP write with the Server.Overloaded fault, the write before it
// changes anything — and each counts as a deadline miss of its class. A
// request whose budget is spent by the time it reaches its handler is
// refused there: a REST miss with 504, SOAP with Server.Timeout.
func TestDeadlineChargesQueueWait(t *testing.T) {
	clk := simclock.NewManual(t0)
	// One slot and one queue place per class and a 500 ms deadline, whose
	// 167 ms CoDel interval no queued request here outlives with another
	// behind it.
	limits := admit.ClassLimits{MaxInFlight: 1, MaxQueue: 1, Deadline: 500 * time.Millisecond}
	r, err := New(Config{
		Clock:     clk,
		Policy:    core.PolicyFilter,
		Admission: &admit.Config{Discovery: limits, LCM: limits},
	})
	if err != nil {
		t.Fatal(err)
	}
	seedWorker(t, r, "exergy.sdsu.edu")
	r.Store.NodeState().Upsert(store.NodeState{Host: "exergy.sdsu.edu", Load: 0.2, MemoryB: 4 << 30, Updated: t0})
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	client := srv.Client()
	token := registerAndLogin(t, client, srv.URL, "late")

	// queued holds class's one slot, sends a request that must queue behind
	// it, lets 900ms pass — well past the 500ms budget — waits for the
	// request to be answered, and frees the slot.
	queued := func(class admit.Class, send func()) {
		t.Helper()
		if out, _ := r.Admission.TryAdmit(class, clk.Now()); out != admit.Admitted {
			t.Fatalf("holding the %v slot: %v", class, out)
		}
		held := clk.Now()
		done := make(chan struct{})
		go func() { defer close(done); send() }()
		for i := 0; r.Admission.ClassStats(class).QueueDepth == 0; i++ {
			if i == 5000 {
				t.Fatalf("the %v request never queued", class)
			}
			time.Sleep(time.Millisecond)
		}
		clk.Advance(900 * time.Millisecond)
		<-done
		r.Admission.Release(class, held, clk.Now())
	}
	exceeded := func(class admit.Class, want float64) {
		t.Helper()
		label := map[string]string{"class": class.String()}
		if got, ok := scrapeMetrics(t, srv).Value("registry_admission_deadline_exceeded_total", label); !ok || got != want {
			t.Errorf("registry_admission_deadline_exceeded_total%v = %v (ok=%v), want %v", label, got, ok, want)
		}
	}
	fault := func(what, code string, err error) {
		t.Helper()
		var f *soap.Fault
		if !errors.As(err, &f) || f.Code != code {
			t.Errorf("%s after a spent budget: %v, want a %s fault", what, err, code)
		}
	}

	var status int
	var retryAfter string
	queued(admit.ClassDiscovery, func() {
		resp, err := client.Get(srv.URL + "/registry/bindings?service=Worker")
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		status, retryAfter = resp.StatusCode, resp.Header.Get("Retry-After")
	})
	if status != http.StatusServiceUnavailable || retryAfter == "" {
		t.Errorf("REST miss that waited out its budget: %d, Retry-After %q; want 503 with Retry-After", status, retryAfter)
	}
	exceeded(admit.ClassDiscovery, 1)

	var bindings GetBindingsResponse
	queued(admit.ClassLCM, func() {
		fault("SOAP GetBindings", admit.OverloadedFaultCode, soap.Post(client, srv.URL+"/soap/registry",
			&soapRequest{Bindings: &GetBindingsRequest{ServiceName: "Worker"}}, &bindings))
	})
	exceeded(admit.ClassLCM, 1)

	var ack RegistryResponse
	submit := &soapRequest{Submit: &SubmitObjectsRequest{
		Session: token, Objects: []WireObject{{Kind: "Service", Name: "TooLate"}},
	}}
	queued(admit.ClassLCM, func() {
		fault("SOAP submit", admit.OverloadedFaultCode, soap.Post(client, srv.URL+"/soap/registry", submit, &ack))
	})
	exceeded(admit.ClassLCM, 2)

	// A budget spent before the handler runs — here its request's context
	// is over on arrival, as when a promotion races the deadline — is
	// refused by the handler's first check: nothing is computed or
	// written.
	spent, cancel := context.WithCancel(context.Background())
	cancel()
	serveSpent := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(spent))
		return rec
	}
	if rec := serveSpent(http.MethodGet, "/registry/bindings?service=Worker", nil); rec.Code != http.StatusGatewayTimeout {
		t.Errorf("REST miss with a spent budget: %d, want 504", rec.Code)
	}
	for what, req := range map[string]*soapRequest{
		"SOAP GetBindings": {Bindings: &GetBindingsRequest{ServiceName: "Worker"}},
		"SOAP submit":      submit,
	} {
		env, err := soap.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := serveSpent(http.MethodPost, "/soap/registry", env)
		fault(what, "Server.Timeout", soap.Unmarshal(rec.Body.Bytes(), &ack))
	}
	if found := r.QM.FindObjects(rim.TypeService, "TooLate"); len(found) != 0 {
		t.Fatalf("the refused write landed: %v", found)
	}

	// A budget that runs out after the SOAP dispatcher's check, while the
	// view loads, reaches the handler done: the balancer must not run,
	// whichever key the request names. This comes before the request below,
	// which caches the answer.
	workerID := r.QM.FindObjects(rim.TypeService, "Worker")[0].Base().ID
	for what, req := range map[string]*GetBindingsRequest{
		"GetBindings by id, mid-flight":   {ServiceID: workerID},
		"GetBindings by name, mid-flight": {ServiceName: "Worker"},
	} {
		_, err := r.doBindings(spent, req)
		fault(what, "Server.Timeout", err)
	}

	// Nothing else was refused: the same requests inside their budget pass.
	if body, _ := getBindings(t, srv, "Worker"); !strings.Contains(body, "exergy") {
		t.Fatalf("bindings inside the budget = %q", body)
	}
	exceeded(admit.ClassDiscovery, 1)
}

// stubInvoker answers NodeStatus probes instantly with a fixed healthy
// sample, so the live collector keeps rewriting rows while the HTTP edge
// is under fire.
type stubInvoker struct{ clock simclock.Clock }

func (s stubInvoker) Invoke(accessURI string) (nodestatus.Response, error) {
	return nodestatus.Response{
		Host: rim.HostOfURI(accessURI), Load: 0.2, MemoryB: 4 << 30, SwapB: 1 << 30,
		Timestamp: s.clock.Now().UTC().Format(time.RFC3339Nano),
	}, nil
}

// TestOverloadHTTPWithLiveCollector floods a tiny admission edge with
// concurrent discovery requests over real HTTP while the collector
// rewrites NodeState rows underneath it and the clock ticks sweeps along.
// Under -race this is the whole-edge interleaving check; functionally it
// asserts the contract: some requests are served, the overflow is shed
// with 503 + Retry-After, and the always-admit operator surface keeps
// answering throughout.
func TestOverloadHTTPWithLiveCollector(t *testing.T) {
	clk := simclock.NewManual(t0)
	adm := admitTestConfig()
	// Wide deadlines: the clock only advances ~6 simulated seconds below,
	// so budgets never expire, queued or mid-request, CoDel's 10 s
	// interval never passes, and the test exercises pure capacity
	// shedding.
	adm.Discovery = admit.ClassLimits{MaxInFlight: 2, MaxQueue: 2, Deadline: 30 * time.Second}
	r, err := New(Config{
		Clock:            clk,
		Policy:           core.PolicyFilter,
		CollectionPeriod: 50 * time.Millisecond,
		Invoker:          stubInvoker{clock: clk},
		Admission:        &adm,
	})
	if err != nil {
		t.Fatal(err)
	}

	// NodeStatus bindings give the collector real targets; the Worker
	// service gives discovery something to decide about.
	ns := rim.NewService(nodestatus.ServiceName, "status probes")
	for _, h := range []string{"exergy.sdsu.edu", "thermo.sdsu.edu"} {
		ns.AddBinding("http://" + h + ":8080/NodeStatus/NodeStatusService")
	}
	if err := r.LCM.SubmitObjects(r.AdminContext(), ns); err != nil {
		t.Fatal(err)
	}
	seedWorker(t, r, "exergy.sdsu.edu", "thermo.sdsu.edu")

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	client := srv.Client()

	ctx, cancel := context.WithCancel(context.Background())
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { defer bg.Done(); r.RunCollector(ctx) }()
	// Tick simulated time so collector sweeps keep firing during the
	// burst; 100 × 60ms stays far under every deadline.
	go func() {
		defer bg.Done()
		for i := 0; i < 100; i++ {
			if ctx.Err() != nil {
				return
			}
			clk.Advance(60 * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}()

	// Pin both in-flight slots so the burst actually contends: the first
	// two HTTP arrivals queue, everything else must shed. The handlers
	// themselves answer in microseconds, far too fast to fill a queue of
	// two from 40 clients without this.
	pinNow := clk.Now()
	for i := 0; i < adm.Discovery.MaxInFlight; i++ {
		if out, _ := r.Admission.TryAdmit(admit.ClassDiscovery, pinNow); out != admit.Admitted {
			t.Fatalf("pinning slot %d: outcome %v", i, out)
		}
	}

	const clients = 40
	statuses := make([]int, clients)
	retryAfter := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Get(srv.URL + "/registry/bindings?service=Worker")
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}

	// Once the overflow has been shed and the queue is full, release the
	// pinned slots: the queued requests are promoted and served, and the
	// system drains.
	for i := 0; i < 5000; i++ {
		st := r.Admission.ClassStats(admit.ClassDiscovery)
		if st.Shed >= int64(clients-adm.Discovery.MaxQueue) && st.QueueDepth == adm.Discovery.MaxQueue {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < adm.Discovery.MaxInFlight; i++ {
		r.Admission.Release(admit.ClassDiscovery, pinNow, clk.Now())
	}
	wg.Wait()

	// The operator surface must answer while the edge sheds.
	mresp, err := client.Get(srv.URL + "/registry/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/registry/metrics = %d under overload, want 200", mresp.StatusCode)
	}
	if !strings.Contains(string(body), "registry_admission_shed_total") {
		t.Fatal("/registry/metrics missing registry_admission_shed_total")
	}

	cancel()
	bg.Wait()

	var served, shed int
	for i, s := range statuses {
		switch s {
		case http.StatusOK:
			served++
		case http.StatusServiceUnavailable:
			shed++
			if retryAfter[i] == "" {
				t.Errorf("client %d: 503 without Retry-After", i)
			}
		case 0:
			// transport error already reported above
		default:
			t.Errorf("client %d: unexpected status %d", i, s)
		}
	}
	if served == 0 {
		t.Fatal("overload burst: nothing was served")
	}
	if shed == 0 {
		t.Fatal("overload burst: nothing was shed (limits not enforced?)")
	}
	st := r.Admission.ClassStats(admit.ClassDiscovery)
	if st.Shed == 0 {
		t.Fatalf("controller stats after burst = %+v, want Shed > 0", st)
	}
	t.Logf("burst: served=%d shed=%d stats=%+v", served, shed, st)
}
