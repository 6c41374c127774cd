package admit

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/integration/leakcheck"
	"repro/internal/simclock"
	"repro/internal/soap"
)

var testEpoch = time.Date(2011, 4, 22, 11, 0, 0, 0, time.UTC)

func testConfig() Config {
	return Config{
		Discovery:        ClassLimits{MaxInFlight: 2, MaxQueue: 2, QueueTimeout: 100 * time.Millisecond, Deadline: 250 * time.Millisecond},
		LCM:              ClassLimits{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: 100 * time.Millisecond, Deadline: time.Second},
		Tick:             100 * time.Millisecond,
		MinAccept:        0.05,
		RetryAfter:       time.Second,
		BrownoutEscalate: 300 * time.Millisecond,
		BrownoutCalm:     500 * time.Millisecond,
	}
}

func TestAdmitUnderCapacity(t *testing.T) {
	clk := simclock.NewManual(testEpoch)
	c := NewController(testConfig(), clk, nil)
	now := clk.Now()
	for i := 0; i < 2; i++ {
		out, tk := c.TryAdmit(ClassDiscovery, now)
		if out != Admitted || tk != nil {
			t.Fatalf("arrival %d: got (%v, %v), want (Admitted, nil)", i, out, tk)
		}
	}
	st := c.ClassStats(ClassDiscovery)
	if st.InFlight != 2 || st.Admitted != 2 {
		t.Fatalf("stats = %+v, want 2 in flight / 2 admitted", st)
	}
	c.Release(ClassDiscovery, now, now.Add(time.Millisecond))
	if got := c.ClassStats(ClassDiscovery).InFlight; got != 1 {
		t.Fatalf("in flight after release = %d, want 1", got)
	}
}

func TestQueueFIFOPromotion(t *testing.T) {
	clk := simclock.NewManual(testEpoch)
	c := NewController(testConfig(), clk, nil)
	now := clk.Now()
	c.TryAdmit(ClassDiscovery, now)
	c.TryAdmit(ClassDiscovery, now)

	out1, t1 := c.TryAdmit(ClassDiscovery, now)
	out2, t2 := c.TryAdmit(ClassDiscovery, now)
	if out1 != Queued || out2 != Queued {
		t.Fatalf("saturated arrivals got %v/%v, want Queued/Queued", out1, out2)
	}
	// Queue is now full: the next saturated arrival sheds.
	if out, _ := c.TryAdmit(ClassDiscovery, now); out != Shed {
		t.Fatalf("queue-full arrival got %v, want Shed", out)
	}

	p := c.Release(ClassDiscovery, now, now.Add(time.Millisecond))
	if p != t1 {
		t.Fatalf("promoted %v, want the first queued ticket", p)
	}
	select {
	case <-t1.Ready():
	default:
		t.Fatal("promoted ticket's Ready channel is not closed")
	}
	if p := c.Release(ClassDiscovery, t1.Arrived(), now.Add(2*time.Millisecond)); p != t2 {
		t.Fatalf("second promotion = %v, want the second queued ticket", p)
	}
	if st := c.ClassStats(ClassDiscovery); st.InFlight != 2 || st.QueueDepth != 0 {
		t.Fatalf("stats = %+v, want 2 in flight / empty queue", st)
	}
}

func TestCancelQueuedVsPromotionRace(t *testing.T) {
	clk := simclock.NewManual(testEpoch)
	c := NewController(testConfig(), clk, nil)
	now := clk.Now()
	c.TryAdmit(ClassDiscovery, now)
	c.TryAdmit(ClassDiscovery, now)
	_, tk := c.TryAdmit(ClassDiscovery, now)

	// Promote first; the late cancel must lose.
	if p := c.Release(ClassDiscovery, now, now); p != tk {
		t.Fatalf("promoted %v, want %v", p, tk)
	}
	if c.CancelQueued(tk, now, true) {
		t.Fatal("cancel after promotion reported success")
	}

	_, tk2 := c.TryAdmit(ClassDiscovery, now)
	if !c.CancelQueued(tk2, now, true) {
		t.Fatal("cancel of a queued ticket failed")
	}
	if p := c.Release(ClassDiscovery, now, now); p != nil {
		t.Fatalf("release promoted a canceled ticket: %v", p)
	}
	st := c.ClassStats(ClassDiscovery)
	if st.QueueTimeouts != 1 {
		t.Fatalf("queue timeouts = %d, want 1", st.QueueTimeouts)
	}
}

// driveOverload pins every discovery slot busy for d of simulated time
// while arrivals keep pounding the saturated class: queued tickets time
// out, completions report latencies far above target, and the AIMD
// controller ticks along the way. The slots are drained at the end so
// callers can model the crowd dispersing.
func driveOverload(c *Controller, clk *simclock.Manual, d time.Duration) {
	now := clk.Now()
	max := c.Limits(ClassDiscovery).MaxInFlight
	for i := 0; i < max; i++ {
		c.TryAdmit(ClassDiscovery, now)
	}
	step := 50 * time.Millisecond
	for elapsed := time.Duration(0); elapsed < d; elapsed += step {
		now = clk.Now()
		if out, tk := c.TryAdmit(ClassDiscovery, now); out == Queued {
			c.CancelQueued(tk, now, true) // queue casualty: timeout pressure
		}
		// One slow completion per step keeps latency samples flowing;
		// re-occupy the slot immediately to stay saturated.
		if p := c.Release(ClassDiscovery, now.Add(-2*time.Second), now); p == nil {
			c.TryAdmit(ClassDiscovery, now)
		}
		clk.Advance(step)
	}
	now = clk.Now()
	for i := 0; i < max; i++ {
		c.Release(ClassDiscovery, now, now)
	}
}

func TestAIMDShedsUnderOverloadAndRecovers(t *testing.T) {
	clk := simclock.NewManual(testEpoch)
	c := NewController(testConfig(), clk, nil)
	driveOverload(c, clk, 2*time.Second)
	st := c.ClassStats(ClassDiscovery)
	if st.AcceptRate > 0.1 {
		t.Fatalf("accept rate after sustained overload = %v, want <= 0.1", st.AcceptRate)
	}
	if st.Shed == 0 {
		t.Fatal("sustained overload shed nothing")
	}

	// Calm: fast completions, low arrival rate. The additive increase
	// must walk the accept rate back to 1.
	for i := 0; i < 60; i++ {
		now := clk.Now()
		if out, _ := c.TryAdmit(ClassDiscovery, now); out == Admitted {
			c.Release(ClassDiscovery, now, now.Add(time.Millisecond))
		}
		clk.Advance(200 * time.Millisecond)
	}
	if got := c.ClassStats(ClassDiscovery).AcceptRate; got != 1 {
		t.Fatalf("accept rate after calm = %v, want 1", got)
	}
}

func TestBrownoutLadderEscalatesAndRecovers(t *testing.T) {
	clk := simclock.NewManual(testEpoch)
	c := NewController(testConfig(), clk, nil)

	driveOverload(c, clk, 5*time.Second)
	peak := c.Tier()
	if peak < TierStale {
		t.Fatalf("tier after sustained overload = %v, want >= TierStale", peak)
	}
	if got := c.TierChanges(); got != int64(peak) {
		t.Fatalf("TierChanges after the climb = %d, want one per rung to %v", got, peak)
	}
	if got, want := c.ExtraStaleness(), DefaultConfig().BrownoutStaleness; got != want {
		t.Fatalf("extra staleness at %v = %v, want %v", peak, got, want)
	}
	if got := c.ForceStatic(); got != (peak == TierStatic) {
		t.Fatalf("force static at %v = %v", peak, got)
	}
	for i := 0; i < 200; i++ {
		now := clk.Now()
		if out, _ := c.TryAdmit(ClassDiscovery, now); out == Admitted {
			c.Release(ClassDiscovery, now, now.Add(time.Millisecond))
		}
		clk.Advance(200 * time.Millisecond)
	}
	if got := c.Tier(); got != TierNominal {
		t.Fatalf("tier after calm = %v, want TierNominal", got)
	}
	if got := c.TierChanges(); got != 2*int64(peak) {
		t.Fatalf("TierChanges after the descent = %d, want one per rung up and down", got)
	}
	if c.ExtraStaleness() != 0 || c.ForceStatic() {
		t.Fatalf("overrides at %v: staleness %v, static %v; want none", c.Tier(), c.ExtraStaleness(), c.ForceStatic())
	}
}

func TestDeadlineHonorsClientHeader(t *testing.T) {
	clk := simclock.NewManual(testEpoch)
	c := NewController(testConfig(), clk, nil)
	if d := c.Deadline(ClassDiscovery, ""); d != 250*time.Millisecond {
		t.Fatalf("default deadline = %v, want 250ms", d)
	}
	if d := c.Deadline(ClassDiscovery, "100"); d != 100*time.Millisecond {
		t.Fatalf("client-tightened deadline = %v, want 100ms", d)
	}
	if d := c.Deadline(ClassDiscovery, "5000"); d != 250*time.Millisecond {
		t.Fatalf("client-loosened deadline = %v, want the 250ms class cap", d)
	}
	if d := c.Deadline(ClassDiscovery, "junk"); d != 250*time.Millisecond {
		t.Fatalf("unparseable header changed the deadline to %v", d)
	}
}

// TestWithBudgetExpiresOnManualClock: a Done armed before the deadline
// closes when the clock reaches it.
func TestWithBudgetExpiresOnManualClock(t *testing.T) {
	defer leakcheck.Check(t)()
	clk := simclock.NewManual(testEpoch)
	c := NewController(testConfig(), clk, nil)
	ctx, cancel, exceeded := c.WithBudget(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := ctx.Done()
	if exceeded() {
		t.Fatal("budget exceeded before any time passed")
	}
	clk.Advance(150 * time.Millisecond)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("context not cancelled after the budget elapsed")
	}
	if !exceeded() || ctx.Err() != context.DeadlineExceeded {
		t.Fatalf("after expiry: exceeded %v, Err %v", exceeded(), ctx.Err())
	}
}

// TestWithBudgetHelperExitsOnCancel finishes the work inside its budget
// after somebody armed Done: cancelling alone must close Done and end the
// goroutine that watches the clock, which may never reach the deadline.
func TestWithBudgetHelperExitsOnCancel(t *testing.T) {
	defer leakcheck.Check(t)()
	c := NewController(testConfig(), simclock.NewManual(testEpoch), nil)
	ctx, cancel, exceeded := c.WithBudget(context.Background(), 100*time.Millisecond)
	done := ctx.Done()
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Done not closed by cancel")
	}
	if exceeded() || ctx.Err() != context.Canceled {
		t.Fatalf("cancelled inside the budget: exceeded %v, Err %v", exceeded(), ctx.Err())
	}
}

// TestBudgetErrAtDeadlineWithoutDone: a budget nobody asks for Done is a
// value. Err turns DeadlineExceeded the instant the clock reaches the
// deadline, the first error sticks past cancel, and no timer is registered
// and no goroutine started for it.
func TestBudgetErrAtDeadlineWithoutDone(t *testing.T) {
	defer leakcheck.Check(t)()
	clk := simclock.NewManual(testEpoch)
	c := NewController(testConfig(), clk, nil)
	ctx, cancel, exceeded := c.WithBudget(context.Background(), 100*time.Millisecond)
	clk.Advance(100*time.Millisecond - time.Nanosecond)
	if err := ctx.Err(); err != nil || exceeded() {
		t.Fatalf("a nanosecond before the deadline: Err %v, exceeded %v", err, exceeded())
	}
	clk.Advance(time.Nanosecond)
	if err := ctx.Err(); err != context.DeadlineExceeded || !exceeded() {
		t.Fatalf("at the deadline: Err %v, exceeded %v; want DeadlineExceeded", err, exceeded())
	}
	cancel()
	if err := ctx.Err(); err != context.DeadlineExceeded || !exceeded() {
		t.Fatalf("after cancel: Err %v, exceeded %v; want the deadline to stick", err, exceeded())
	}
	if n := clk.PendingWaiters(); n != 0 {
		t.Fatalf("%d timers on the clock, want none", n)
	}
}

// TestBudgetDoneAfterDeadlineIsClosed: Done first called once the deadline
// has passed returns a channel already closed, on the wall clock and on a
// manual one, and arms nothing.
func TestBudgetDoneAfterDeadlineIsClosed(t *testing.T) {
	defer leakcheck.Check(t)()
	manual := simclock.NewManual(testEpoch)
	for _, tc := range []struct {
		name  string
		clock simclock.Clock
		pass  func(time.Duration)
	}{
		{"manual", manual, manual.Advance},
		{"real", simclock.Real{}, simclock.Real{}.Sleep},
	} {
		c := NewController(testConfig(), tc.clock, nil)
		ctx, cancel, exceeded := c.WithBudget(context.Background(), time.Millisecond)
		tc.pass(2 * time.Millisecond)
		select {
		case <-ctx.Done():
		default:
			t.Errorf("%s: Done after the deadline is not closed", tc.name)
		}
		if ctx.Err() != context.DeadlineExceeded || !exceeded() {
			t.Errorf("%s: Err %v, exceeded %v; want DeadlineExceeded", tc.name, ctx.Err(), exceeded())
		}
		cancel()
	}
	if n := manual.PendingWaiters(); n != 0 {
		t.Fatalf("%d timers on the manual clock, want none", n)
	}
}

// TestBudgetSurfacesCancelledParent: a client that goes away ends the
// budget through both Err and Done, whether Done was armed before it left
// or is first called after, and that is not a deadline miss.
func TestBudgetSurfacesCancelledParent(t *testing.T) {
	defer leakcheck.Check(t)()
	c := NewController(testConfig(), simclock.NewManual(testEpoch), nil)
	for _, armed := range []bool{false, true} {
		parent, leave := context.WithCancel(context.Background())
		ctx, cancel, exceeded := c.WithBudget(parent, time.Second)
		if armed {
			ctx.Done()
		}
		leave()
		if err := ctx.Err(); err != context.Canceled {
			t.Errorf("armed=%v: Err after the client left = %v, want Canceled", armed, err)
		}
		select {
		case <-ctx.Done():
		case <-time.After(2 * time.Second):
			t.Errorf("armed=%v: Done not closed after the client left", armed)
		}
		if exceeded() {
			t.Errorf("armed=%v: a client leaving counted as a deadline miss", armed)
		}
		cancel()
	}
}

func TestWrapShedsWith503RetryAfter(t *testing.T) {
	clk := simclock.NewManual(testEpoch)
	cfg := testConfig()
	cfg.Discovery = ClassLimits{MaxInFlight: 1, MaxQueue: -1, QueueTimeout: time.Millisecond, Deadline: time.Second}
	c := NewController(cfg, clk, nil)

	release := make(chan struct{})
	started := make(chan struct{})
	h := c.Wrap(ClassDiscovery, RejectJSON, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		w.WriteHeader(http.StatusOK)
	}))

	// Occupy the only slot.
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/registry/bindings", nil))
		first <- rec
	}()
	<-started

	// Zero queue capacity: the second request sheds immediately.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/registry/bindings", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	if body := rec.Body.String(); !strings.Contains(body, `"overloaded"`) {
		t.Fatalf("shed body = %q, want the preserialized JSON document", body)
	}

	close(release)
	if rec := <-first; rec.Code != http.StatusOK {
		t.Fatalf("admitted request status = %d, want 200", rec.Code)
	}
	st := c.ClassStats(ClassDiscovery)
	if st.Admitted != 1 || st.Shed != 1 {
		t.Fatalf("stats = %+v, want 1 admitted / 1 shed", st)
	}
}

func TestWrapSOAPRejectIsTypedFault(t *testing.T) {
	clk := simclock.NewManual(testEpoch)
	cfg := testConfig()
	cfg.Discovery = ClassLimits{MaxInFlight: 1, MaxQueue: -1, QueueTimeout: time.Millisecond, Deadline: time.Second}
	c := NewController(cfg, clk, nil)
	now := clk.Now()
	c.TryAdmit(ClassDiscovery, now) // occupy the slot out of band

	h := c.Wrap(ClassDiscovery, RejectSOAP, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Fatal("handler ran for a shed request")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/soap/registry", strings.NewReader("<x/>")))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	err := soap.Unmarshal(rec.Body.Bytes(), nil)
	f, ok := err.(*soap.Fault)
	if !ok {
		t.Fatalf("body did not decode to a fault: %v", err)
	}
	if f.Code != OverloadedFaultCode {
		t.Fatalf("faultcode = %q, want %q", f.Code, OverloadedFaultCode)
	}
}

func TestWrapNilControllerPassesThrough(t *testing.T) {
	var c *Controller
	h := c.Wrap(ClassDiscovery, RejectJSON, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "ok" {
		t.Fatalf("nil controller altered the response: %d %q", rec.Code, rec.Body.String())
	}
}

func TestWrapEnforcesDeadline(t *testing.T) {
	clk := simclock.NewManual(testEpoch)
	cfg := testConfig()
	c := NewController(cfg, clk, nil)
	blocked := make(chan struct{})
	h := c.Wrap(ClassDiscovery, RejectJSON, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(blocked)
		<-r.Context().Done()
		w.WriteHeader(http.StatusGatewayTimeout)
	}))
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/registry/bindings", nil))
		done <- rec
	}()
	<-blocked
	clk.Advance(time.Second) // past the 250ms class deadline
	rec := <-done
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want the handler's 504", rec.Code)
	}
	if got := c.ClassStats(ClassDiscovery).DeadlineExceeded; got != 1 {
		t.Fatalf("deadline-exceeded count = %d, want 1", got)
	}
}

// TestWrapDeadlineWithoutTimer: a handler that only checks Err — every
// service route — gets its deadline from the clock alone. Nothing is
// registered on the clock while it runs, and the miss is counted.
func TestWrapDeadlineWithoutTimer(t *testing.T) {
	defer leakcheck.Check(t)()
	clk := simclock.NewManual(testEpoch)
	c := NewController(testConfig(), clk, nil)
	timers := clk.PendingWaiters()
	var inside, past error
	var armed int
	h := c.Wrap(ClassDiscovery, RejectJSON, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inside = r.Context().Err()
		clk.Advance(250 * time.Millisecond) // the class deadline
		past = r.Context().Err()
		armed = clk.PendingWaiters() - timers
		w.WriteHeader(http.StatusGatewayTimeout)
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/registry/bindings", nil))
	if inside != nil || past != context.DeadlineExceeded {
		t.Fatalf("Err inside the budget %v, at its deadline %v; want nil, DeadlineExceeded", inside, past)
	}
	if armed != 0 {
		t.Fatalf("the request registered %d timers on the clock, want none", armed)
	}
	if got := c.ClassStats(ClassDiscovery).DeadlineExceeded; got != 1 {
		t.Fatalf("deadline-exceeded count = %d, want 1", got)
	}
}
