package admit

import (
	"bytes"
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
		Discovery:        ClassLimits{MaxInFlight: 2, MaxQueue: 8, Deadline: 250 * time.Millisecond},
		LCM:              ClassLimits{MaxInFlight: 1, MaxQueue: 1, Deadline: time.Second},
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
	cfg := testConfig()
	cfg.Discovery.MaxQueue = 2
	c := NewController(cfg, clk, nil)
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
	case <-t1.ready:
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
	if c.CancelQueued(tk) {
		t.Fatal("cancel after promotion reported success")
	}

	_, tk2 := c.TryAdmit(ClassDiscovery, now)
	if !c.CancelQueued(tk2) {
		t.Fatal("cancel of a queued ticket failed")
	}
	if p := c.Release(ClassDiscovery, now, now); p != nil {
		t.Fatalf("release promoted a canceled ticket: %v", p)
	}
	if st := c.ClassStats(ClassDiscovery); st.QueueDepth != 0 || st.InFlight != 1 {
		t.Fatalf("stats = %+v, want an empty queue and 1 in flight", st)
	}
}

// TestCoDelControlLaw drives one class's queue on a manual clock. The
// class has one slot and a 300 ms deadline, so CoDel's interval is
// 100 ms and its target 10 ms. Every ticket queues at the start, except
// those a step adds later, and each step frees the slot once at its
// offset: the step's want is how many heads CoDel drops before the slot
// goes to the next ticket, and whether the class is then dropping.
func TestCoDelControlLaw(t *testing.T) {
	type step struct {
		at       time.Duration // when the slot frees
		arrive   int           // tickets that queue at `at`, before the slot frees
		drops    int
		dropping bool
	}
	for _, tc := range []struct {
		name   string
		queued int
		steps  []step
	}{
		{"(a) sojourn below the target never sheds", 6, []step{
			{at: 5 * time.Millisecond},
			{at: 9 * time.Millisecond},
			{at: 9*time.Millisecond + 999*time.Microsecond},
		}},
		{"(a) the last ticket is never dropped", 1, []step{
			{at: 20 * time.Millisecond},
			{at: 500 * time.Millisecond, arrive: 1},
			{at: time.Second, arrive: 1},
		}},
		{"(b) above the target for less than an interval never sheds", 8, []step{
			{at: 20 * time.Millisecond},
			{at: 60 * time.Millisecond},
			{at: 119 * time.Millisecond},
		}},
		{"(c) a whole interval above the target drops the head, then interval/sqrt(count) apart", 20, []step{
			{at: 20 * time.Millisecond},                            // above target: the interval starts
			{at: 120 * time.Millisecond, drops: 1, dropping: true}, // a whole interval: drop, next at 220
			{at: 219 * time.Millisecond, dropping: true},
			{at: 220 * time.Millisecond, drops: 1, dropping: true}, // count 2: next at 220+70.7
			{at: 290 * time.Millisecond, dropping: true},
			{at: 291 * time.Millisecond, drops: 1, dropping: true}, // count 3: next at 290.7+57.7
			{at: 348 * time.Millisecond, dropping: true},
			{at: 349 * time.Millisecond, drops: 1, dropping: true}, // count 4: next at 348.4+50
			{at: 500 * time.Millisecond, drops: 3, dropping: true}, // 398.4, 443.1, 483.9 all due
		}},
		{"(d) one dequeue below the target leaves the dropping state", 3, []step{
			{at: 20 * time.Millisecond},
			{at: 120 * time.Millisecond, drops: 1, dropping: true},
			{at: 125 * time.Millisecond, arrive: 2},
			{at: 130 * time.Millisecond},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := simclock.NewManual(testEpoch)
			c := NewController(Config{Discovery: ClassLimits{MaxInFlight: 1, MaxQueue: 64, Deadline: 300 * time.Millisecond}}, clk, nil)
			start := clk.Now()
			if out, _ := c.TryAdmit(ClassDiscovery, start); out != Admitted {
				t.Fatalf("the first arrival got %v", out)
			}
			var queue []*Ticket
			arrive := func(n int, at time.Time) {
				for i := 0; i < n; i++ {
					out, tk := c.TryAdmit(ClassDiscovery, at)
					if out != Queued {
						t.Fatalf("arrival at %v got %v", at.Sub(start), out)
					}
					queue = append(queue, tk)
				}
			}
			arrive(tc.queued, start)
			shed := int64(0)
			for _, st := range tc.steps {
				now := start.Add(st.at)
				arrive(st.arrive, now)
				p := c.Release(ClassDiscovery, start, now)
				// The heads leave in order: the first st.drops were dropped, the
				// one after them holds the slot now.
				if len(queue) <= st.drops || p != queue[st.drops] {
					t.Fatalf("at %v: the slot went to %p, want the head after %d drops", st.at, p, st.drops)
				}
				for _, d := range queue[:st.drops] {
					if d.state != ticketDropped {
						t.Fatalf("at %v: a head ahead of the promoted one was not dropped", st.at)
					}
				}
				queue = queue[st.drops+1:]
				shed += int64(st.drops)
				got := c.ClassStats(ClassDiscovery)
				if got.Shed != shed || got.Dropping != st.dropping {
					t.Fatalf("at %v: shed %d, dropping %v; want %d, %v", st.at, got.Shed, got.Dropping, shed, st.dropping)
				}
			}
		})
	}
}

// driveOverload holds every discovery slot busy for d of simulated time
// while arrivals outpace completions three to one: every 10 ms three
// requests arrive and one slot frees, so the queue stands full and the
// head's sojourn stays far above the target. The crowd then disperses:
// the queued requests are served and the slots freed.
func driveOverload(c *Controller, clk *simclock.Manual, d time.Duration) {
	class := ClassDiscovery
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

// calm runs fast, sparse requests for rounds × 200 ms: nothing queues.
func calm(c *Controller, clk *simclock.Manual, rounds int) {
	for i := 0; i < rounds; i++ {
		now := clk.Now()
		if out, _ := c.TryAdmit(ClassDiscovery, now); out == Admitted {
			c.Release(ClassDiscovery, now, now.Add(time.Millisecond))
		}
		clk.Advance(200 * time.Millisecond)
	}
}

func TestBrownoutLadderEscalatesAndRecovers(t *testing.T) {
	clk := simclock.NewManual(testEpoch)
	c := NewController(testConfig(), clk, nil)

	driveOverload(c, clk, 5*time.Second)
	peak := c.Tier()
	if peak != TierStatic {
		t.Fatalf("tier after sustained overload = %v, want TierStatic", peak)
	}
	if got := c.TierChanges(); got != int64(peak) {
		t.Fatalf("TierChanges after the climb = %d, want one per rung to %v", got, peak)
	}
	if !c.ForceStatic() {
		t.Fatalf("force static at %v = false", peak)
	}
	calm(c, clk, 200)
	if got := c.Tier(); got != TierNominal {
		t.Fatalf("tier after calm = %v, want TierNominal", got)
	}
	if got := c.TierChanges(); got != 2*int64(peak) {
		t.Fatalf("TierChanges after the descent = %d, want one per rung up and down", got)
	}
	if c.ForceStatic() {
		t.Fatalf("force static at %v = true, want false", c.Tier())
	}
}

// TestBrownoutLadderIgnoresArrivalSheds: a full queue that drains fast
// sheds arrivals without CoDel ever dropping, and that is not pressure
// the ladder climbs on.
func TestBrownoutLadderIgnoresArrivalSheds(t *testing.T) {
	clk := simclock.NewManual(testEpoch)
	cfg := testConfig()
	cfg.Discovery.MaxQueue = 1
	c := NewController(cfg, clk, nil)
	for i := 0; i < cfg.Discovery.MaxInFlight; i++ {
		c.TryAdmit(ClassDiscovery, clk.Now())
	}
	for i := 0; i < 500; i++ {
		now := clk.Now()
		for j := 0; j < 3; j++ {
			c.TryAdmit(ClassDiscovery, now)
		}
		c.Release(ClassDiscovery, now, now.Add(time.Millisecond))
		clk.Advance(time.Millisecond)
	}
	st := c.ClassStats(ClassDiscovery)
	if st.Shed == 0 || st.Dropping {
		t.Fatalf("stats = %+v, want arrival sheds and no dropping", st)
	}
	if got := c.Tier(); got != TierNominal {
		t.Fatalf("tier after 500 ms of arrival sheds = %v, want TierNominal", got)
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

// headDropAndShed serves, through Wrap with the given reject format, one
// request CoDel drops at the head of the queue and one shed on arrival at
// the full queue, and returns both answers. The class has one slot, held
// out of band, three queue places and a 3 s deadline: a 1 s interval and
// a 100 ms target.
func headDropAndShed(t *testing.T, format RejectFormat) (dropped, shed *httptest.ResponseRecorder, c *Controller) {
	t.Helper()
	clk := simclock.NewManual(testEpoch)
	cfg := testConfig()
	cfg.Discovery = ClassLimits{MaxInFlight: 1, MaxQueue: 3, Deadline: 3 * time.Second}
	c = NewController(cfg, clk, nil)
	held := clk.Now()
	c.TryAdmit(ClassDiscovery, held)

	finish := make(chan struct{}, 3)
	h := c.Wrap(ClassDiscovery, format, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-finish
		w.WriteHeader(http.StatusOK)
	}))
	var recs [3]*httptest.ResponseRecorder
	done := make(chan struct{}, 3)
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		go func(rec *httptest.ResponseRecorder) {
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/registry", strings.NewReader("<x/>")))
			done <- struct{}{}
		}(recs[i])
		waitFor(t, func() bool { return c.ClassStats(ClassDiscovery).QueueDepth == i+1 })
	}
	shed = httptest.NewRecorder()
	h.ServeHTTP(shed, httptest.NewRequest(http.MethodPost, "/registry", strings.NewReader("<x/>")))

	// 200 ms on, the held slot frees: the head has waited above the target
	// and the interval starts; it is served and holds the slot. An
	// interval later it finishes, and CoDel drops the next head and hands
	// the slot to the last one.
	clk.Advance(200 * time.Millisecond)
	c.Release(ClassDiscovery, held, clk.Now())
	clk.Advance(time.Second)
	finish <- struct{}{}
	<-done
	<-done
	finish <- struct{}{}
	<-done
	for i, want := range []int{http.StatusOK, http.StatusServiceUnavailable, http.StatusOK} {
		if recs[i].Code != want {
			t.Fatalf("queued request %d: status %d, want %d", i, recs[i].Code, want)
		}
	}
	if st := c.ClassStats(ClassDiscovery); st.Shed != 2 || st.Admitted != 3 {
		t.Fatalf("stats = %+v, want 2 shed and 3 admitted", st)
	}
	return recs[1], shed, c
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i == 5000 {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// sameAnswer checks that two rejected requests got byte-identical
// responses.
func sameAnswer(t *testing.T, a, b *httptest.ResponseRecorder) {
	t.Helper()
	if a.Code != b.Code || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) ||
		a.Header().Get("Retry-After") != b.Header().Get("Retry-After") ||
		a.Header().Get("Content-Type") != b.Header().Get("Content-Type") {
		t.Fatalf("a head drop answered %d %q %v, a shed on arrival %d %q %v",
			a.Code, a.Body.Bytes(), a.Header(), b.Code, b.Body.Bytes(), b.Header())
	}
}

func TestWrapShedsWith503RetryAfter(t *testing.T) {
	clk := simclock.NewManual(testEpoch)
	cfg := testConfig()
	cfg.Discovery = ClassLimits{MaxInFlight: 1, MaxQueue: -1, Deadline: time.Second}
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

	// (e) A head CoDel drops gets the very bytes of a shed on arrival.
	dropped, shed, _ := headDropAndShed(t, RejectJSON)
	sameAnswer(t, dropped, shed)
	sameAnswer(t, shed, rec)
}

func TestWrapSOAPRejectIsTypedFault(t *testing.T) {
	clk := simclock.NewManual(testEpoch)
	cfg := testConfig()
	cfg.Discovery = ClassLimits{MaxInFlight: 1, MaxQueue: -1, Deadline: time.Second}
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

	// (e) A head CoDel drops gets the same typed fault, byte for byte.
	dropped, shed, _ := headDropAndShed(t, RejectSOAP)
	sameAnswer(t, dropped, shed)
	sameAnswer(t, shed, rec)
}

// TestQueuedRequestLeavesAtItsDeadline: with every slot hung, a queued
// request waits no longer than its deadline, counted from arrival — the
// class's, or a tighter one from DeadlineHeader — and then gets the shed
// answer and counts as a deadline miss.
func TestQueuedRequestLeavesAtItsDeadline(t *testing.T) {
	clk := simclock.NewManual(testEpoch)
	cfg := testConfig()
	cfg.Discovery = ClassLimits{MaxInFlight: 1, MaxQueue: 2, Deadline: 250 * time.Millisecond}
	c := NewController(cfg, clk, nil)
	hang := make(chan struct{})
	h := c.Wrap(ClassDiscovery, RejectJSON, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-hang
	}))
	serve := func(header string) chan *httptest.ResponseRecorder {
		out := make(chan *httptest.ResponseRecorder, 1)
		req := httptest.NewRequest(http.MethodGet, "/registry/bindings", nil)
		if header != "" {
			req.Header.Set(DeadlineHeader, header)
		}
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			out <- rec
		}()
		return out
	}
	running := serve("")
	waitFor(t, func() bool { return c.ClassStats(ClassDiscovery).InFlight == 1 })
	timers := clk.PendingWaiters()
	classDeadline := serve("")
	tightened := serve("100")
	waitFor(t, func() bool { return clk.PendingWaiters() == timers+2 })

	clk.Advance(100 * time.Millisecond)
	rec := <-tightened
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("request with a 100 ms deadline: status %d, Retry-After %q; want 503, 1", rec.Code, rec.Header().Get("Retry-After"))
	}
	if st := c.ClassStats(ClassDiscovery); st.QueueDepth != 1 || st.DeadlineExceeded != 1 {
		t.Fatalf("at 100 ms: stats = %+v, want the class-deadline request still queued and 1 deadline miss", st)
	}
	clk.Advance(150 * time.Millisecond)
	if rec := <-classDeadline; rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request with the class deadline: status %d at 250 ms, want 503", rec.Code)
	}
	st := c.ClassStats(ClassDiscovery)
	if st.QueueDepth != 0 || st.DeadlineExceeded != 2 || st.Shed != 0 || st.InFlight != 1 {
		t.Fatalf("at 250 ms: stats = %+v, want an empty queue, 2 deadline misses, no shed, the hung request in flight", st)
	}
	close(hang)
	<-running
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
