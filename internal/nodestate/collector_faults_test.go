package nodestate

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/faults"
	"repro/internal/integration/leakcheck"
	"repro/internal/nodestatus"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/store"
)

// scriptedInvoker fails for the first `failures` invocations per URI, then
// answers healthily. A negative failures count means fail forever.
type scriptedInvoker struct {
	mu       sync.Mutex
	failures int
	calls    map[string]int
	resp     nodestatus.Response
}

func newScripted(failures int) *scriptedInvoker {
	return &scriptedInvoker{
		failures: failures,
		calls:    make(map[string]int),
		resp:     nodestatus.Response{Host: "scripted", Load: 0.25, MemoryB: 2 << 30, SwapB: 1 << 30},
	}
}

func (s *scriptedInvoker) Invoke(uri string) (nodestatus.Response, error) {
	s.mu.Lock()
	n := s.calls[uri]
	s.calls[uri] = n + 1
	s.mu.Unlock()
	if s.failures < 0 || n < s.failures {
		return nodestatus.Response{}, errors.New("nodestatus: scripted failure")
	}
	return s.resp, nil
}

func (s *scriptedInvoker) count(uri string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[uri]
}

const faultURI = "http://thermo.sdsu.edu:8080/NodeStatus"

func staticURIs(uris ...string) URIProvider {
	return func() []string { return uris }
}

// downURIs fails the URIs it holds and answers the rest.
type downURIs map[string]bool

func (d downURIs) Invoke(uri string) (nodestatus.Response, error) {
	if d[uri] {
		return nodestatus.Response{}, errors.New("nodestatus: down")
	}
	return nodestatus.Response{Host: rim.HostOfURI(uri), Load: 0.5, MemoryB: 1 << 30}, nil
}

// TestSweepDecidesSharedHostByURIOrder: a host behind two URIs, invoked in
// parallel, takes the later URI's outcome, and a failure adds one to the
// previous sweep's row however many of its URIs failed.
func TestSweepDecidesSharedHostByURIOrder(t *testing.T) {
	const up, down = "http://thermo.sdsu.edu:8080/a", "http://thermo.sdsu.edu:8080/b"
	for _, tc := range []struct {
		name     string
		uris     []string
		health   store.HostHealth
		failures int
	}{
		{"failure last", []string{up, down, down}, store.HealthDegraded, 2},
		{"success last", []string{down, up}, store.HealthHealthy, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			table := store.NewNodeStateTable()
			col := New(table, downURIs{down: true}, simclock.NewManual(t0), staticURIs(tc.uris...))
			col.CollectOnce()
			col.CollectOnce()
			row, _ := table.Snapshot().Get("thermo.sdsu.edu")
			if row.Health != tc.health || row.Failures != tc.failures {
				t.Fatalf("row after two sweeps = %+v, want %v with %d failures", row, tc.health, tc.failures)
			}
		})
	}
}

func TestRetriesRecoverTransientFailure(t *testing.T) {
	clk := simclock.NewManual(t0)
	table := store.NewNodeStateTable()
	inv := newScripted(1) // first attempt fails, retry succeeds
	col := New(table, inv, clk, staticURIs(faultURI), WithRetries(1, 0))

	col.CollectOnce()
	row, ok := table.Snapshot().Get("thermo.sdsu.edu")
	if !ok || row.Failures != 0 || row.Health != store.HealthHealthy {
		t.Fatalf("row = %+v %v", row, ok)
	}
	stats := col.FaultStats()
	if stats.Errs != 0 || stats.Retries != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestExhaustedRetriesDegradeRow(t *testing.T) {
	clk := simclock.NewManual(t0)
	table := store.NewNodeStateTable()
	inv := newScripted(-1)
	col := New(table, inv, clk, staticURIs(faultURI), WithRetries(2, 0))

	col.CollectOnce()
	row, _ := table.Snapshot().Get("thermo.sdsu.edu")
	if row.Failures != 1 || row.Health != store.HealthDegraded {
		t.Fatalf("row = %+v", row)
	}
	stats := col.FaultStats()
	if stats.Errs != 1 || stats.Retries != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if inv.count(faultURI) != 3 { // initial attempt + 2 retries
		t.Fatalf("attempts = %d", inv.count(faultURI))
	}
}

func TestBreakerQuarantinesAndProbes(t *testing.T) {
	clk := simclock.NewManual(t0)
	table := store.NewNodeStateTable()
	inv := newScripted(3) // exactly Threshold failures, then healthy
	bset := breaker.NewSet(breaker.Config{Threshold: 3, BaseBackoff: 50 * time.Second, Jitter: -1})
	col := New(table, inv, clk, staticURIs(faultURI), WithBreakers(bset))

	// Three failing sweeps trip the breaker.
	for i := 0; i < 3; i++ {
		col.CollectOnce()
		clk.Advance(25 * time.Second)
	}
	row, _ := table.Snapshot().Get("thermo.sdsu.edu")
	if row.Health != store.HealthQuarantined || row.Failures != 3 {
		t.Fatalf("row after trip = %+v", row)
	}
	if bset.State("thermo.sdsu.edu") != breaker.Open {
		t.Fatalf("breaker state = %v", bset.State("thermo.sdsu.edu"))
	}

	// The next sweep happens inside the backoff window: skipped, not invoked.
	before := inv.count(faultURI)
	col.CollectOnce()
	if inv.count(faultURI) != before {
		t.Fatal("open breaker did not skip invocation")
	}
	if stats := col.FaultStats(); stats.Skipped != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if st := bset.State("thermo.sdsu.edu"); st != breaker.Open {
		t.Fatalf("breaker state after the skipped sweep = %v, want open", st)
	}

	// Past the backoff the probe is admitted; the invoker has healed, so
	// the host returns to service.
	clk.Advance(50 * time.Second)
	col.CollectOnce()
	row, _ = table.Snapshot().Get("thermo.sdsu.edu")
	if row.Health != store.HealthHealthy || row.Failures != 0 {
		t.Fatalf("row after probe = %+v", row)
	}
	if bset.State("thermo.sdsu.edu") != breaker.Closed {
		t.Fatalf("breaker not closed after probe: %v", bset.State("thermo.sdsu.edu"))
	}
}

// TestDeadlineCancelsHungInvocation also holds invokeOnce's goroutine to
// its lifetime: abandoned at the deadline, it exits once the hang ends.
func TestDeadlineCancelsHungInvocation(t *testing.T) {
	defer leakcheck.Check(t)()
	clk := simclock.NewManual(t0)
	table := store.NewNodeStateTable()
	// Every invocation hangs for a minute; the collector gives up at 5 s.
	inj := faults.New(newScripted(0), clk, faults.Plan{HangRate: 1, Hang: time.Minute, Seed: 9})
	col := New(table, inj, clk, staticURIs(faultURI), WithTimeout(5*time.Second))

	done := make(chan struct{})
	go func() { col.CollectOnce(); close(done) }()
	// Time moves only once both waits have started, the collector's
	// deadline and the hang: a hang that started after the advance would
	// outlive the minute the test ends with.
	for clk.PendingWaiters() < 2 {
		runtime.Gosched()
	}
	clk.Advance(5 * time.Second)
	<-done
	stats := col.FaultStats()
	if stats.Timeouts != 1 || stats.Errs != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	row, _ := table.Snapshot().Get("thermo.sdsu.edu")
	if row.Health != store.HealthDegraded || row.Failures != 1 {
		t.Fatalf("row = %+v", row)
	}
	clk.Advance(time.Minute)
}

// TestCancelledSweepReturnsWhileHostHangs cancels a sweep whose one host
// hangs inside an invoker that takes no context: the sweep must return at
// once rather than wait out the per-invocation deadline, and the parked
// invocation exits once its hang ends.
func TestCancelledSweepReturnsWhileHostHangs(t *testing.T) {
	defer leakcheck.Check(t)()
	clk := simclock.NewManual(t0)
	table := store.NewNodeStateTable()
	inj := faults.New(newScripted(0), clk, faults.Plan{HangRate: 1, Hang: time.Hour, Seed: 9})
	col := New(table, inj, clk, staticURIs(faultURI), WithTimeout(5*time.Second))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { col.CollectOnceCtx(ctx); close(done) }()
	for clk.PendingWaiters() < 2 { // the hang and the deadline
		runtime.Gosched()
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("CollectOnceCtx still blocked 2s after its context was cancelled")
	}
	if stats := col.FaultStats(); stats.Errs != 1 || stats.Timeouts != 0 {
		t.Fatalf("stats = %+v, want the one invocation failed by cancellation", stats)
	}
	clk.Advance(time.Hour)
}

// ctxInvoker is a ContextInvoker whose host never answers: InvokeContext
// returns when its context ends, and reports that on returned. The
// context-free Invoke hangs until the test ends.
type ctxInvoker struct {
	entered  chan struct{}
	returned chan struct{}
	release  chan struct{}
}

func newCtxInvoker(t *testing.T) *ctxInvoker {
	c := &ctxInvoker{entered: make(chan struct{}, 1), returned: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(func() { close(c.release) })
	return c
}

func (c *ctxInvoker) Invoke(string) (nodestatus.Response, error) {
	c.entered <- struct{}{}
	<-c.release
	return nodestatus.Response{}, errors.New("nodestatus: released")
}

func (c *ctxInvoker) InvokeContext(ctx context.Context, _ string) (nodestatus.Response, error) {
	c.entered <- struct{}{}
	<-ctx.Done()
	close(c.returned)
	return nodestatus.Response{}, ctx.Err()
}

// TestCancelledSweepReachesContextInvoker cancels a sweep whose one host
// never answers, through each path from the sweep's context to a
// ContextInvoker: the invocation must see the cancellation (so an
// HTTPInvoker tears its socket down) and the sweep must return at once.
func TestCancelledSweepReachesContextInvoker(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration // the per-invocation deadline; 0 invokes inline
		sweep   func(*Collector, context.Context)
	}{
		{"CollectOnceCtx, inline", 0, (*Collector).CollectOnceCtx},
		{"CollectOnceCtx, under a deadline", 5 * time.Second, (*Collector).CollectOnceCtx},
		{"Run", 5 * time.Second, (*Collector).Run},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer leakcheck.Check(t)()
			clk := simclock.NewManual(t0)
			inv := newCtxInvoker(t)
			var opts []Option
			if tc.timeout > 0 {
				opts = append(opts, WithTimeout(tc.timeout))
			}
			col := New(store.NewNodeStateTable(), inv, clk, staticURIs(faultURI), opts...)

			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() { tc.sweep(col, ctx); close(done) }()
			<-inv.entered
			cancel()
			for _, w := range []struct {
				what string
				ch   chan struct{}
			}{{"the invocation", inv.returned}, {"the sweep", done}} {
				select {
				case <-w.ch:
				case <-time.After(2 * time.Second):
					t.Fatalf("%s is still blocked 2s after the sweep's context was cancelled", w.what)
				}
			}
		})
	}
}

func TestCollectorUnderDropFaults(t *testing.T) {
	clk := simclock.NewManual(t0)
	table := store.NewNodeStateTable()
	inj := faults.New(newScripted(0), clk, faults.Plan{DropRate: 0.5, Seed: 11})
	col := New(table, inj, clk, staticURIs(faultURI))

	for i := 0; i < 40; i++ {
		col.CollectOnce()
		clk.Advance(25 * time.Second)
	}
	stats := col.FaultStats()
	if stats.Sweeps != 40 {
		t.Fatalf("sweeps = %d", stats.Sweeps)
	}
	drops := inj.Counts()[faults.KindDrop]
	if drops == 0 || drops == 40 {
		t.Fatalf("drops = %d over 40 sweeps at rate 0.5", drops)
	}
	if stats.Errs != drops {
		t.Fatalf("errs = %d, drops = %d", stats.Errs, drops)
	}
}

func TestCollectorUnderFlapFaults(t *testing.T) {
	clk := simclock.NewManual(t0)
	table := store.NewNodeStateTable()
	// Down the first 50 s of every 100 s window: two failing sweeps, two
	// healthy sweeps, repeating.
	inj := faults.New(newScripted(0), clk, faults.Plan{FlapPeriod: 100 * time.Second, FlapDuty: 0.5, Seed: 13})
	bset := breaker.NewSet(breaker.Config{Threshold: 2, BaseBackoff: 25 * time.Second, Jitter: -1})
	col := New(table, inj, clk, staticURIs(faultURI), WithBreakers(bset))

	sawQuarantine, sawRecovery := false, false
	for i := 0; i < 16; i++ {
		col.CollectOnce()
		row, _ := table.Snapshot().Get("thermo.sdsu.edu")
		if row.Health == store.HealthQuarantined {
			sawQuarantine = true
		}
		if sawQuarantine && row.Health == store.HealthHealthy {
			sawRecovery = true
		}
		clk.Advance(25 * time.Second)
	}
	if !sawQuarantine || !sawRecovery {
		t.Fatalf("quarantine=%v recovery=%v over flap cycles", sawQuarantine, sawRecovery)
	}
}

func TestCorruptResponsesRejected(t *testing.T) {
	clk := simclock.NewManual(t0)
	table := store.NewNodeStateTable()
	inj := faults.New(newScripted(0), clk, faults.Plan{CorruptRate: 1, Seed: 17})
	col := New(table, inj, clk, staticURIs(faultURI))

	col.CollectOnce()
	row, _ := table.Snapshot().Get("thermo.sdsu.edu")
	if row.Health != store.HealthDegraded || row.Failures != 1 {
		t.Fatalf("corrupt response accepted: %+v", row)
	}
	if stats := col.FaultStats(); stats.Errs != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestHealthSnapshotMergesBreakerState(t *testing.T) {
	clk := simclock.NewManual(t0)
	table := store.NewNodeStateTable()
	inv := newScripted(-1)
	bset := breaker.NewSet(breaker.Config{Threshold: 1, BaseBackoff: 50 * time.Second, Jitter: -1})
	col := New(table, inv, clk, staticURIs(faultURI), WithBreakers(bset))

	col.CollectOnce()
	reports := col.HealthSnapshot()
	if len(reports) != 1 {
		t.Fatalf("reports = %+v", reports)
	}
	rep := reports[0]
	if rep.Host != "thermo.sdsu.edu" || rep.Health != store.HealthQuarantined ||
		rep.Breaker != breaker.Open || rep.Consecutive != 1 || rep.Trips != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if !rep.NextProbe.Equal(t0.Add(50 * time.Second)) {
		t.Fatalf("next probe = %v", rep.NextProbe)
	}
}
