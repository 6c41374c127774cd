// Package nodestate implements the registry-side collection loop of thesis
// §3.2 — the TimeHits class (Fig. 3.1): a timer that periodically invokes
// the NodeStatus Web Service on every host that deploys it and stores the
// returned CPU load, physical memory and swap memory in the NodeState
// table (Fig. 3.2). The thesis collects every 25 seconds, a period the
// freebXML administrator can reconfigure; DefaultPeriod preserves that
// default and experiments sweep it (EXPERIMENTS.md, H2).
//
// Beyond the thesis, the collector is fault-tolerant: each invocation can
// carry a deadline (WithTimeout), fail over to bounded retries with a
// jittered backoff (WithRetries), and feed a per-host circuit breaker
// (WithBreakers) whose open hosts are skipped in subsequent sweeps and
// marked Quarantined on their NodeState rows so discovery excludes them.
package nodestate

import (
	"context"
	"errors"
	"hash/fnv"
	"log/slog"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/nodestatus"
	"repro/internal/obs"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/store"
)

// DefaultPeriod is the thesis's collection interval: 25 seconds, "decided
// upon after observing the frequency of load change on our system" (§3.2).
const DefaultPeriod = 25 * time.Second

// defaultParallelism bounds concurrent NodeStatus invocations per sweep.
const defaultParallelism = 16

// ErrDeadline reports an invocation that exceeded the collector's
// per-invocation timeout.
var ErrDeadline = errors.New("nodestate: invocation deadline exceeded")

// URIProvider supplies the current NodeStatus deployment URIs. The
// registry wires this to "the bindings of the service named NodeStatus",
// so newly published hosts are picked up on the next sweep without
// restarting the collector.
type URIProvider func() []string

// Stats is a snapshot of a collector's fault-tolerance counters.
type Stats struct {
	// Sweeps is the number of completed CollectOnce passes.
	Sweeps int
	// Errs counts invocations that exhausted their retries and failed.
	Errs int
	// Timeouts counts individual invocation attempts that hit the
	// per-invocation deadline.
	Timeouts int
	// Retries counts re-attempts after a failed invocation.
	Retries int
	// Skipped counts sweep slots not invoked because the host's breaker
	// was open.
	Skipped int
}

// Collector periodically polls NodeStatus endpoints into a NodeStateTable.
type Collector struct {
	table   *store.NodeStateTable
	invoker nodestatus.Invoker
	clock   simclock.Clock
	period  time.Duration
	uris    URIProvider

	parallelism  int
	timeout      time.Duration // per-invocation deadline; 0 = none
	maxRetries   int           // re-attempts after the first failure
	retryBackoff time.Duration // base backoff between attempts; 0 = immediate
	breakers     *breaker.Set  // nil = breakers disabled
	log          *slog.Logger  // never nil; nop by default
	afterSweep   func()        // nil = no hook; runs after each publish

	// What FaultStats snapshots; each event is counted here and nowhere else.
	sweeps, errs, timeouts, retries, skipped atomic.Int64
}

// Option configures a Collector.
type Option func(*Collector)

// WithPeriod overrides the collection period.
func WithPeriod(d time.Duration) Option {
	return func(c *Collector) {
		if d > 0 {
			c.period = d
		}
	}
}

// WithParallelism bounds the number of concurrent NodeStatus invocations.
func WithParallelism(n int) Option {
	return func(c *Collector) {
		if n > 0 {
			c.parallelism = n
		}
	}
}

// WithTimeout sets the per-invocation deadline. An attempt still running
// when it expires counts as failed (and is cancelled when the invoker
// supports contexts). Zero or negative disables the deadline.
func WithTimeout(d time.Duration) Option {
	return func(c *Collector) { c.timeout = d }
}

// WithRetries allows n re-attempts after a failed invocation, waiting a
// jittered backoff (base, ±25% by host/attempt hash) before each. A zero
// backoff retries immediately, which is the right choice when the
// collector is driven synchronously off a manual clock (nothing else
// advances time mid-sweep).
func WithRetries(n int, backoff time.Duration) Option {
	return func(c *Collector) {
		if n > 0 {
			c.maxRetries = n
		}
		if backoff > 0 {
			c.retryBackoff = backoff
		}
	}
}

// WithBreakers attaches a per-host circuit breaker set: hosts whose
// breaker is open are skipped in sweeps and quarantined on their rows
// until a half-open probe succeeds.
func WithBreakers(b *breaker.Set) Option {
	return func(c *Collector) { c.breakers = b }
}

// WithAfterSweep attaches a hook that runs at the end of every sweep,
// after the refreshed table is published. The registry uses it to drive
// periodic rollups (balance fairness, SLO burn rates) off the collector's
// cadence so they tick identically on wall and simulated clocks. The hook
// runs on the sweep goroutine; it must be fast and must not call back
// into the collector.
func WithAfterSweep(fn func()) Option {
	return func(c *Collector) { c.afterSweep = fn }
}

// WithLogger attaches a structured logger; sweep failures, breaker
// quarantines, and retry exhaustion are logged through it. Nil keeps the
// default nop logger.
func WithLogger(l *slog.Logger) Option {
	return func(c *Collector) {
		if l != nil {
			c.log = l
		}
	}
}

// New creates a collector writing to table, invoking via invoker, timed by
// clock, polling the URIs returned by uris.
func New(table *store.NodeStateTable, invoker nodestatus.Invoker, clock simclock.Clock, uris URIProvider, opts ...Option) *Collector {
	if clock == nil {
		clock = simclock.Real{}
	}
	c := &Collector{
		table:       table,
		invoker:     invoker,
		clock:       clock,
		period:      DefaultPeriod,
		uris:        uris,
		parallelism: defaultParallelism,
		log:         obs.NopLogger(),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Period returns the configured collection period.
func (c *Collector) Period() time.Duration { return c.period }

// Breakers returns the attached breaker set (nil when disabled).
func (c *Collector) Breakers() *breaker.Set { return c.breakers }

// Stats reports completed sweeps and accumulated invocation errors (the
// pre-fault-tolerance signature; FaultStats has the full counters).
func (c *Collector) Stats() (sweeps, errs int) {
	s := c.FaultStats()
	return s.Sweeps, s.Errs
}

// FaultStats snapshots all fault-tolerance counters. Events are counted as
// they happen, the sweep that holds them when it completes.
func (c *Collector) FaultStats() Stats {
	return Stats{
		Sweeps:   int(c.sweeps.Load()),
		Errs:     int(c.errs.Load()),
		Timeouts: int(c.timeouts.Load()),
		Retries:  int(c.retries.Load()),
		Skipped:  int(c.skipped.Load()),
	}
}

// CollectOnce performs one sweep without an external context; cancelling
// an in-flight sweep requires CollectOnceCtx.
//
//repolint:ctxprop-allow context-free compatibility wrapper for callers without a sweep context
func (c *Collector) CollectOnce() {
	c.CollectOnceCtx(context.Background())
}

// CollectOnceCtx performs one sweep at the clock's current time: it invokes
// NodeStatus on every deployment URI (boundedly in parallel) and upserts a
// NodeState row per host; failed invocations record a failure on the row
// instead so stale data is distinguishable from fresh (strict policies can
// then exclude the host). Hosts with an open breaker are skipped and left
// quarantined. ctx bounds every invocation in the sweep: cancelling it
// makes context-aware invokers release their sockets mid-flight.
//
// Before the first row changes, the RCU snapshot is brought up to date —
// a no-op between sweeps, a publish after a restore or at boot — so that
// until the sweep publishes, a reader within the staleness guard sees the
// rows from before it rather than publishing a half-swept table itself.
func (c *Collector) CollectOnceCtx(ctx context.Context) {
	uris := c.uris()
	now := c.clock.Now()
	c.table.Snapshot(now, 0)

	sem := make(chan struct{}, c.parallelism)
	var wg sync.WaitGroup

	for _, uri := range uris {
		wg.Add(1)
		sem <- struct{}{}
		go func(uri string) {
			defer wg.Done()
			defer func() { <-sem }()
			host := rim.HostOfURI(uri)
			if host == "" {
				c.errs.Add(1)
				return
			}
			if c.breakers != nil && !c.breakers.Allow(host, now) {
				c.table.SetHealth(host, store.HealthQuarantined)
				c.log.DebugContext(ctx, "sweep skip: breaker open", "host", host)
				c.skipped.Add(1)
				return
			}
			c.collectHost(ctx, uri, host, now)
		}(uri)
	}
	wg.Wait()

	// Republish the RCU snapshot once per sweep so discovery reads the
	// sweep's rows lock-free until the next one.
	c.table.Publish(c.clock.Now())

	c.sweeps.Add(1)
	if c.afterSweep != nil {
		c.afterSweep()
	}
}

// collectHost runs the retry loop for one host within a sweep.
func (c *Collector) collectHost(ctx context.Context, uri, host string, now time.Time) {
	var resp nodestatus.Response
	var err error
	for attempt := 0; attempt <= c.maxRetries; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			if c.retryBackoff > 0 {
				c.clock.Sleep(jitteredBackoff(c.retryBackoff, host, attempt))
			}
		}
		resp, err = c.invokeOnce(ctx, uri)
		if err == nil {
			err = validate(resp)
		}
		if err == nil {
			break
		}
		if errors.Is(err, ErrDeadline) {
			c.timeouts.Add(1)
		}
	}
	if err != nil {
		c.table.RecordFailure(host, now)
		c.log.WarnContext(ctx, "collection failed", "host", host, "uri", uri,
			"attempts", c.maxRetries+1, "error", err)
		if c.breakers != nil {
			c.breakers.Failure(host, now)
			if st := c.breakers.State(host); st != breaker.Closed {
				c.table.SetHealth(host, store.HealthQuarantined)
				c.log.WarnContext(ctx, "host quarantined", "host", host, "breaker", st.String())
			}
		}
		c.errs.Add(1)
		return
	}
	if c.breakers != nil {
		c.breakers.Success(host, now)
	}
	c.table.Upsert(store.NodeState{
		Host:       host,
		Load:       resp.Load,
		MemoryB:    resp.MemoryB,
		SwapB:      resp.SwapB,
		NetDelayMs: resp.NetDelayMs,
		Updated:    now,
		Health:     store.HealthHealthy,
	})
}

// invokeOnce performs one invocation attempt under the per-invocation
// deadline. With no deadline it calls the invoker inline; otherwise the
// invocation runs in a goroutine raced against clock.After and the sweep
// context, and on expiry or cancellation the attempt returns at once and
// the derived context is cancelled so a ContextInvoker releases its
// socket; an invoker without a context finishes on its own.
func (c *Collector) invokeOnce(ctx context.Context, uri string) (nodestatus.Response, error) {
	if c.timeout <= 0 {
		if ci, ok := c.invoker.(nodestatus.ContextInvoker); ok {
			return ci.InvokeContext(ctx, uri)
		}
		return c.invoker.Invoke(uri)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		resp nodestatus.Response
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		var r result
		if ci, ok := c.invoker.(nodestatus.ContextInvoker); ok {
			r.resp, r.err = ci.InvokeContext(ctx, uri)
		} else {
			r.resp, r.err = c.invoker.Invoke(uri)
		}
		ch <- r
	}()
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-c.clock.After(c.timeout):
		return nodestatus.Response{}, ErrDeadline
	case <-ctx.Done():
		return nodestatus.Response{}, ctx.Err()
	}
}

// validate rejects responses whose measurements are physically impossible
// (negative load, memory, swap, or delay, or NaN) — the corrupt-response
// fault mode. It deliberately does not compare the reported hostname to
// the URI host: deployments behind load balancers or loopback test servers
// legitimately report a different name.
func validate(r nodestatus.Response) error {
	bad := r.Load < 0 || r.MemoryB < 0 || r.SwapB < 0 || r.NetDelayMs < 0 ||
		math.IsNaN(r.Load) || math.IsNaN(r.NetDelayMs)
	if bad {
		return errors.New("nodestate: corrupt response: measurement out of range")
	}
	return nil
}

// jitteredBackoff spreads base by ±25% using a host/attempt hash, so
// retries across hosts de-synchronize without consuming any rng state
// (keeping fault schedules seed-reproducible).
func jitteredBackoff(base time.Duration, host string, attempt int) time.Duration {
	f := fnv.New64a()
	f.Write([]byte(host))
	f.Write([]byte{byte(attempt)})
	u := float64(f.Sum64()%1000) / 1000 // [0,1)
	return time.Duration(float64(base) * (0.75 + 0.5*u))
}

// HostHealthReport is one host's merged collection/breaker status for the
// web UI and the /registry/health endpoint.
type HostHealthReport struct {
	Host     string
	Health   store.HostHealth
	Failures int
	Updated  time.Time
	// Breaker fields are zero-valued when breakers are disabled.
	Breaker     breaker.State
	Consecutive int
	Trips       int
	NextProbe   time.Time
}

// HealthSnapshot merges the NodeState table with the breaker set into one
// per-host report, sorted by host.
func (c *Collector) HealthSnapshot() []HostHealthReport {
	byHost := make(map[string]HostHealthReport)
	for _, r := range c.table.Rows() {
		byHost[r.Host] = HostHealthReport{Host: r.Host, Health: r.Health, Failures: r.Failures, Updated: r.Updated}
	}
	if c.breakers != nil {
		for _, b := range c.breakers.Snapshot() {
			rep := byHost[b.Host]
			rep.Host = b.Host
			rep.Breaker = b.State
			rep.Consecutive = b.Consecutive
			rep.Trips = b.Trips
			rep.NextProbe = b.NextProbe
			byHost[b.Host] = rep
		}
	}
	out := make([]HostHealthReport, 0, len(byHost))
	for _, rep := range byHost {
		out = append(out, rep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// Run collects immediately and then on every period tick until ctx is
// cancelled. It uses the collector's clock, so tests drive it with a
// simclock.Manual. While the deployment lists no host the tick is a tenth
// of the period: a registry learns its hosts' state soon after their
// NodeStatus deployment is published, not up to a period later, and so
// does a checkpoint it takes meanwhile, which a restart recovers from.
func (c *Collector) Run(ctx context.Context) {
	for {
		c.CollectOnceCtx(ctx)
		wait := c.period
		if len(c.uris()) == 0 {
			wait /= 10
		}
		select {
		case <-ctx.Done():
			return
		case <-c.clock.After(wait):
		}
	}
}
