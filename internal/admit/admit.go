// Package admit implements the overload-resilience layer for the
// registry serving edge. The thesis's balancer spreads load across
// NodeStatus hosts but leaves the registry process itself unprotected: a
// flash crowd of discovery or life-cycle requests queues unboundedly in
// net/http, latency explodes, and the collector and WAL starve. This
// package adds the missing self-protection:
//
//   - per-class admission control (discovery reads vs. life-cycle
//     writes) with a bounded in-flight limit and a bounded FIFO wait
//     queue per class — health and metrics endpoints bypass admission
//     entirely so operators can always see in;
//   - load shedding by CoDel's control law (Nichols & Jacobson,
//     "Controlling Queue Delay", ACM Queue 2012; RFC 8289), which RPC
//     servers run on their request queues (Maurer, "Fail at Scale", ACM
//     Queue 2015): when a slot frees, the sojourn of the ticket at the
//     head of the queue is read, and once it has stayed above a target
//     for a whole interval the head is dropped with 503 + Retry-After,
//     later drops spaced interval/√count, until one ticket leaves below
//     the target. An arrival that finds the queue full is shed at once;
//   - server-side deadline budgets per class, honoring client budgets
//     from the X-Registry-Deadline-Ms header: the budget runs from
//     arrival, so it also bounds the wait in the queue;
//   - a brownout ladder that degrades service quality stepwise while a
//     class stays in CoDel's dropping state (tracing off → stale
//     snapshots → static fallback) and steps back up when it has been
//     out of it long enough.
//
// The target and interval come from the class deadline, the one latency
// figure a class is configured with. The interval is how long a standing
// queue may last before the class sheds: a third of the deadline, so a
// request that waited through a whole interval still has two thirds of
// its budget to be served in. The target is the queue delay tolerated at
// rest: a tenth of the interval, the top of the 5–10 % of the interval
// RFC 8289 recommends, so a queue that drains between bursts never
// sheds. H8 (EXPERIMENTS.md) compared other fractions. A class without a
// deadline uses CoDel's published 100 ms interval and 5 ms target.
//
// Decisions are deterministic functions of request arrival order and
// injected clock time — no randomness — so the flash-crowd harness in
// internal/lbexp replays byte-identically under a fixed seed.
package admit

import (
	"log/slog"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// Class partitions the serving edge by cost and criticality: discovery
// reads are cheap and latency-sensitive, life-cycle writes are expensive
// and durable. Each class gets its own in-flight limit, wait queue,
// CoDel state, and deadline so a write storm cannot starve discovery (and
// vice versa).
type Class uint8

const (
	// ClassDiscovery covers QueryManager reads: GetBindings, find,
	// ad-hoc queries, repository content.
	ClassDiscovery Class = iota
	// ClassLCM covers LifeCycleManager writes and the auth handshake
	// arriving over the SOAP surface.
	ClassLCM

	numClasses = 2
)

// String returns the metrics label for the class.
func (c Class) String() string {
	switch c {
	case ClassDiscovery:
		return "discovery"
	case ClassLCM:
		return "lcm"
	}
	return "unknown"
}

// Tier is one rung of the brownout ladder. Higher tiers trade service
// quality for survival under sustained overload.
type Tier int32

const (
	// TierNominal is normal full-quality service.
	TierNominal Tier = iota
	// TierNoTrace stops sampling discovery traces: the per-request ids,
	// stage clock reads and their allocations are the first ballast
	// overboard.
	TierNoTrace
	// TierStale lets discovery serve RCU snapshots beyond
	// SnapshotMaxAge: slightly stale load data beats coherent-read
	// contention when the edge is saturated.
	TierStale
	// TierStatic forces the balancer's static fallback when filtering
	// leaves nothing, reusing core.DegradedStatic semantics: stock
	// ordering beats an empty answer during an incident.
	TierStatic
)

// String returns the tier's name for logs and experiment tables.
func (t Tier) String() string {
	switch t {
	case TierNominal:
		return "nominal"
	case TierNoTrace:
		return "no-trace"
	case TierStale:
		return "stale"
	case TierStatic:
		return "static"
	}
	return "unknown"
}

// DeadlineHeader is the request header carrying the client's remaining
// budget in integer milliseconds. The server honors it when it is
// tighter than the class default.
const DeadlineHeader = "X-Registry-Deadline-Ms"

// ClassLimits bounds one admission class.
type ClassLimits struct {
	// MaxInFlight is the concurrency limit: at most this many requests
	// of the class execute at once.
	MaxInFlight int
	// MaxQueue bounds the FIFO wait queue behind the in-flight limit.
	// Arrivals beyond it are shed immediately.
	MaxQueue int
	// Deadline is the class's default server-side budget for a request,
	// counted from its arrival, so it bounds the queue wait too; 0 means
	// DefaultConfig's, negative leaves the class without one (a client's
	// DeadlineHeader still applies). CoDel's target and interval are
	// derived from it (see the package comment).
	Deadline time.Duration
}

// Config tunes the controller. The zero value is completed by
// DefaultConfig-equivalent defaults in NewController.
type Config struct {
	// Discovery and LCM bound the two admission classes.
	Discovery ClassLimits
	LCM       ClassLimits

	// RetryAfter is the advisory client backoff attached to shed
	// responses (rounded up to whole seconds on the wire).
	RetryAfter time.Duration

	// BrownoutEscalate is how long a class must stay in CoDel's
	// dropping state before the ladder climbs one tier; BrownoutCalm how
	// long no class may be dropping before it steps back down.
	BrownoutEscalate time.Duration
	BrownoutCalm     time.Duration
	// BrownoutStaleness is the extra NodeState snapshot age tolerated
	// at TierStale and above (see ExtraStaleness).
	BrownoutStaleness time.Duration
}

// DefaultConfig returns the production defaults: discovery sized for a
// read-heavy edge, LCM an order of magnitude tighter.
func DefaultConfig() Config {
	return Config{
		Discovery:         ClassLimits{MaxInFlight: 64, MaxQueue: 128, Deadline: 2 * time.Second},
		LCM:               ClassLimits{MaxInFlight: 16, MaxQueue: 32, Deadline: 5 * time.Second},
		RetryAfter:        time.Second,
		BrownoutEscalate:  5 * time.Second,
		BrownoutCalm:      10 * time.Second,
		BrownoutStaleness: 2 * time.Minute,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	c.Discovery = c.Discovery.withDefaults(d.Discovery)
	c.LCM = c.LCM.withDefaults(d.LCM)
	if c.RetryAfter <= 0 {
		c.RetryAfter = d.RetryAfter
	}
	if c.BrownoutEscalate <= 0 {
		c.BrownoutEscalate = d.BrownoutEscalate
	}
	if c.BrownoutCalm <= 0 {
		c.BrownoutCalm = d.BrownoutCalm
	}
	if c.BrownoutStaleness <= 0 {
		c.BrownoutStaleness = d.BrownoutStaleness
	}
	return c
}

// withDefaults fills l's zero fields from d; a negative MaxQueue means no
// queue at all.
func (l ClassLimits) withDefaults(d ClassLimits) ClassLimits {
	if l.MaxInFlight <= 0 {
		l.MaxInFlight = d.MaxInFlight
	}
	if l.MaxQueue < 0 {
		l.MaxQueue = 0
	} else if l.MaxQueue == 0 {
		l.MaxQueue = d.MaxQueue
	}
	if l.Deadline == 0 {
		l.Deadline = d.Deadline
	}
	return l
}

// CoDel's published constants, for a class without a deadline, and the
// ratios that derive a class's own from its deadline (package comment).
const (
	codelInterval     = 100 * time.Millisecond
	codelTarget       = 5 * time.Millisecond
	intervalPerBudget = 3  // interval = Deadline / 3
	targetPerInterval = 10 // target = interval / 10
	// codelMemory is how many intervals after a dropping spell CoDel
	// resumes the next one at the drop rate the last one reached (RFC
	// 8289's 16).
	codelMemory = 16
)

// Outcome is an admission decision.
type Outcome uint8

const (
	// Admitted: a free in-flight slot was granted; run now.
	Admitted Outcome = iota
	// Queued: all slots busy; the ticket waits FIFO for a slot.
	Queued
	// Shed: rejected early because the wait queue is full. Respond 503
	// with Retry-After.
	Shed
)

// ticketState tracks a queued ticket until it leaves the queue;
// transitions happen under the owning class's mutex.
type ticketState uint8

const (
	ticketQueued   ticketState = iota
	ticketPromoted             // handed an in-flight slot
	ticketDropped              // dropped at the head by CoDel
	ticketCanceled             // left on its own: client gone or deadline passed
)

// Ticket represents one queued request waiting for an in-flight slot.
type Ticket struct {
	class   Class
	arrived time.Time
	// ready is closed when the ticket leaves the queue at its head:
	// promoted into an in-flight slot, or dropped by CoDel.
	ready chan struct{}
	state ticketState // transitions under the owning classState.mu
}

// Arrived returns when the request first asked for admission: its
// sojourn in the queue and its deadline are measured from here.
func (t *Ticket) Arrived() time.Time { return t.arrived }

// classState is one class's semaphore, queue, and CoDel state.
type classState struct {
	limits           ClassLimits
	target, interval time.Duration

	mu       sync.Mutex
	inflight int       // guarded by mu
	queue    []*Ticket // guarded by mu
	// CoDel's state, named as in RFC 8289: firstAbove is when the head's
	// sojourn will have stayed above target for an interval (zero while
	// it is below); dropNext is when the next head drop is due while
	// dropping; count is the drops since dropping began and lastCount its
	// value when the current spell began.
	firstAbove time.Time // guarded by mu
	dropNext   time.Time // guarded by mu
	count      int       // guarded by mu
	lastCount  int       // guarded by mu
	// dropping is CoDel's dropping state: written under mu, read without
	// it by the brownout ladder.
	dropping atomic.Bool

	admitted     metrics.Counter
	shed         metrics.Counter
	queuedTotal  metrics.Counter
	canceled     metrics.Counter
	deadlineMiss metrics.Counter
}

// ClassStats is a scrape-time snapshot of one class.
type ClassStats struct {
	Admitted int64
	// Shed counts arrivals refused at a full queue and heads CoDel
	// dropped; both got the same 503.
	Shed   int64
	Queued int64
	// Canceled counts queued requests whose client went away;
	// DeadlineExceeded requests whose deadline passed, queued or running.
	Canceled         int64
	DeadlineExceeded int64
	InFlight         int
	QueueDepth       int
	// Dropping reports CoDel's dropping state.
	Dropping bool
}

// Controller is the admission controller for the registry serving edge.
// All methods are safe for concurrent use; the decision core (TryAdmit,
// Release, CancelQueued) is non-blocking so the deterministic flash-crowd
// simulator can drive it single-threaded, while the HTTP middleware in
// middleware.go adds the blocking wait on top.
type Controller struct {
	clock simclock.Clock
	cfg   Config
	log   *slog.Logger

	classes [numClasses]classState

	tierMu    sync.Mutex
	tier      Tier      // guarded by tierMu
	overSince time.Time // guarded by tierMu
	calmSince time.Time // guarded by tierMu
	// atRest is set while the tier is nominal and no class was dropping
	// at the last evaluation, which lets noteTier skip tierMu.
	atRest      atomic.Bool
	tierNow     atomic.Int32 // lock-free mirror of tier for hot-path reads
	tierChanges metrics.Counter

	// Preserialized shed responses: the reject path must not allocate
	// (see middleware.go; the shed/* rows of TestDiscoveryAllocBudgets).
	retryAfterHeader []string
	rejectJSON       []byte
	rejectSOAP       []byte
	jsonContentType  []string
	soapContentType  []string
}

// NewController builds a controller from cfg. clk must be the registry's
// clock; log may be nil.
func NewController(cfg Config, clk simclock.Clock, log *slog.Logger) *Controller {
	cfg = cfg.withDefaults()
	if clk == nil {
		clk = simclock.Real{}
	}
	c := &Controller{clock: clk, cfg: cfg, log: obs.OrNop(log)}
	limits := [numClasses]ClassLimits{ClassDiscovery: cfg.Discovery, ClassLCM: cfg.LCM}
	for class := range c.classes {
		cs := &c.classes[class]
		cs.limits = limits[class]
		cs.interval, cs.target = codelInterval, codelTarget
		if d := cs.limits.Deadline; d > 0 {
			cs.interval = d / intervalPerBudget
			cs.target = cs.interval / targetPerInterval
		}
	}
	c.atRest.Store(true)
	c.buildRejects()
	return c
}

// RetryAfter returns the advisory backoff attached to shed responses.
func (c *Controller) RetryAfter() time.Duration { return c.cfg.RetryAfter }

// Limits returns the effective limits for class.
func (c *Controller) Limits(class Class) ClassLimits { return c.classes[class].limits }

// TryAdmit decides one arrival at time now without blocking: a free
// in-flight slot admits it immediately (nil ticket); otherwise it joins
// the bounded FIFO queue (non-nil ticket), or is shed when the queue is
// full.
func (c *Controller) TryAdmit(class Class, now time.Time) (Outcome, *Ticket) {
	cs := &c.classes[class]
	out, t := Admitted, (*Ticket)(nil)
	cs.mu.Lock()
	switch {
	case cs.inflight < cs.limits.MaxInFlight:
		cs.inflight++
		cs.admitted.Inc()
	case len(cs.queue) >= cs.limits.MaxQueue:
		out = Shed
		cs.shed.Inc()
	default:
		out, t = Queued, &Ticket{class: class, arrived: now, ready: make(chan struct{})}
		cs.queue = append(cs.queue, t)
		cs.queuedTotal.Inc()
	}
	cs.mu.Unlock()
	c.noteTier(now)
	return out, t
}

// Release returns an in-flight slot at time now. When the wait queue is
// non-empty the slot is handed straight to its head; CoDel may first drop
// heads that waited too long, which are answered as shed. The promoted
// ticket is returned so a single-threaded simulator can schedule it without
// watching a channel; every queued ticket ahead of it was dropped.
// arrived, when the finishing request asked for admission, is not read:
// CoDel judges the queue by the sojourn of the tickets leaving it.
func (c *Controller) Release(class Class, arrived, now time.Time) *Ticket {
	cs := &c.classes[class]
	cs.mu.Lock()
	promoted := cs.dequeueLocked(now)
	if promoted == nil {
		cs.inflight--
	} else {
		promoted.state = ticketPromoted
		close(promoted.ready)
		cs.admitted.Inc()
	}
	cs.mu.Unlock()
	c.noteTier(now)
	return promoted
}

// dequeueLocked is CoDel's dequeue (RFC 8289): it pops the ticket
// the freed slot goes to, dropping heads on the way while the control
// law says so. Called with cs.mu held.
func (cs *classState) dequeueLocked(now time.Time) *Ticket {
	t, okToDrop := cs.popLocked(now)
	switch {
	case t == nil:
		// The uncontended path: store only on a change.
		if cs.dropping.Load() {
			cs.dropping.Store(false)
		}
	case cs.dropping.Load():
		if !okToDrop {
			cs.dropping.Store(false)
		}
		for cs.dropping.Load() && !now.Before(cs.dropNext) {
			cs.dropLocked(t)
			cs.count++
			if t, okToDrop = cs.popLocked(now); okToDrop {
				cs.dropNext = cs.controlLawLocked(cs.dropNext)
			} else {
				cs.dropping.Store(false)
			}
		}
	case okToDrop:
		cs.dropLocked(t)
		t, _ = cs.popLocked(now)
		cs.dropping.Store(true)
		// A spell that starts soon after the last one resumes near the
		// drop rate that one reached.
		delta := cs.count - cs.lastCount
		cs.count = 1
		if delta > 1 && now.Sub(cs.dropNext) < codelMemory*cs.interval {
			cs.count = delta
		}
		cs.dropNext = cs.controlLawLocked(now)
		cs.lastCount = cs.count
	}
	return t
}

// popLocked takes the head off the queue and reports whether CoDel may
// drop it: its sojourn is at least the target and has been for a whole
// interval, and a ticket waits behind it, so the slot never idles for a
// drop. Called with cs.mu held.
func (cs *classState) popLocked(now time.Time) (*Ticket, bool) {
	if len(cs.queue) == 0 {
		cs.firstAbove = time.Time{}
		return nil, false
	}
	t := cs.queue[0]
	cs.queue[0] = nil
	cs.queue = cs.queue[1:]
	if now.Sub(t.arrived) < cs.target || len(cs.queue) == 0 {
		cs.firstAbove = time.Time{}
		return t, false
	}
	if cs.firstAbove.IsZero() {
		cs.firstAbove = now.Add(cs.interval)
		return t, false
	}
	return t, !now.Before(cs.firstAbove)
}

// dropLocked sheds a ticket CoDel dropped at the head. Called with cs.mu
// held.
func (cs *classState) dropLocked(t *Ticket) {
	t.state = ticketDropped
	close(t.ready)
	cs.shed.Inc()
}

// controlLawLocked spaces the next drop interval/√count after t. Called
// with cs.mu held.
func (cs *classState) controlLawLocked(t time.Time) time.Time {
	return t.Add(time.Duration(float64(cs.interval) / math.Sqrt(float64(cs.count))))
}

// CancelQueued removes a still-queued ticket whose client went away or
// whose deadline passed, and reports whether the removal won: false
// means the ticket already left at the head: promoted into a slot the
// caller now owns and must Release, or dropped.
func (c *Controller) CancelQueued(t *Ticket) bool {
	cs := &c.classes[t.class]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if t.state != ticketQueued {
		return false
	}
	for i, q := range cs.queue {
		if q == t {
			cs.queue = append(cs.queue[:i], cs.queue[i+1:]...)
			break
		}
	}
	t.state = ticketCanceled
	return true
}

// noteTier re-evaluates the brownout ladder at time now: a class that
// stays in CoDel's dropping state climbs one tier per BrownoutEscalate,
// and no class dropping steps down one tier per BrownoutCalm. It runs on
// every admission call, outside the class locks; at rest it reads three
// flags and returns.
func (c *Controller) noteTier(now time.Time) {
	pressured := false
	for i := range c.classes {
		pressured = pressured || c.classes[i].dropping.Load()
	}
	if !pressured && c.atRest.Load() {
		return
	}
	changed := false
	c.tierMu.Lock()
	if pressured {
		c.calmSince = time.Time{}
		if c.overSince.IsZero() {
			c.overSince = now
		}
		if c.tier < TierStatic && now.Sub(c.overSince) >= c.cfg.BrownoutEscalate {
			c.tier++
			c.overSince = now
			changed = true
		}
	} else {
		c.overSince = time.Time{}
		if c.calmSince.IsZero() {
			c.calmSince = now
		}
		if c.tier > TierNominal && now.Sub(c.calmSince) >= c.cfg.BrownoutCalm {
			c.tier--
			c.calmSince = now
			changed = true
		}
	}
	tier := c.tier
	c.atRest.Store(tier == TierNominal && !pressured)
	// The mirror first, the count after it: whoever reads the count and
	// then the tier sees a tier at least as new as the count.
	c.tierNow.Store(int32(tier))
	if changed {
		c.tierChanges.Inc()
	}
	c.tierMu.Unlock()
	if changed {
		c.log.Info("brownout tier change", "tier", tier.String())
	}
}

// Tier returns the current brownout tier from a lock-free mirror, so the
// response cache can key every request by tier without touching tierMu.
func (c *Controller) Tier() Tier {
	return Tier(c.tierNow.Load())
}

// TierChanges returns how many ladder transitions have happened. It only
// grows, and a transition is counted after its tier is visible to Tier.
func (c *Controller) TierChanges() int64 { return c.tierChanges.Value() }

// ExtraStaleness is the NodeState snapshot age the current tier tolerates
// beyond the balancer's own guard: BrownoutStaleness from TierStale up.
func (c *Controller) ExtraStaleness() time.Duration {
	if c.Tier() >= TierStale {
		return c.cfg.BrownoutStaleness
	}
	return 0
}

// ForceStatic reports whether the current tier forces the balancer's
// static fallback: from TierStatic up.
func (c *Controller) ForceStatic() bool { return c.Tier() >= TierStatic }

// ClassStats snapshots one class for /registry/metrics and tests.
func (c *Controller) ClassStats(class Class) ClassStats {
	cs := &c.classes[class]
	cs.mu.Lock()
	st := ClassStats{InFlight: cs.inflight, QueueDepth: len(cs.queue)}
	cs.mu.Unlock()
	st.Dropping = cs.dropping.Load()
	st.Admitted = cs.admitted.Value()
	st.Shed = cs.shed.Value()
	st.Queued = cs.queuedTotal.Value()
	st.Canceled = cs.canceled.Value()
	st.DeadlineExceeded = cs.deadlineMiss.Value()
	return st
}

// Deadline returns the effective budget for one request: the class
// default capped by the client's DeadlineHeader value (integer
// milliseconds; absent, unparseable, or non-positive values are
// ignored). 0 means no deadline.
func (c *Controller) Deadline(class Class, clientMs string) time.Duration {
	d := c.classes[class].limits.Deadline
	if clientMs == "" {
		return d
	}
	ms, err := strconv.Atoi(clientMs)
	if err != nil || ms <= 0 {
		return d
	}
	cd := time.Duration(ms) * time.Millisecond
	if d <= 0 || cd < d {
		return cd
	}
	return d
}
