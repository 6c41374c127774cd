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
//   - adaptive load shedding: an AIMD controller on the latency EWMA
//     and queue pressure lowers the accept rate for requests that would
//     otherwise wait, so excess offered load is rejected early with
//     503 + Retry-After instead of queuing behind a doomed deadline;
//   - server-side deadline budgets per class, honoring client budgets
//     from the X-Registry-Deadline-Ms header and cancelling in-flight
//     work through the request context;
//   - a brownout ladder that degrades service quality stepwise under
//     sustained pressure (tracing off → stale snapshots → static
//     fallback) and steps back up when the pressure clears.
//
// Decisions are deterministic functions of request arrival order and
// injected clock time — no randomness — so the flash-crowd harness in
// internal/lbexp replays byte-identically under a fixed seed.
package admit

import (
	"log/slog"
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
// shedder, and deadline so a write storm cannot starve discovery (and
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
	// QueueTimeout bounds how long a queued request waits for a slot
	// before it is shed.
	QueueTimeout time.Duration
	// Deadline is the class's default server-side budget for an
	// admitted request; 0 means DefaultConfig's, negative leaves the
	// class without one (a client's DeadlineHeader still applies).
	Deadline time.Duration
}

// Config tunes the controller. The zero value is completed by
// DefaultConfig-equivalent defaults in NewController.
type Config struct {
	// Discovery and LCM bound the two admission classes.
	Discovery ClassLimits
	LCM       ClassLimits

	// Tick is the AIMD controller's adjustment interval.
	Tick time.Duration
	// LatencyTarget is the per-request latency (queue wait + service)
	// above which a class is considered overloaded; 0 derives it as a
	// quarter of the class deadline.
	LatencyTarget time.Duration
	// MinAccept floors the shedder's accept rate so a trickle of
	// requests always measures the current latency.
	MinAccept float64
	// RetryAfter is the advisory client backoff attached to shed
	// responses (rounded up to whole seconds on the wire).
	RetryAfter time.Duration

	// BrownoutEscalate is how long pressure must persist before the
	// ladder climbs one tier; BrownoutCalm how long calm must persist
	// before it steps back down.
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
		Discovery:         ClassLimits{MaxInFlight: 64, MaxQueue: 128, QueueTimeout: time.Second, Deadline: 2 * time.Second},
		LCM:               ClassLimits{MaxInFlight: 16, MaxQueue: 32, QueueTimeout: 2 * time.Second, Deadline: 5 * time.Second},
		Tick:              250 * time.Millisecond,
		MinAccept:         0.05,
		RetryAfter:        time.Second,
		BrownoutEscalate:  5 * time.Second,
		BrownoutCalm:      10 * time.Second,
		BrownoutStaleness: 2 * time.Minute,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Discovery.MaxInFlight <= 0 {
		c.Discovery.MaxInFlight = d.Discovery.MaxInFlight
	}
	if c.Discovery.MaxQueue < 0 {
		c.Discovery.MaxQueue = 0
	} else if c.Discovery.MaxQueue == 0 {
		c.Discovery.MaxQueue = d.Discovery.MaxQueue
	}
	if c.Discovery.QueueTimeout <= 0 {
		c.Discovery.QueueTimeout = d.Discovery.QueueTimeout
	}
	if c.Discovery.Deadline == 0 {
		c.Discovery.Deadline = d.Discovery.Deadline
	}
	if c.LCM.MaxInFlight <= 0 {
		c.LCM.MaxInFlight = d.LCM.MaxInFlight
	}
	if c.LCM.MaxQueue < 0 {
		c.LCM.MaxQueue = 0
	} else if c.LCM.MaxQueue == 0 {
		c.LCM.MaxQueue = d.LCM.MaxQueue
	}
	if c.LCM.QueueTimeout <= 0 {
		c.LCM.QueueTimeout = d.LCM.QueueTimeout
	}
	if c.LCM.Deadline == 0 {
		c.LCM.Deadline = d.LCM.Deadline
	}
	if c.Tick <= 0 {
		c.Tick = d.Tick
	}
	if c.MinAccept <= 0 || c.MinAccept > 1 {
		c.MinAccept = d.MinAccept
	}
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

// AIMD shedder constants: multiplicative decrease on an overloaded tick,
// additive increase on a calm one, EWMA smoothing for the latency signal
// and its idle decay (so a drained class forgets old pain).
const (
	aimdDecrease  = 0.75
	aimdIncrease  = 0.05
	ewmaAlpha     = 0.3
	ewmaIdleDecay = 0.5
	// brownoutPressure is the accept rate at or below which a class
	// counts as pressured for the brownout ladder: the shedder has
	// halved at least twice and held there.
	brownoutPressure = 0.5
	// maxTickCatchup bounds the AIMD catch-up loop after a large
	// simulated time jump (time-of-day experiments jump hours).
	maxTickCatchup = 64
)

// Outcome is an admission decision.
type Outcome uint8

const (
	// Admitted: a free in-flight slot was granted; run now.
	Admitted Outcome = iota
	// Queued: all slots busy; the ticket waits FIFO for a slot.
	Queued
	// Shed: rejected early — the shedder's gate fired or the wait
	// queue is full. Respond 503 with Retry-After.
	Shed
)

// String names the outcome for experiment fingerprints.
func (o Outcome) String() string {
	switch o {
	case Admitted:
		return "admitted"
	case Queued:
		return "queued"
	case Shed:
		return "shed"
	}
	return "unknown"
}

// ticketState tracks a queued ticket through the promote/cancel race;
// transitions happen under the owning class's mutex.
type ticketState uint8

const (
	ticketQueued ticketState = iota
	ticketPromoted
	ticketCanceled
)

// Ticket represents one queued request waiting for an in-flight slot.
type Ticket struct {
	class   Class
	arrived time.Time
	ready   chan struct{}
	state   ticketState // transitions under the owning classState.mu
}

// Class returns the ticket's admission class.
func (t *Ticket) Class() Class { return t.class }

// Arrived returns when the request first asked for admission; request
// latency is measured from here so queue wait counts against the class
// deadline signal.
func (t *Ticket) Arrived() time.Time { return t.arrived }

// Ready is closed when the ticket is promoted into an in-flight slot.
func (t *Ticket) Ready() <-chan struct{} { return t.ready }

// classState is one class's semaphore, queue, and shedder.
type classState struct {
	limits ClassLimits
	// target is the overload latency threshold in seconds.
	target float64
	// tick is the AIMD adjustment interval.
	tick time.Duration
	// minAccept floors the shedder.
	minAccept float64

	mu         sync.Mutex
	inflight   int       // guarded by mu
	queue      []*Ticket // guarded by mu
	acceptRate float64   // guarded by mu
	deficit    float64   // guarded by mu
	ewma       float64   // guarded by mu
	samples    int       // guarded by mu
	queueFull  bool      // guarded by mu
	lastTick   time.Time // guarded by mu
	pressured  bool      // guarded by mu

	admitted      metrics.Counter
	shed          metrics.Counter
	queuedTotal   metrics.Counter
	queueTimeouts metrics.Counter
	canceled      metrics.Counter
	deadlineMiss  metrics.Counter
}

// ClassStats is a scrape-time snapshot of one class.
type ClassStats struct {
	Admitted         int64
	Shed             int64
	Queued           int64
	QueueTimeouts    int64
	Canceled         int64
	DeadlineExceeded int64
	InFlight         int
	QueueDepth       int
	AcceptRate       float64
	LatencyEWMA      float64
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

	tierMu      sync.Mutex
	tier        Tier         // guarded by tierMu
	overSince   time.Time    // guarded by tierMu
	calmSince   time.Time    // guarded by tierMu
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
		cs.tick = cfg.Tick
		cs.minAccept = cfg.MinAccept
		target := cfg.LatencyTarget
		if target <= 0 {
			target = cs.limits.Deadline / 4
		}
		if target <= 0 {
			target = 500 * time.Millisecond
		}
		cs.target = target.Seconds()
		// Pre-publication, but lock anyway: acceptRate is guarded by mu
		// and the uncontended acquisition costs nothing at construction.
		cs.mu.Lock()
		cs.acceptRate = 1
		cs.mu.Unlock()
	}
	c.buildRejects()
	return c
}

// RetryAfter returns the advisory backoff attached to shed responses.
func (c *Controller) RetryAfter() time.Duration { return c.cfg.RetryAfter }

// Limits returns the effective limits for class.
func (c *Controller) Limits(class Class) ClassLimits { return c.classes[class].limits }

// TryAdmit decides one arrival at time now without blocking:
//
//   - a free in-flight slot admits immediately (nil ticket);
//   - otherwise the shedder's deterministic gate may shed;
//   - otherwise the arrival joins the bounded FIFO queue (non-nil
//     ticket) or is shed when the queue is full.
//
// Shedding applies only to arrivals that would wait, so admitted
// throughput (goodput) tracks capacity while excess load bounces.
func (c *Controller) TryAdmit(class Class, now time.Time) (Outcome, *Ticket) {
	cs := &c.classes[class]
	cs.mu.Lock()
	ticked := cs.tickLocked(now)
	if cs.inflight < cs.limits.MaxInFlight {
		cs.inflight++
		cs.mu.Unlock()
		cs.admitted.Inc()
		if ticked {
			c.noteTier(now)
		}
		return Admitted, nil
	}
	// Saturated: apply the shedder's gate before queueing. The deficit
	// accumulator converts the accept rate into a deterministic drop
	// pattern (no RNG; see the norand invariant).
	cs.deficit += 1 - cs.acceptRate
	if cs.deficit >= 1 {
		cs.deficit--
		cs.mu.Unlock()
		cs.shed.Inc()
		if ticked {
			c.noteTier(now)
		}
		return Shed, nil
	}
	if len(cs.queue) >= cs.limits.MaxQueue {
		cs.queueFull = true
		cs.mu.Unlock()
		cs.shed.Inc()
		if ticked {
			c.noteTier(now)
		}
		return Shed, nil
	}
	t := &Ticket{class: class, arrived: now, ready: make(chan struct{})}
	cs.queue = append(cs.queue, t)
	cs.mu.Unlock()
	cs.queuedTotal.Inc()
	if ticked {
		c.noteTier(now)
	}
	return Queued, t
}

// Release returns an in-flight slot at time now. arrived is when the
// finishing request first asked for admission (TryAdmit time), so the
// latency sample fed to the shedder includes its queue wait. When the
// wait queue is non-empty the slot is handed straight to the head, whose
// Ready channel closes; the promoted ticket is returned so a
// single-threaded driver can schedule it without watching the channel.
func (c *Controller) Release(class Class, arrived, now time.Time) *Ticket {
	cs := &c.classes[class]
	cs.mu.Lock()
	sample := now.Sub(arrived).Seconds()
	if sample >= 0 {
		if cs.samples == 0 && cs.ewma == 0 {
			cs.ewma = sample
		} else {
			cs.ewma += ewmaAlpha * (sample - cs.ewma)
		}
		cs.samples++
	}
	ticked := cs.tickLocked(now)
	var promoted *Ticket
	if len(cs.queue) > 0 {
		promoted = cs.queue[0]
		cs.queue = cs.queue[1:]
		promoted.state = ticketPromoted
		close(promoted.ready)
	} else {
		cs.inflight--
	}
	cs.mu.Unlock()
	if promoted != nil {
		cs.admitted.Inc()
	}
	if ticked {
		c.noteTier(now)
	}
	return promoted
}

// CancelQueued removes a still-queued ticket (queue timeout or client
// disconnect) and reports whether the removal won: false means the
// ticket was already promoted into a slot, which the caller now owns and
// must Release.
func (c *Controller) CancelQueued(t *Ticket, now time.Time, timedOut bool) bool {
	cs := &c.classes[t.class]
	cs.mu.Lock()
	if t.state != ticketQueued {
		cs.mu.Unlock()
		return false
	}
	for i, q := range cs.queue {
		if q == t {
			cs.queue = append(cs.queue[:i], cs.queue[i+1:]...)
			break
		}
	}
	t.state = ticketCanceled
	cs.queueFull = true // a queue casualty is pressure, even if depth dipped
	cs.mu.Unlock()
	if timedOut {
		cs.queueTimeouts.Inc()
	} else {
		cs.canceled.Inc()
	}
	return true
}

// NoteDeadlineExceeded records an admitted request that blew its budget.
func (c *Controller) NoteDeadlineExceeded(class Class) {
	c.classes[class].deadlineMiss.Inc()
}

// tickLocked advances the AIMD controller to now, one Tick at a time,
// and reports whether at least one adjustment ran (the caller then
// refreshes the brownout ladder outside the class lock). Called with
// cs.mu held.
func (cs *classState) tickLocked(now time.Time) bool {
	if cs.lastTick.IsZero() {
		cs.lastTick = now
		return false
	}
	ticked := false
	for i := 0; !cs.lastTick.Add(cs.tick).After(now); i++ {
		if i >= maxTickCatchup {
			cs.lastTick = now
			break
		}
		cs.lastTick = cs.lastTick.Add(cs.tick)
		overloaded := (cs.samples > 0 && cs.ewma > cs.target) || cs.queueFull
		if cs.samples == 0 {
			cs.ewma *= ewmaIdleDecay
		}
		cs.samples = 0
		cs.queueFull = false
		if overloaded {
			cs.acceptRate *= aimdDecrease
			if cs.acceptRate < cs.minAccept {
				cs.acceptRate = cs.minAccept
			}
		} else {
			cs.acceptRate += aimdIncrease
			if cs.acceptRate >= 1 {
				cs.acceptRate = 1
				cs.deficit = 0
			}
		}
		cs.pressured = cs.acceptRate <= brownoutPressure
		ticked = true
	}
	return ticked
}

// pressuredNow reports the class's last computed pressure flag.
func (cs *classState) pressuredNow() bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.pressured
}

// noteTier re-evaluates the brownout ladder at time now: sustained
// pressure climbs one tier per BrownoutEscalate, sustained calm steps
// down one tier per BrownoutCalm. Runs outside the class locks.
func (c *Controller) noteTier(now time.Time) {
	pressured := false
	for i := range c.classes {
		if c.classes[i].pressuredNow() {
			pressured = true
			break
		}
	}
	var tier Tier
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
	tier = c.tier
	// The mirror first, the count after it: whoever reads the count and
	// then the tier sees a tier at least as new as the count.
	c.tierNow.Store(int32(tier))
	if changed {
		c.tierChanges.Inc()
	}
	c.tierMu.Unlock()
	if changed {
		c.logTier(tier)
	}
}

// logTier records a ladder transition.
func (c *Controller) logTier(t Tier) {
	c.log.Info("brownout tier change", "tier", t.String())
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
	st := ClassStats{
		InFlight:    cs.inflight,
		QueueDepth:  len(cs.queue),
		AcceptRate:  cs.acceptRate,
		LatencyEWMA: cs.ewma,
	}
	cs.mu.Unlock()
	st.Admitted = cs.admitted.Value()
	st.Shed = cs.shed.Value()
	st.Queued = cs.queuedTotal.Value()
	st.QueueTimeouts = cs.queueTimeouts.Value()
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
