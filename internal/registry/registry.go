// Package registry assembles the complete ebXML registry server of thesis
// Figure 2.1: persistence (store), the LifeCycleManager and QueryManager
// interfaces, XACML authorization, the audit trail, the event bus, user
// authentication, the load-balancing core, and the NodeStatus collector —
// exposed both as direct Go method calls (freebXML's localCall mode) and
// over HTTP via SOAP and HTTP-GET bindings (see httpserver.go).
package registry

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/audit"
	"repro/internal/auth"
	"repro/internal/breaker"
	"repro/internal/cataloger"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/flight"
	"repro/internal/lcm"
	"repro/internal/metrics"
	"repro/internal/nodestate"
	"repro/internal/nodestatus"
	"repro/internal/obs"
	"repro/internal/qm"
	"repro/internal/repl"
	"repro/internal/respcache"
	"repro/internal/rim"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/soap"
	"repro/internal/store"
	"repro/internal/taxonomy"
	"repro/internal/wal"
	"repro/internal/xacml"
)

// AdminAlias is the built-in registry operator account (the thesis's
// registryOperator identity, §3.4.3).
const AdminAlias = "registryOperator"

// Config tunes a registry instance.
type Config struct {
	// Clock drives timestamps, sessions, constraints and collection;
	// nil means the real clock.
	Clock simclock.Clock
	// Policy is the balancer arrangement policy; the thesis's scheme is
	// PolicyFilter. PolicyStock disables load balancing (the baseline).
	Policy core.Policy
	// TimeMode selects out-of-window behaviour (see core).
	TimeMode core.TimeWindowMode
	// Freshness is the NodeState staleness cutoff; 0 disables it.
	Freshness time.Duration
	// FallbackAll returns load-ordered URIs when nothing is eligible.
	FallbackAll bool
	// Degraded selects what discovery serves when filtering and fallback
	// leave nothing at all (every host quarantined or stale).
	Degraded core.DegradedMode
	// CollectionPeriod overrides nodestate.DefaultPeriod, the thesis's
	// NodeStatus poll period.
	CollectionPeriod time.Duration
	// Invoker performs NodeStatus invocations; nil means HTTP.
	Invoker nodestatus.Invoker
	// InvokeTimeout is the collector's per-invocation deadline; 0 means
	// none.
	InvokeTimeout time.Duration
	// InvokeRetries re-attempts a failed invocation up to this many times
	// per sweep, waiting RetryBackoff (jittered) between attempts.
	InvokeRetries int
	RetryBackoff  time.Duration
	// Breaker enables per-host circuit breakers on the collector; nil
	// disables them.
	Breaker *breaker.Config
	// SnapshotMaxAge is the staleness guard on the NodeState RCU
	// snapshot: discovery serves a published snapshot no older than this
	// without locking even while the collector writes rows. 0 keeps reads
	// fully coherent. A sensible production value is the collection
	// period.
	SnapshotMaxAge time.Duration
	// Logger receives structured logs from the registry's components
	// (collector, LCM, HTTP surface). Nil discards everything.
	Logger *slog.Logger
	// TraceSample gives every Nth request on the discovery routes a trace
	// id and per-stage timings in its flight record (see /registry/traces).
	// 0 samples nothing: the fast path then sees only nil-timer no-ops and
	// allocates nothing.
	TraceSample int
	// Pprof mounts net/http/pprof under /debug/pprof/ on the HTTP
	// handler. Off by default; profiling endpoints are opt-in.
	Pprof bool
	// DataDir enables crash-safe durability: every acknowledged LCM
	// mutation is write-ahead-logged there and boot recovers the newest
	// checkpoint plus the WAL tail. Empty keeps the registry in-memory
	// (the pre-durability behaviour).
	DataDir string
	// Fsync is the WAL flush policy (always/interval/never); the zero
	// value is wal.FsyncAlways.
	Fsync wal.FsyncPolicy
	// CheckpointRecords triggers an automatic checkpoint after that many
	// logged records; 0 means wal.DefaultCheckpointRecords, negative
	// disables the trigger. Everything else about the log is wal's default.
	CheckpointRecords int
	// Admission enables the overload-resilient serving edge: per-class
	// in-flight/queue bounds, adaptive shedding, deadline budgets, and
	// the brownout ladder (see internal/admit). The zero-value
	// &admit.Config{} selects the production defaults; nil serves every
	// request unconditionally (the pre-admission behaviour).
	Admission *admit.Config
	// ReplLeader serves the WAL-shipping endpoints (/registry/repl/wal
	// and /registry/repl/checkpoint) so followers can tail this
	// registry. Requires DataDir: the stream is fed by the durability
	// manager's segmented log.
	ReplLeader bool
	// ReplFollowURL marks this registry a read-only replication follower
	// of the leader at the given base URL: life-cycle and auth writes
	// answer 307 + a typed NotRegistryLeader fault pointing there, while
	// discovery and query reads keep serving locally. Mutually exclusive
	// with ReplLeader.
	ReplFollowURL string
}

// Registry is an assembled registry server.
type Registry struct {
	Store     *store.Store
	Clock     simclock.Clock
	Balancer  *core.Balancer
	LCM       *lcm.Manager
	QM        *qm.Manager
	Trail     *audit.Trail
	Bus       *events.Bus
	Registrar *auth.Registrar
	Collector *nodestate.Collector
	// Breakers is the collector's breaker set (nil when Config.Breaker was
	// nil).
	Breakers *breaker.Set
	// ConstraintCache serves nothing: discovery reads the digest the store
	// keeps beside each service (store.DiscoveryView.Digest). The field,
	// constraint.Cache and registry_constraint_cache_hits_total stay only
	// because bench/layers.go and bench/bench_test.go name them, and go
	// with the benchmark change that retires those references.
	ConstraintCache *constraint.Cache
	// Sampler picks the discovery requests whose flight records carry a
	// trace id and stage timings (always allocated; rate 0 by default).
	Sampler *flight.Sampler
	// Log is the registry's structured logger (never nil; a nop logger
	// when Config.Logger was nil).
	Log *slog.Logger
	// Durable is the WAL-backed durability manager (nil when
	// Config.DataDir was empty: the registry is then purely in-memory).
	Durable *wal.Durable
	// Admission is the serving edge's admission controller (nil when
	// Config.Admission was nil: every request is then served
	// unconditionally).
	Admission *admit.Controller
	// RespCache is the preserialized discovery response cache: at most
	// one answer per stored service (Store.Services) in each key space.
	RespCache *respcache.Cache
	// Flight is the always-on wide-event recorder behind /registry/flight
	// (flight.DefaultRingSize records).
	Flight *flight.Ring
	// Balance tracks per-host assignment counts and their per-sweep
	// fairness/skew rollups (always allocated).
	Balance *obs.Balance
	// SLOEngine derives multi-window availability and latency burn rates
	// from the discovery counters (always allocated).
	SLOEngine *obs.SLO
	// ReplLeader serves the replication stream (nil unless
	// Config.ReplLeader was set).
	ReplLeader *repl.Leader

	// follower is the attached replication follower on a follower node
	// (set after construction via AttachFollower; scrapes read it).
	follower   atomic.Pointer[repl.Follower]
	replFollow string // leader base URL when this node is a follower

	discovery discoveryMetrics
	bootEpoch uint64                        // RespCache.Epoch() when New returned
	renders   [numEncodings]metrics.Counter // bindings answers rendered, by encoding
	expo      *obs.Exposition
	pprof     bool

	handlerOnce sync.Once
	handler     http.Handler                  // built once by Handler()
	edge        atomic.Pointer[router.Router] // the frozen router, for scrape-time reads

	adminID string
	catOnce sync.Once
	cat     *cataloger.Registry

	outboxMu sync.Mutex
	outboxes []*events.EmailDeliverer // guarded by outboxMu
}

// New builds a registry from cfg.
func New(cfg Config) (*Registry, error) {
	clk := cfg.Clock
	if clk == nil {
		clk = simclock.Real{}
	}
	logger := obs.OrNop(cfg.Logger)
	s := store.New()
	bal := &core.Balancer{
		Table:          s.NodeState(),
		Policy:         cfg.Policy,
		TimeMode:       cfg.TimeMode,
		Freshness:      cfg.Freshness,
		FallbackAll:    cfg.FallbackAll,
		Degraded:       cfg.Degraded,
		SnapshotMaxAge: cfg.SnapshotMaxAge,
	}
	// A preserialized answer is valid while the store it was computed from
	// is unchanged — whoever changed it: this node's writes, replay, the
	// follower — and, under admission control, while the brownout ladder
	// has not moved: each transition also changes the overrides the
	// controller hands the balancer.
	changes := []func() uint64{s.Changes}
	var ctrl *admit.Controller
	if cfg.Admission != nil {
		ctrl = admit.NewController(*cfg.Admission, clk, logger.With("component", "admit"))
		bal.Brownout = ctrl
		changes = append(changes, func() uint64 { return uint64(ctrl.TierChanges()) })
	}
	respCache := respcache.New(s.Services, changes...)
	trail := audit.New(s, clk)
	bus := events.NewBus()
	lifecycle := lcm.New(s, xacml.DefaultPolicy(), trail, bus)
	lifecycle.Log = logger.With("component", "lcm")
	query := qm.New(s, bal, clk)
	registrar := auth.NewRegistrar(clk)

	// Durability comes up before any bootstrap write so recovery (newest
	// checkpoint + WAL tail) restores into an empty store, and before the
	// first client request so every acknowledged mutation is logged.
	var durable *wal.Durable
	if cfg.DataDir != "" {
		var err error
		durable, err = wal.OpenDurable(cfg.DataDir, s, wal.DurableOptions{
			Log: wal.Options{
				Fsync:  cfg.Fsync,
				Clock:  clk,
				Logger: logger.With("component", "wal"),
			},
			CheckpointRecords: cfg.CheckpointRecords,
		})
		if err != nil {
			return nil, err
		}
		lifecycle.Durability = durable
	}

	invoker := cfg.Invoker
	if invoker == nil {
		invoker = nodestatus.HTTPInvoker{}
	}
	var breakers *breaker.Set
	opts := []nodestate.Option{
		nodestate.WithLogger(logger.With("component", "collector")),
	}
	if cfg.CollectionPeriod > 0 {
		opts = append(opts, nodestate.WithPeriod(cfg.CollectionPeriod))
	}
	if cfg.InvokeTimeout > 0 {
		opts = append(opts, nodestate.WithTimeout(cfg.InvokeTimeout))
	}
	if cfg.InvokeRetries > 0 {
		opts = append(opts, nodestate.WithRetries(cfg.InvokeRetries, cfg.RetryBackoff))
	}
	if cfg.Breaker != nil {
		breakers = breaker.NewSet(*cfg.Breaker)
		opts = append(opts, nodestate.WithBreakers(breakers))
	}

	r := &Registry{
		Store:     s,
		Clock:     clk,
		Balancer:  bal,
		LCM:       lifecycle,
		QM:        query,
		Trail:     trail,
		Bus:       bus,
		Registrar: registrar,
		Breakers:  breakers,

		ConstraintCache: constraint.NewCache(0),
		Sampler:         flight.NewSampler(clk, cfg.TraceSample),
		Log:             logger.With("component", "registry"),
		Durable:         durable,
		Admission:       ctrl,
		RespCache:       respCache,
		Flight:          flight.NewRing(0),
		Balance:         obs.NewBalance(),
		SLOEngine:       obs.NewSLO(obs.DefaultSLOConfig()),
		pprof:           cfg.Pprof,
	}
	// Balance and SLO rollups ride the collector's sweep cadence: the
	// same tick that republishes the NodeState snapshot cuts a fairness
	// interval and an SLO sample, on the wall clock in production and the
	// manual clock in tests — one deterministic heartbeat for both.
	opts = append(opts, nodestate.WithAfterSweep(r.rollup))
	r.Collector = nodestate.New(s.NodeState(), invoker, clk, query.CollectionTargets, opts...)
	if cfg.ReplLeader {
		if durable == nil {
			return nil, fmt.Errorf("registry: ReplLeader requires DataDir")
		}
		if cfg.ReplFollowURL != "" {
			return nil, fmt.Errorf("registry: ReplLeader and ReplFollowURL are mutually exclusive")
		}
		r.ReplLeader = repl.NewLeader(durable, clk, logger.With("component", "repl"))
	}
	r.replFollow = strings.TrimRight(cfg.ReplFollowURL, "/")
	r.discovery.latency = obs.NewHistogramMetric(obs.DiscoveryLatencyBuckets()...)
	r.discovery.balance = r.Balance
	r.expo = r.buildExposition()

	// Seed the canonical classification schemes (Table 1.2 + the
	// registry's own ObjectType/AssociationType schemes) — unless recovery
	// already restored them: Seed refuses to overwrite existing schemes.
	if len(s.ByType(rim.TypeClassificationScheme)) == 0 {
		if _, err := taxonomy.Seed(s); err != nil {
			return nil, err
		}
	}

	// Bootstrap the registry operator account. Registrar state (keystore,
	// sessions) is in-memory, so the operator re-registers on every boot
	// with a fresh id, and the rows recovered from previous boots are
	// superseded — as one mutation through the log, like every other
	// acknowledged write, so that a boot does not need a checkpoint to
	// make it durable.
	_, adminUser, err := registrar.Register(AdminAlias, auth.DefaultKeystorePassword,
		rim.PersonName{FirstName: "Registry", LastName: "Operator"})
	if err != nil {
		return nil, err
	}
	var superseded []string
	for _, old := range s.FindByName(rim.TypeUser, AdminAlias) {
		superseded = append(superseded, old.Base().ID)
	}
	if err := lifecycle.SwapDirect(superseded, adminUser); err != nil {
		return nil, err
	}
	r.adminID = adminUser.ID

	// No checkpoint was loaded: this is a first boot (or one that never got
	// as far as its checkpoint). Write one, to cover the taxonomy seed —
	// the only write that bypasses the log — and to give a follower
	// something to bootstrap from. Every later boot leaves checkpointing to
	// the record and byte thresholds, which count the replayed tail too, so
	// a crash loop's tail stays bounded by them.
	if durable != nil && durable.Recovery().Checkpoint == 0 {
		if err := durable.Checkpoint(); err != nil {
			return nil, err
		}
	}
	r.bootEpoch = respCache.Epoch()
	return r, nil
}

// AdminContext returns the operator's LCM context.
func (r *Registry) AdminContext() lcm.Context {
	return lcm.Context{UserID: r.adminID, Roles: []string{xacml.RoleAdministrator}}
}

// ContextFor builds the LCM context for an authenticated user id.
func (r *Registry) ContextFor(userID string) lcm.Context {
	roles := []string{xacml.RoleRegisteredUser}
	if userID == r.adminID {
		roles = append(roles, xacml.RoleAdministrator)
	}
	return lcm.Context{UserID: userID, Roles: roles}
}

// SessionContext resolves a session token to an LCM context; an empty or
// invalid token yields the guest context and an error callers may ignore
// for read-only paths.
func (r *Registry) SessionContext(token string) (lcm.Context, error) {
	if token == "" {
		return lcm.Guest, nil
	}
	userID, err := r.Registrar.Validate(token)
	if err != nil {
		return lcm.Guest, err
	}
	return r.ContextFor(userID), nil
}

// RunCollector runs the NodeStatus collection loop until ctx is done —
// the TimeHits timer the thesis starts inside the registry server.
func (r *Registry) RunCollector(ctx context.Context) {
	r.Collector.Run(ctx)
}

// AttachFollower wires a replication follower into the registry's
// observability surface (metrics, health, bundle). Call it once, before
// serving traffic. The follower applies into r.Store, whose change count
// the response cache reads, so nothing else needs telling.
func (r *Registry) AttachFollower(f *repl.Follower) {
	r.follower.Store(f)
}

// notLeader builds the typed redirect a follower answers writes with:
// 307 + Location at the leader's matching endpoint, plus a
// NotRegistryLeader SOAP fault body for clients that do not follow
// redirects.
func (r *Registry) notLeader(endpoint string) *soap.Redirect {
	return &soap.Redirect{
		Location: r.replFollow + endpoint,
		Fault: &soap.Fault{
			Code:   "Server.NotRegistryLeader",
			String: "this registry is a read-only replication follower; retry the write at the leader",
			Detail: r.replFollow,
		},
	}
}
