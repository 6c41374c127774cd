// Command regserver runs the load-balancing ebXML registry server: the
// SOAP and HTTP-GET bindings of thesis Fig. 2.1 plus the NodeStatus
// collection loop of §3.2. State lives in memory unless -data-dir names a
// durability directory.
//
// Usage:
//
//	regserver -addr :8080 -policy filter -period 25s -data-dir /var/lib/registry
//
// Policies: stock (no balancing), filter (thesis), rank-first,
// least-loaded.
//
// Fault tolerance: -invoke-timeout bounds each NodeStatus call,
// -invoke-retries/-retry-backoff retry transient failures,
// -breaker-threshold enables per-host circuit breakers (0 disables), and
// -degraded picks what discovery serves when every candidate host is
// quarantined or stale (empty = drop the request, static = fall back to
// the stored binding order like a vanilla registry).
//
// Discovery fast path: -snapshot-staleness lets discovery serve a NodeState
// snapshot up to that old without locking while the collector writes (0 =
// always coherent; the collection period is a sensible value).
//
// Serving edge: all routes dispatch through a frozen static router —
// -edge-max-path-length (414 past it) and -edge-max-depth (400 past it)
// bound abusive request paths — and -edge-respcache-size bounds the
// preserialized discovery response cache (0 = default 1024, negative =
// disable), which serves repeat GetBindings answers with zero allocation
// until a write, brownout transition, snapshot republish, or
// constraint-window/freshness boundary invalidates them.
//
// Durability: -data-dir enables the write-ahead log + checkpoint
// subsystem — every acknowledged LCM write is logged before the HTTP
// response and boot recovers the newest checkpoint plus the WAL tail, so
// a kill -9 loses nothing. -fsync picks the flush policy
// (always|interval|never), -fsync-interval bounds loss under interval,
// and -checkpoint-bytes/-checkpoint-records tune automatic checkpoints.
// A follower acknowledges nothing, so on its local log (-repl-dir) always
// means interval: whatever tail a crash takes, the leader sends again.
//
// Overload resilience: -admission (default on) puts every serving route
// behind per-class admission control — bounded in-flight and wait-queue
// limits for discovery reads (-discovery-inflight, -discovery-queue,
// -discovery-queue-timeout) and LCM/SOAP writes (-lcm-*), adaptive AIMD
// load shedding (-shed-tick, -shed-latency-target, -shed-min-accept)
// that rejects excess load early with 503 + Retry-After (-retry-after),
// server-side deadline budgets per class (-discovery-deadline,
// -lcm-deadline; clients can tighten them via the X-Registry-Deadline-Ms
// header), and a brownout ladder (-brownout-escalate, -brownout-calm,
// -brownout-staleness) that sheds quality stepwise under sustained
// pressure: tracing off, then stale snapshots, then static fallback.
// -max-body-bytes caps request bodies on admitted routes. Health,
// metrics, traces, and the UI always answer. -admission=false restores
// the unconditional pre-admission edge.
//
// Replication: -repl-leader (requires -data-dir) serves the WAL stream at
// /registry/repl/wal and checkpoint bootstrap at /registry/repl/checkpoint
// so followers can tail every committed write. -repl-follow <leader-url>
// (requires -repl-dir for durable applied-position state) runs this
// registry as a read-only follower: it bootstraps from the leader's
// checkpoint, tails the WAL stream, applies records through the idempotent
// replay path, and answers discovery from local state while redirecting
// writes to the leader with 307 + a NotRegistryLeader fault.
// -repl-poll-wait (how long one streamed WAL response stays open),
// -repl-max-batch, -repl-backoff, -repl-backoff-max, and -repl-seed tune
// the tailer loop.
//
// Observability: /registry/metrics serves Prometheus text exposition.
// The always-on flight recorder keeps one fixed-size record per edge
// request in a lock-free ring served with filtering at /registry/flight
// (-flight-ring bounds it; negative disables). -trace-sample N gives every
// Nth request on the discovery routes a trace id (echoed in the
// X-Registry-Trace header) and per-stage timings in its record (0 = off;
// refused together with a disabled ring); /registry/traces serves those
// records. -log-level/-log-format configure structured logging, and -pprof
// mounts net/http/pprof under /debug/pprof/. Per-sweep balance-quality
// rollups and multi-window SLO burn rates export as
// registry_balance_*/registry_slo_* series (-slo-availability,
// -slo-latency, -slo-latency-quantile set the objectives),
// /registry/health carries a per-component rollup, and
// /registry/debug/bundle captures config, metrics, flight records, WAL
// position, and (with ?goroutines=1) a goroutine dump in one request.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/admit"
	"repro/internal/breaker"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/repl"
	"repro/internal/wal"
)

func main() {
	var (
		addr   = flag.String("addr", ":8080", "listen address")
		policy = flag.String("policy", "filter", "balancing policy: stock|filter|rank-first|least-loaded")
		period = flag.Duration("period", 25*time.Second, "NodeStatus collection period")

		dataDir     = flag.String("data-dir", "", "durability directory: WAL + checkpoints; every write survives a crash")
		fsyncPolicy = flag.String("fsync", "always", "WAL flush policy: always|interval|never (a follower's local log reads always as interval)")
		fsyncEvery  = flag.Duration("fsync-interval", 0, "max time between fsyncs under -fsync interval (0 = default 100ms)")
		ckptBytes   = flag.Int64("checkpoint-bytes", 0, "checkpoint after this many WAL bytes (0 = default 8MiB, negative = off)")
		ckptRecords = flag.Int("checkpoint-records", 0, "checkpoint after this many WAL records (0 = default 10000, negative = off)")
		fresh       = flag.Duration("freshness", 0, "NodeState staleness cutoff (0 = none)")
		fallback    = flag.Bool("fallback", false, "serve load-ordered URIs when no host satisfies constraints")

		invokeTimeout = flag.Duration("invoke-timeout", 10*time.Second, "deadline per NodeStatus invocation (0 = none)")
		invokeRetries = flag.Int("invoke-retries", 1, "retries per failed NodeStatus invocation")
		retryBackoff  = flag.Duration("retry-backoff", 2*time.Second, "base backoff between invocation retries")
		brkThreshold  = flag.Int("breaker-threshold", 3, "consecutive failures that trip a host's breaker (0 = breakers off)")
		brkBackoff    = flag.Duration("breaker-backoff", 50*time.Second, "first breaker open interval (doubles per trip)")
		brkMax        = flag.Duration("breaker-max-backoff", 10*time.Minute, "cap on breaker backoff growth")
		degraded      = flag.String("degraded", "empty", "discovery result when all hosts are quarantined/stale: empty|static")

		snapStaleness = flag.Duration("snapshot-staleness", 0, "serve NodeState snapshots up to this old without locking (0 = always coherent)")

		edgeRespCache = flag.Int("edge-respcache-size", 0, "preserialized discovery response cache bound (0 = default 1024, negative = disable)")
		edgeMaxPath   = flag.Int("edge-max-path-length", 0, "frozen router: request paths longer than this answer 414 (0 = default 1024)")
		edgeMaxDepth  = flag.Int("edge-max-depth", 0, "frozen router: request paths deeper than this many segments answer 400 (0 = default 8)")

		admission    = flag.Bool("admission", true, "admission-controlled serving edge: shedding, deadlines, brownout")
		discInflight = flag.Int("discovery-inflight", 0, "max concurrent discovery requests (0 = default 64)")
		discQueue    = flag.Int("discovery-queue", 0, "discovery wait-queue bound (0 = default 128, negative = no queue)")
		discQWait    = flag.Duration("discovery-queue-timeout", 0, "max discovery queue wait (0 = default 1s)")
		discDeadline = flag.Duration("discovery-deadline", 0, "server-side discovery budget (0 = default 2s, negative = none)")
		lcmInflight  = flag.Int("lcm-inflight", 0, "max concurrent LCM/SOAP writes (0 = default 16)")
		lcmQueue     = flag.Int("lcm-queue", 0, "LCM wait-queue bound (0 = default 32, negative = no queue)")
		lcmQWait     = flag.Duration("lcm-queue-timeout", 0, "max LCM queue wait (0 = default 2s)")
		lcmDeadline  = flag.Duration("lcm-deadline", 0, "server-side LCM budget (0 = default 5s, negative = none)")

		shedTick      = flag.Duration("shed-tick", 0, "AIMD shedder adjustment interval (0 = default 250ms)")
		shedTarget    = flag.Duration("shed-latency-target", 0, "latency above which a class counts overloaded (0 = deadline/4)")
		shedMinAccept = flag.Float64("shed-min-accept", 0, "accept-rate floor under overload (0 = default 0.05)")
		retryAfter    = flag.Duration("retry-after", 0, "advisory Retry-After on shed responses (0 = default 1s)")
		brownEscalate = flag.Duration("brownout-escalate", 0, "sustained pressure before the ladder climbs (0 = default 5s)")
		brownCalm     = flag.Duration("brownout-calm", 0, "sustained calm before the ladder steps down (0 = default 10s)")
		brownStale    = flag.Duration("brownout-staleness", 0, "extra snapshot age tolerated at tier stale+ (0 = default 2m)")
		maxBodyBytes  = flag.Int64("max-body-bytes", 0, "request body cap on admitted routes (0 = default 8MiB)")

		replLeader     = flag.Bool("repl-leader", false, "serve the WAL replication stream for followers (requires -data-dir)")
		replFollow     = flag.String("repl-follow", "", "run as a read-only follower of this leader base URL")
		replDir        = flag.String("repl-dir", "", "follower state directory: local WAL + applied-position checkpoints")
		replPollWait   = flag.Duration("repl-poll-wait", 0, "how long one streamed WAL response stays open (0 = default 10s)")
		replMaxBatch   = flag.Int("repl-max-batch", 0, "max records per follower WAL fetch (0 = leader's cap)")
		replBackoff    = flag.Duration("repl-backoff", 0, "base follower reconnect backoff (0 = default 250ms)")
		replBackoffMax = flag.Duration("repl-backoff-max", 0, "cap on follower reconnect backoff (0 = default 15s)")
		replSeed       = flag.Int64("repl-seed", 1, "seed for the follower's jittered backoff")

		logLevel    = flag.String("log-level", "info", "log level: debug|info|warn|error")
		logFormat   = flag.String("log-format", "text", "log format: text|json")
		traceSample = flag.Int("trace-sample", 0, "trace every Nth discovery request (0 = tracing off; needs the flight ring)")
		flightRing  = flag.Int("flight-ring", 0, "flight-recorder record ring for /registry/flight (0 = default 4096, negative = recorder off)")
		sloAvail    = flag.Float64("slo-availability", 0, "availability objective for burn rates (0 = default 0.999)")
		sloLatency  = flag.Duration("slo-latency", 0, "latency objective for burn rates (0 = default 250ms)")
		sloQuantile = flag.Float64("slo-latency-quantile", 0, "fraction of requests that must meet -slo-latency (0 = default 0.99)")
		pprofFlag   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		log.Fatal(err)
	}
	slog.SetDefault(logger)

	p, err := parsePolicy(*policy)
	if err != nil {
		log.Fatal(err)
	}
	dm, err := parseDegraded(*degraded)
	if err != nil {
		log.Fatal(err)
	}
	fp, err := wal.ParseFsyncPolicy(*fsyncPolicy)
	if err != nil {
		log.Fatal(err)
	}
	cfg := registry.Config{
		Policy:           p,
		CollectionPeriod: *period,
		Freshness:        *fresh,
		FallbackAll:      *fallback,
		Degraded:         dm,
		InvokeTimeout:    *invokeTimeout,
		InvokeRetries:    *invokeRetries,
		RetryBackoff:     *retryBackoff,

		SnapshotMaxAge: *snapStaleness,

		RespCacheSize:     *edgeRespCache,
		EdgeMaxPathLength: *edgeMaxPath,
		EdgeMaxDepth:      *edgeMaxDepth,

		Logger:      logger,
		TraceSample: *traceSample,
		FlightRing:  *flightRing,
		Pprof:       *pprofFlag,

		DataDir:           *dataDir,
		Fsync:             fp,
		FsyncInterval:     *fsyncEvery,
		CheckpointBytes:   *ckptBytes,
		CheckpointRecords: *ckptRecords,

		ReplLeader:    *replLeader,
		ReplFollowURL: *replFollow,
	}
	if *replFollow != "" {
		switch {
		case *replDir == "":
			logger.Error("-repl-follow requires -repl-dir: the follower needs a state directory for its durable applied position")
			os.Exit(1)
		case *dataDir != "":
			logger.Error("-repl-follow and -data-dir are mutually exclusive: the follower's replication state directory (-repl-dir) is its durability")
			os.Exit(1)
		}
	}
	if *admission {
		cfg.Admission = &admit.Config{
			Discovery: admit.ClassLimits{
				MaxInFlight:  *discInflight,
				MaxQueue:     *discQueue,
				QueueTimeout: *discQWait,
				Deadline:     *discDeadline,
			},
			LCM: admit.ClassLimits{
				MaxInFlight:  *lcmInflight,
				MaxQueue:     *lcmQueue,
				QueueTimeout: *lcmQWait,
				Deadline:     *lcmDeadline,
			},
			Tick:              *shedTick,
			LatencyTarget:     *shedTarget,
			MinAccept:         *shedMinAccept,
			RetryAfter:        *retryAfter,
			BrownoutEscalate:  *brownEscalate,
			BrownoutCalm:      *brownCalm,
			BrownoutStaleness: *brownStale,
			MaxBodyBytes:      *maxBodyBytes,
		}
	}
	if *sloAvail != 0 || *sloLatency != 0 || *sloQuantile != 0 {
		slo := obs.DefaultSLOConfig()
		if *sloAvail > 0 {
			slo.AvailabilityTarget = *sloAvail
		}
		if *sloLatency > 0 {
			slo.LatencyObjectiveSeconds = sloLatency.Seconds()
		}
		if *sloQuantile > 0 {
			slo.LatencyTargetQuantile = *sloQuantile
		}
		cfg.SLO = &slo
	}
	if *brkThreshold > 0 {
		cfg.Breaker = &breaker.Config{
			Threshold:   *brkThreshold,
			BaseBackoff: *brkBackoff,
			MaxBackoff:  *brkMax,
		}
	}
	reg, err := registry.New(cfg)
	if err != nil {
		logger.Error("registry construction failed", "error", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go reg.RunCollector(ctx)

	var follower *repl.Follower
	var followerDone chan struct{}
	if *replFollow != "" {
		follower, err = repl.OpenFollower(*replDir, reg.Store, repl.FollowerOptions{
			LeaderURL:   *replFollow,
			Logger:      logger.With("component", "repl"),
			Seed:        *replSeed,
			PollWait:    *replPollWait,
			MaxBatch:    *replMaxBatch,
			BackoffBase: *replBackoff,
			BackoffMax:  *replBackoffMax,
			Log:         wal.Options{Fsync: fp, FsyncInterval: *fsyncEvery},
		})
		if err != nil {
			logger.Error("follower open failed", "dir", *replDir, "error", err)
			os.Exit(1)
		}
		reg.AttachFollower(follower)
		followerDone = make(chan struct{})
		go func() {
			follower.Run(ctx)
			close(followerDone)
		}()
		logger.Info("replication follower tailing leader", "leader", *replFollow, "dir", *replDir)
	}

	srv := registry.HardenedServer(*addr, reg.Handler())
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()

	logger.Info("ebXML registry listening",
		"addr", *addr, "policy", p.String(), "period", period.String(),
		"admission", *admission, "traceSample", *traceSample, "pprof", *pprofFlag)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		logger.Error("server failed", "error", err)
		os.Exit(1)
	}

	if follower != nil {
		// The tailer loop stopped with ctx; seal follower state so the
		// next boot resumes from the durable applied position.
		<-followerDone
		if err := follower.Close(); err != nil {
			logger.Error("follower shutdown failed", "error", err)
			os.Exit(1)
		}
		logger.Info("follower state closed", "dir", *replDir, "objects", reg.Store.Len())
	}
	if reg.Durable != nil {
		// Graceful shutdown: checkpoint and seal the WAL so the next boot
		// replays nothing.
		if err := reg.Durable.Close(); err != nil {
			logger.Error("durability shutdown failed", "error", err)
			os.Exit(1)
		}
		logger.Info("durability closed", "objects", reg.Store.Len(), "dir", *dataDir)
	}
}

func parsePolicy(s string) (core.Policy, error) {
	switch s {
	case "stock":
		return core.PolicyStock, nil
	case "filter":
		return core.PolicyFilter, nil
	case "rank-first":
		return core.PolicyRankFirst, nil
	case "least-loaded":
		return core.PolicyLeastLoaded, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", s)
	}
}

func parseDegraded(s string) (core.DegradedMode, error) {
	switch s {
	case "empty":
		return core.DegradedEmpty, nil
	case "static":
		return core.DegradedStatic, nil
	default:
		return 0, fmt.Errorf("unknown degraded mode %q", s)
	}
}
