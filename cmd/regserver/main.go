// Command regserver runs the load-balancing ebXML registry server: the
// SOAP and HTTP-GET bindings of thesis Fig. 2.1 plus the NodeStatus
// collection loop of §3.2.
//
// Usage:
//
//	regserver -addr :8080 -policy filter -period 25s -data-dir /var/lib/registry
//
// A flag exists only for where the process lives and whom it talks to, or
// because something in this repository passes it (DESIGN.md
// "Configuration"). Everything else is the default of the package that
// owns it, or the profile literal in parse.
//
// What is served: -policy picks the arrangement (stock = no balancing,
// filter = the thesis's scheme, rank-first, least-loaded), -period is the
// thesis's one administrator dial, and -snapshot-staleness lets discovery
// read a NodeState snapshot up to that old without locking while the
// collector writes (0 = always coherent; the collection period is a
// sensible value). -admission=false takes the admission-controlled edge
// (internal/admit) off every route.
//
// Where state lives: in memory unless -data-dir names a durability
// directory — every acknowledged LCM write is then logged before the HTTP
// response and boot recovers the newest checkpoint plus the WAL tail, so a
// kill -9 loses nothing; -fsync picks the flush policy. SIGINT and SIGTERM
// shut down gracefully: a final checkpoint, so the next boot replays
// nothing.
//
// Whom it talks to: -repl-leader (requires -data-dir) serves the WAL
// stream and checkpoint bootstrap under /registry/repl/. -repl-follow
// <leader-url> (requires -repl-dir, excludes -data-dir) runs a read-only
// follower: it bootstraps from the leader's checkpoint, tails its WAL,
// answers discovery locally and redirects writes with 307 + a
// NotRegistryLeader fault. A follower acknowledges nothing, so on its
// local log -fsync always means interval: whatever tail a crash takes,
// the leader sends again.
//
// What it tells: -log-level/-log-format configure structured logging,
// -trace-sample N gives every Nth discovery request a trace id
// (X-Registry-Trace) and stage timings in its flight record, and -pprof
// mounts net/http/pprof under /debug/pprof/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/admit"
	"repro/internal/breaker"
	"repro/internal/core"
	"repro/internal/nodestate"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/repl"
	"repro/internal/wal"
)

// options is what the command line decides.
type options struct {
	addr     string
	registry registry.Config
	// follower.LeaderURL is empty unless -repl-follow was given; replDir
	// is then the follower's state directory.
	follower repl.FollowerOptions
	replDir  string
}

func main() {
	o, err := parse(os.Args[1:], os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return
	case err != nil:
		os.Exit(2) // parse has said why
	}
	if err := run(o); err != nil {
		o.registry.Logger.Error("regserver failed", "error", err)
		os.Exit(1)
	}
}

// parse turns the command line into the configuration run serves. It
// reports what it refuses on stderr, where the logger it builds also
// writes.
func parse(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("regserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr   = fs.String("addr", ":8080", "listen address")
		policy = fs.String("policy", "filter", "balancing policy: stock|filter|rank-first|least-loaded")
		period = fs.Duration("period", nodestate.DefaultPeriod, "NodeStatus collection period")

		snapStaleness = fs.Duration("snapshot-staleness", 0, "serve NodeState snapshots up to this old without locking (0 = always coherent)")
		admission     = fs.Bool("admission", true, "admission-controlled serving edge: shedding, deadlines, brownout")

		dataDir     = fs.String("data-dir", "", "durability directory: WAL + checkpoints; every write survives a crash")
		fsyncPolicy = fs.String("fsync", "always", "WAL flush policy: always|interval|never (a follower's local log reads always as interval)")

		replLeader = fs.Bool("repl-leader", false, "serve the WAL replication stream for followers (requires -data-dir)")
		replFollow = fs.String("repl-follow", "", "run as a read-only follower of this leader base URL")
		replDir    = fs.String("repl-dir", "", "follower state directory: local WAL + applied-position checkpoints")

		logLevel    = fs.String("log-level", "info", "log level: debug|info|warn|error")
		logFormat   = fs.String("log-format", "text", "log format: text|json")
		traceSample = fs.Int("trace-sample", 0, "trace every Nth discovery request (0 = tracing off)")
		pprofFlag   = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err // the flag package has printed it, with the usage
	}
	refuse := func(err error) (options, error) {
		fmt.Fprintln(stderr, "regserver:", err)
		return options{}, err
	}
	if fs.NArg() > 0 {
		// Parse stops at the first word that is not a flag. Serving
		// without the flags behind it (a -data-dir, say) would be a
		// different server from the one that was asked for.
		fs.Usage()
		return refuse(fmt.Errorf("unexpected argument %q: every flag after it would be ignored", fs.Arg(0)))
	}

	// Values the registry would quietly read as something else: it ignores
	// a non-positive period and collects every 25 s, and takes a negative
	// staleness or sampling rate for 0.
	switch {
	case *period <= 0:
		return refuse(fmt.Errorf("-period %s: the collection period must be positive", *period))
	case *snapStaleness < 0:
		return refuse(fmt.Errorf("-snapshot-staleness %s: must not be negative (0 = always coherent)", *snapStaleness))
	case *traceSample < 0:
		return refuse(fmt.Errorf("-trace-sample %d: must not be negative (0 = tracing off)", *traceSample))
	}

	logger, err := obs.NewLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		return refuse(err)
	}
	p, err := parsePolicy(*policy)
	if err != nil {
		return refuse(err)
	}
	fp, err := wal.ParseFsyncPolicy(*fsyncPolicy)
	if err != nil {
		return refuse(err)
	}
	o := options{
		addr: *addr,
		registry: registry.Config{
			Policy:           p,
			CollectionPeriod: *period,
			SnapshotMaxAge:   *snapStaleness,

			Logger:      logger,
			TraceSample: *traceSample,
			Pprof:       *pprofFlag,

			DataDir:       *dataDir,
			Fsync:         fp,
			ReplLeader:    *replLeader,
			ReplFollowURL: *replFollow,

			// The binary's profile: what Config{} leaves off. The zero
			// Config, which tests and experiments start from, invokes
			// NodeStatus with no deadline, no retry and no breaker; a
			// process that polls real hosts bounds each call, retries it
			// once and quarantines a host that keeps failing.
			InvokeTimeout: 10 * time.Second,
			InvokeRetries: 1,
			RetryBackoff:  2 * time.Second,
			Breaker: &breaker.Config{
				Threshold:   breaker.DefaultThreshold,
				BaseBackoff: breaker.DefaultBaseBackoff,
				MaxBackoff:  breaker.DefaultMaxBackoff,
			},
		},
	}
	if *admission {
		o.registry.Admission = &admit.Config{}
	}
	if *replFollow != "" {
		switch {
		case *replDir == "":
			return refuse(errors.New("-repl-follow requires -repl-dir: the follower needs a state directory for its durable applied position"))
		case *dataDir != "":
			return refuse(errors.New("-repl-follow and -data-dir are mutually exclusive: the follower's replication state directory (-repl-dir) is its durability"))
		}
		o.replDir = *replDir
		o.follower = repl.FollowerOptions{
			LeaderURL: *replFollow,
			Logger:    logger.With("component", "repl"),
			Seed:      1, // jitters the reconnect backoff; any fixed value will do
			Log:       wal.Options{Fsync: fp},
		}
	}
	return o, nil
}

// run serves o until SIGINT or SIGTERM, then seals whatever state the
// process owns.
func run(o options) error {
	logger := o.registry.Logger
	slog.SetDefault(logger)
	reg, err := registry.New(o.registry)
	if err != nil {
		return fmt.Errorf("registry construction: %w", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go reg.RunCollector(ctx)

	var follower *repl.Follower
	var followerDone chan struct{}
	if o.follower.LeaderURL != "" {
		follower, err = repl.OpenFollower(o.replDir, reg.Store, o.follower)
		if err != nil {
			return fmt.Errorf("follower open in %s: %w", o.replDir, err)
		}
		reg.AttachFollower(follower)
		followerDone = make(chan struct{})
		go func() {
			follower.Run(ctx)
			close(followerDone)
		}()
		logger.Info("replication follower tailing leader", "leader", o.follower.LeaderURL, "dir", o.replDir)
	}

	// Listen before saying so: with -addr host:0 the log line is where the
	// port is learnt.
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	srv := registry.HardenedServer(o.addr, reg.Handler())
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()

	logger.Info("ebXML registry listening",
		"addr", ln.Addr().String(), "policy", o.registry.Policy.String(), "period", o.registry.CollectionPeriod.String(),
		"admission", o.registry.Admission != nil, "traceSample", o.registry.TraceSample, "pprof", o.registry.Pprof)
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}

	if follower != nil {
		// The tailer loop stopped with ctx; seal follower state so the
		// next boot resumes from the durable applied position.
		<-followerDone
		if err := follower.Close(); err != nil {
			return fmt.Errorf("follower shutdown: %w", err)
		}
		logger.Info("follower state closed", "dir", o.replDir, "objects", reg.Store.Len())
	}
	if reg.Durable != nil {
		// Graceful shutdown: checkpoint and seal the WAL so the next boot
		// replays nothing.
		if err := reg.Durable.Close(); err != nil {
			return fmt.Errorf("durability shutdown: %w", err)
		}
		logger.Info("durability closed", "objects", reg.Store.Len(), "dir", o.registry.DataDir)
	}
	return nil
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
