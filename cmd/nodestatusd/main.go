// Command nodestatusd runs the NodeStatus Web Service for one (simulated)
// host — the per-host agent the administrator deploys in thesis Fig. 3.7.
// The underlying host is a hostsim machine whose load can be made to move
// with a background churn workload, so a live registry polling this daemon
// sees realistic load dynamics.
//
// Usage:
//
//	nodestatusd -name thermo.sdsu.edu -addr :9101 -cores 2 -mem 4096 \
//	    -swap 2048 -ambient 0.3 -churn 0.2
//
// The registry should be given the access URI
// http://<host>:<port>/NodeStatus/NodeStatusService as a binding of the
// published NodeStatus service.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/hostsim"
	"repro/internal/nodestatus"
	"repro/internal/obs"
	"repro/internal/simclock"
)

func main() {
	var (
		name    = flag.String("name", "host.local", "reported hostname")
		addr    = flag.String("addr", ":9101", "listen address")
		cores   = flag.Int("cores", 2, "CPU cores")
		memMB   = flag.Int64("mem", 4096, "physical memory in MB")
		swapMB  = flag.Int64("swap", 2048, "swap in MB")
		ambient = flag.Float64("ambient", 0, "constant background load")
		churn   = flag.Float64("churn", 0, "background task arrival rate per second (0 = static)")
		seed    = flag.Int64("seed", 1, "churn randomness seed")

		logLevel  = flag.String("log-level", "info", "log level: debug|info|warn|error")
		logFormat = flag.String("log-format", "text", "log format: text|json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// Parse stops at the first word that is not a flag; every flag
		// after it would be silently ignored.
		fmt.Fprintf(flag.CommandLine.Output(), "nodestatusd: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		log.Fatal(err)
	}
	logger = logger.With("component", "nodestatusd")
	slog.SetDefault(logger)

	clk := simclock.Real{}
	host := hostsim.NewHost(hostsim.Config{
		Name:        *name,
		Cores:       *cores,
		TotalMemB:   *memMB << 20,
		TotalSwapB:  *swapMB << 20,
		AmbientLoad: *ambient,
	}, clk.Now())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *churn > 0 {
		go runChurn(ctx, host, clk, *churn, *seed, logger)
	}

	mux := http.NewServeMux()
	mux.Handle("/NodeStatus/NodeStatusService", nodestatus.NewHandler(host, clk))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "ok load=%.2f queue=%d\n", host.LoadAvg(), host.RunQueue())
	})

	// Edge hardening: the daemon is polled by registries, not browsers,
	// so slow-client allowances can be tight.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    64 << 10,
	}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()

	logger.Info("NodeStatus listening",
		"host", *name, "addr", *addr, "cores", *cores, "memMB", *memMB, "churn", *churn)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		logger.Error("server failed", "error", err)
		os.Exit(1)
	}
}

// runChurn submits short background tasks at the given Poisson rate so the
// host's load average moves over time.
func runChurn(ctx context.Context, host *hostsim.Host, clk simclock.Clock, rate float64, seed int64, logger *slog.Logger) {
	rng := rand.New(rand.NewSource(seed))
	n := 0
	for {
		gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		select {
		case <-ctx.Done():
			return
		case <-clk.After(gap):
		}
		n++
		task := hostsim.Task{
			ID:         fmt.Sprintf("churn-%d", n),
			CPUSeconds: 2 + 8*rng.Float64(),
			MemB:       int64(8+rng.Intn(56)) << 20,
		}
		now := clk.Now()
		host.AdvanceTo(now)
		if err := host.Submit(task, now); err != nil {
			logger.Debug("churn task rejected", "task", task.ID, "error", err)
		}
	}
}
