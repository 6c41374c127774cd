package integration

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hostsim"
	"repro/internal/jaxr"
	"repro/internal/nodestatus"
	"repro/internal/registry"
	"repro/internal/rim"
	"repro/internal/simclock"
)

// TestBreakerTripsUnderConcurrentDiscovery mixes the fault-tolerance
// machinery's writers and readers: a fault-injected collector tripping and
// resetting per-host breakers, discovery queries classifying (and
// degrading over) the same NodeState rows, health/telemetry snapshots for
// the web UI, and the manual clock advancing under all of them. Like the
// other race tests it asserts only error-freedom and final invariants —
// its job is to make `go test -race` fail if the breaker set, fault
// injector, telemetry gauges, or health columns ever drop their locking
// discipline.
func TestBreakerTripsUnderConcurrentDiscovery(t *testing.T) {
	clk := simclock.NewManual(t0)
	cluster := hostsim.NewCluster()
	hosts := []string{"thermo.sdsu.edu", "exergy.sdsu.edu", "romulus.sdsu.edu", "volta.sdsu.edu"}
	for _, name := range hosts {
		cluster.Add(hostsim.NewHost(hostsim.Config{
			Name: name, Cores: 2, TotalMemB: 4 << 30, TotalSwapB: 2 << 30,
		}, t0))
	}

	// Half the cluster drops NodeStatus invocations and flaps hard enough
	// that breakers trip and recover repeatedly during the run. Only
	// non-blocking faults appear: CollectOnce runs on callers' goroutines
	// here, and nothing coordinates clock advances with sweeps.
	invoker := faults.New(
		nodestatus.LocalInvoker{Cluster: cluster, Clock: clk}, clk,
		faults.Plan{
			Hosts:      hosts[:2],
			DropRate:   0.5,
			FlapPeriod: 10 * time.Second,
			FlapDuty:   0.5,
			Seed:       42,
		})
	reg, err := registry.New(registry.Config{
		Clock:         clk,
		Policy:        core.PolicyLeastLoaded,
		FallbackAll:   true,
		Degraded:      core.DegradedStatic,
		Invoker:       invoker,
		InvokeRetries: 1,
		Breaker:       &breaker.Config{Threshold: 2, BaseBackoff: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}

	conn := jaxr.ConnectLocal(reg)
	creds, _, err := conn.Register("race", "pw", rim.PersonName{})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Login(creds); err != nil {
		t.Fatal(err)
	}
	ns := rim.NewService(nodestatus.ServiceName, "Service to monitor node status")
	worker := rim.NewService("Worker", `<constraint><cpuLoad>load ls 4.0</cpuLoad></constraint>`)
	for _, name := range hosts {
		ns.AddBinding("http://" + name + ":8080/NodeStatus/NodeStatusService")
		worker.AddBinding("http://" + name + ":8080/Worker/workerService")
	}
	if _, err := conn.Submit(ns, worker); err != nil {
		t.Fatal(err)
	}

	const iters = 40
	var wg sync.WaitGroup
	errCh := make(chan error, 4)

	// Collector writer: sweeps trip breakers, record failures, and set
	// health columns while everyone else reads them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			reg.Collector.CollectOnce()
		}
	}()

	// Clock writer: flap windows and breaker probes move under the sweeps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			clk.Advance(time.Second)
		}
	}()

	// Discovery readers: classification sees rows flip between healthy
	// and quarantined mid-run.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, _, err := conn.ServiceBindings("Worker"); err != nil {
					errCh <- fmt.Errorf("discovery: %w", err)
					return
				}
			}
		}()
	}

	// Health readers: the web UI's status page, compressed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_ = reg.Collector.HealthSnapshot()
			_ = reg.Collector.FaultStats()
			_ = reg.Breakers.Snapshot()
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	stats := reg.Collector.FaultStats()
	if stats.Sweeps != iters {
		t.Fatalf("sweeps = %d, want %d", stats.Sweeps, iters)
	}
	if stats.Errs == 0 {
		t.Fatal("fault injector left no sweep errors")
	}
	if n := reg.Store.NodeState().Len(); n != len(hosts) {
		t.Fatalf("NodeState rows = %d, want %d", n, len(hosts))
	}
	// The injector only ever targeted the first two hosts; the healthy
	// half must have stayed untouched by faults and breakers.
	for _, hs := range reg.Breakers.Snapshot() {
		if hs.Host != hosts[0] && hs.Host != hosts[1] && hs.Trips != 0 {
			t.Fatalf("healthy host %s tripped its breaker: %+v", hs.Host, hs)
		}
	}
}
