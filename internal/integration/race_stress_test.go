package integration

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hostsim"
	"repro/internal/jaxr"
	"repro/internal/nodestate"
	"repro/internal/nodestatus"
	"repro/internal/registry"
	"repro/internal/rim"
	"repro/internal/simclock"
)

// TestGuardedStateUnderRace drives the three concurrent mutators of the
// scheme's shared state at once — the NodeState collector sweeping hosts,
// discovery queries reading the balancer's view, and LCM publishes
// rewriting the service graph — while the manual clock advances under
// them. It asserts nothing beyond error-freedom: its job is to make
// `go test -race` fail if the `// guarded by mu` discipline that
// lockcheck enforces statically ever regresses dynamically.
func TestGuardedStateUnderRace(t *testing.T) {
	clk := simclock.NewManual(t0)
	reg, err := registry.New(registry.Config{Clock: clk, Policy: core.PolicyFilter})
	if err != nil {
		t.Fatal(err)
	}
	cluster := hostsim.NewCluster()
	hosts := []string{"thermo.sdsu.edu", "exergy.sdsu.edu", "romulus.sdsu.edu"}
	for _, name := range hosts {
		cluster.Add(hostsim.NewHost(hostsim.Config{
			Name: name, Cores: 2, TotalMemB: 4 << 30, TotalSwapB: 2 << 30,
		}, t0))
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
	collector := nodestate.New(reg.Store.NodeState(),
		nodestatus.LocalInvoker{Cluster: cluster, Clock: clk}, clk,
		reg.QM.CollectionTargets)

	const iters = 40
	var wg sync.WaitGroup
	errCh := make(chan error, 4)

	// NodeState writer: the registry's 25 s poller, compressed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			collector.CollectOnce()
		}
	}()

	// Clock writer: time marches while everyone reads it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			clk.Advance(time.Second)
		}
	}()

	// Discovery readers: the balancer consults NodeState on every query.
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

	// LCM publishers: the service graph churns underneath discovery.
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				org := rim.NewOrganization(fmt.Sprintf("RaceOrg-%d-%d", p, i))
				if _, err := conn.Submit(org); err != nil {
					errCh <- fmt.Errorf("publish: %w", err)
					return
				}
				if i%2 == 0 {
					if err := conn.Remove(org.ID); err != nil {
						errCh <- fmt.Errorf("remove: %w", err)
						return
					}
				}
			}
		}(p)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if n := reg.Store.NodeState().Len(); n != len(hosts) {
		t.Fatalf("NodeState rows = %d, want %d", n, len(hosts))
	}
}
