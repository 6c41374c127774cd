package integration

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/hostsim"
	"repro/internal/integration/leakcheck"
	"repro/internal/jaxr"
	"repro/internal/nodestate"
	"repro/internal/nodestatus"
	"repro/internal/registry"
	"repro/internal/rim"
	"repro/internal/simclock"
)

// newLeakRegistry builds a registry with one logged-in local connection
// and a published service, the minimal state the lifecycle tests below
// need.
func newLeakRegistry(t *testing.T, clk simclock.Clock, service string) (*registry.Registry, *jaxr.Connection) {
	t.Helper()
	reg, err := registry.New(registry.Config{Clock: clk, Policy: core.PolicyFilter})
	if err != nil {
		t.Fatal(err)
	}
	conn := jaxr.ConnectLocal(reg)
	creds, _, err := conn.Register("leak", "pw", rim.PersonName{})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Login(creds); err != nil {
		t.Fatal(err)
	}
	svc := rim.NewService(service, "leakcheck fixture service")
	svc.AddBinding("http://thermo.sdsu.edu:8080/" + service + "/service")
	if _, err := conn.Submit(svc); err != nil {
		t.Fatal(err)
	}
	return reg, conn
}

// TestCollectorRunStopsCleanly starts the NodeState collector's Run loop
// in its own goroutine — the registry's long-lived 25 s poller — cancels
// its context, and verifies via leakcheck that the goroutine actually
// exited.
func TestCollectorRunStopsCleanly(t *testing.T) {
	defer leakcheck.Check(t)()

	clk := simclock.NewManual(t0)
	reg, _ := newLeakRegistry(t, clk, nodestatus.ServiceName)
	cluster := hostsim.NewCluster()
	cluster.Add(hostsim.NewHost(hostsim.Config{
		Name: "thermo.sdsu.edu", Cores: 2, TotalMemB: 4 << 30, TotalSwapB: 2 << 30,
	}, t0))

	collector := nodestate.New(reg.Store.NodeState(),
		hostsim.LocalInvoker{Cluster: cluster, Clock: clk}, clk,
		reg.QM.CollectionTargets)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		collector.Run(ctx)
	}()
	cancel()
	<-done
}

// TestFederationFindJoinsWorkers fans a federated Find out across two
// member registries and relies on leakcheck to prove the per-member
// worker goroutines are joined before Find returns.
func TestFederationFindJoinsWorkers(t *testing.T) {
	defer leakcheck.Check(t)()

	clk := simclock.NewManual(t0)
	_, connA := newLeakRegistry(t, clk, "CampusWorker")
	_, connB := newLeakRegistry(t, clk, "HospitalWorker")

	fed, err := federation.New(
		federation.Member{Name: "campus", Conn: connA},
		federation.Member{Name: "hospital", Conn: connB},
	)
	if err != nil {
		t.Fatal(err)
	}
	results, err := fed.Find("Service", "%")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("federated find returned no services")
	}
}

// TestFederationBindingsJoinsWorkers does the same for the federated
// service-binding discovery, whose per-member workers also probe health.
func TestFederationBindingsJoinsWorkers(t *testing.T) {
	defer leakcheck.Check(t)()

	clk := simclock.NewManual(t0)
	_, connA := newLeakRegistry(t, clk, "Worker")
	_, connB := newLeakRegistry(t, clk, "Worker")

	fed, err := federation.New(
		federation.Member{Name: "campus", Conn: connA},
		federation.Member{Name: "hospital", Conn: connB},
	)
	if err != nil {
		t.Fatal(err)
	}
	uris, per, err := fed.Bindings("Worker")
	if err != nil {
		t.Fatal(err)
	}
	if len(uris) == 0 || len(per) != 2 {
		t.Fatalf("federated bindings: %v from %d members", uris, len(per))
	}
}

// TestRegistryServeShutdown serves a registry over HTTP, runs a discovery
// query through it, and shuts the server down; leakcheck verifies the
// handler and transport goroutines are gone afterwards.
func TestRegistryServeShutdown(t *testing.T) {
	defer leakcheck.Check(t)()

	clk := simclock.NewManual(t0)
	reg, _ := newLeakRegistry(t, clk, "Worker")
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	conn := jaxr.Connect(srv.URL, srv.Client())
	creds, _, err := conn.Register("remote", "pw", rim.PersonName{})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Login(creds); err != nil {
		t.Fatal(err)
	}
	if _, _, err := conn.ServiceBindings("Worker"); err != nil {
		t.Fatal(err)
	}
	srv.Client().CloseIdleConnections()
}
