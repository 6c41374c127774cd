package mtc

import (
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

var t0 = time.Date(2011, 4, 22, 11, 0, 0, 0, time.UTC)

// rig builds the full Fig. 3.7 deployment: N simulated hosts, NodeStatus
// published once, a constrained worker service on all hosts, collector
// wired through the registry.
func rig(t *testing.T, policy core.Policy, hosts int) *Driver {
	t.Helper()
	clk := simclock.NewManual(t0)
	reg, err := registry.New(registry.Config{Clock: clk, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	cluster := hostsim.NewCluster()
	names := []string{"thermo.sdsu.edu", "exergy.sdsu.edu", "romulus.sdsu.edu", "volta.sdsu.edu", "eon.sdsu.edu"}
	for i := 0; i < hosts; i++ {
		cluster.Add(hostsim.NewHost(hostsim.Config{
			Name: names[i], Cores: 2, TotalMemB: 4 << 30, TotalSwapB: 2 << 30,
		}, t0))
	}

	conn := jaxr.ConnectLocal(reg)
	creds, _, err := conn.Register("mtc", "pw", rim.PersonName{})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Login(creds); err != nil {
		t.Fatal(err)
	}

	ns := rim.NewService(nodestatus.ServiceName, "Service to monitor node status")
	worker := rim.NewService("Worker", `<constraint><cpuLoad>load ls 4.0</cpuLoad></constraint>`)
	for i := 0; i < hosts; i++ {
		ns.AddBinding("http://" + names[i] + ":8080/NodeStatus/NodeStatusService")
		worker.AddBinding("http://" + names[i] + ":8080/Worker/workerService")
	}
	if _, err := conn.Submit(ns, worker); err != nil {
		t.Fatal(err)
	}

	collector := nodestate.New(reg.Store.NodeState(),
		hostsim.LocalInvoker{Cluster: cluster, Clock: clk}, clk,
		reg.QM.CollectionTargets, nodestate.WithPeriod(25*time.Second))
	collector.CollectOnce()

	return &Driver{
		Conn: conn, Cluster: cluster, Clock: clk,
		ServiceName: "Worker", Collector: collector, MaxRetries: 2,
	}
}

func TestRunCompletesAllTasks(t *testing.T) {
	d := rig(t, core.PolicyLeastLoaded, 3)
	rep, err := d.Run(Workload{
		Tasks: 60, MeanInterarrival: 2 * time.Second, Deterministic: true,
		TaskCPU: 5, TaskMemB: 16 << 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 60 || rep.Dropped != 0 {
		t.Fatalf("completed=%d dropped=%d", rep.Completed, rep.Dropped)
	}
	total := 0
	for _, n := range rep.PerHostTasks {
		total += n
	}
	if total != 60 {
		t.Fatalf("per-host total = %d", total)
	}
	if rep.Makespan <= 0 {
		t.Fatal("no makespan")
	}
	if len(rep.Latencies) != 60 || rep.LatencySummary().Mean <= 0 {
		t.Fatalf("latencies = %d", len(rep.Latencies))
	}
	if rep.Policy != "least-loaded" {
		t.Fatalf("policy = %q", rep.Policy)
	}
}

func TestStockFirstURIConcentratesLoad(t *testing.T) {
	d := rig(t, core.PolicyStock, 3)
	d.Client = ClientFirst
	rep, err := d.Run(Workload{
		Tasks: 45, MeanInterarrival: 4 * time.Second, Deterministic: true,
		TaskCPU: 8, TaskMemB: 8 << 20, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// All tasks land on the first stored binding's host.
	if rep.PerHostTasks["thermo.sdsu.edu"] != 45 {
		t.Fatalf("per-host = %v", rep.PerHostTasks)
	}
}

func TestLeastLoadedSpreadsLoad(t *testing.T) {
	d := rig(t, core.PolicyLeastLoaded, 3)
	d.Client = ClientFirst
	rep, err := d.Run(Workload{
		Tasks: 45, MeanInterarrival: 4 * time.Second, Deterministic: true,
		TaskCPU: 8, TaskMemB: 8 << 20, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every host gets a meaningful share.
	for host, n := range rep.PerHostTasks {
		if n < 5 {
			t.Fatalf("host %s starved: %v", host, rep.PerHostTasks)
		}
	}
	// And fairness beats the stock run's.
	stock := rig(t, core.PolicyStock, 3)
	stock.Client = ClientFirst
	stockRep, err := stock.Run(Workload{
		Tasks: 45, MeanInterarrival: 4 * time.Second, Deterministic: true,
		TaskCPU: 8, TaskMemB: 8 << 20, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanFairness() <= stockRep.MeanFairness() {
		t.Fatalf("lb fairness %v <= stock %v", rep.MeanFairness(), stockRep.MeanFairness())
	}
}

func TestRoundRobinAndRandomClients(t *testing.T) {
	for _, client := range []ClientPolicy{ClientRoundRobin, ClientRandom} {
		d := rig(t, core.PolicyStock, 3)
		d.Client = client
		rep, err := d.Run(Workload{
			Tasks: 30, MeanInterarrival: 3 * time.Second, Deterministic: true,
			TaskCPU: 5, TaskMemB: 8 << 20, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		used := 0
		for _, n := range rep.PerHostTasks {
			if n > 0 {
				used++
			}
		}
		if used < 2 {
			t.Fatalf("%v used only %d hosts: %v", client, used, rep.PerHostTasks)
		}
	}
}

func TestRetryOnDownHost(t *testing.T) {
	d := rig(t, core.PolicyStock, 3)
	d.Client = ClientFirst
	d.Cluster.Host("thermo.sdsu.edu").SetDown(true)
	rep, err := d.Run(Workload{
		Tasks: 10, MeanInterarrival: 2 * time.Second, Deterministic: true,
		TaskCPU: 3, TaskMemB: 8 << 20, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 10 || rep.Retries == 0 {
		t.Fatalf("completed=%d retries=%d", rep.Completed, rep.Retries)
	}
	if rep.PerHostTasks["thermo.sdsu.edu"] != 0 {
		t.Fatal("tasks landed on a down host")
	}
}

func TestDropWhenAllHostsDown(t *testing.T) {
	d := rig(t, core.PolicyStock, 2)
	d.Cluster.Host("thermo.sdsu.edu").SetDown(true)
	d.Cluster.Host("exergy.sdsu.edu").SetDown(true)
	rep, err := d.Run(Workload{
		Tasks: 5, MeanInterarrival: time.Second, Deterministic: true,
		TaskCPU: 1, TaskMemB: 1 << 20, Seed: 5, Drain: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 5 || rep.Completed != 0 {
		t.Fatalf("dropped=%d completed=%d", rep.Dropped, rep.Completed)
	}
}

func TestWorkloadValidationAndDefaults(t *testing.T) {
	d := rig(t, core.PolicyStock, 2)
	if _, err := d.Run(Workload{Tasks: 0}); err == nil {
		t.Fatal("zero tasks accepted")
	}
	rep, err := d.Run(Workload{Tasks: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 3 {
		t.Fatalf("defaults run: %+v", rep)
	}
}

func TestClientPolicyStrings(t *testing.T) {
	if ClientFirst.String() != "first-uri" || ClientRandom.String() != "random" ||
		ClientRoundRobin.String() != "round-robin" || ClientPolicy(9).String() != "unknown-client" {
		t.Fatal("client policy strings wrong")
	}
}

func TestCollectorRefreshesDuringRun(t *testing.T) {
	d := rig(t, core.PolicyLeastLoaded, 2)
	rep, err := d.Run(Workload{
		Tasks: 20, MeanInterarrival: 5 * time.Second, Deterministic: true,
		TaskCPU: 20, TaskMemB: 8 << 20, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sweeps := d.Collector.FaultStats().Sweeps
	// The initial sweep plus at least (100s workload / 25s period).
	if sweeps < 4 {
		t.Fatalf("sweeps = %d", sweeps)
	}
	_ = rep
}
