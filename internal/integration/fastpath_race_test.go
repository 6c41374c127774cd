package integration

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hostsim"
	"repro/internal/nodestatus"
	"repro/internal/registry"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/store"
)

// TestConstraintCacheInvalidationUnderRace interleaves LCM description
// edits — each tightening the constraint's load bound to a new value —
// with concurrent GetServiceBindings calls, and asserts discovery never
// serves a constraint parsed from a stale description: each reader's
// observed bound is monotonically non-decreasing, never ahead of the last
// edit started, and the final read sees the final edit. The parse is
// memoized on the store's entry for the service and every write replaces
// the entry whole, which makes serving an old parse for a new description
// structurally impossible; this test is the dynamic check on that claim
// (run it under `go test -race`).
func TestConstraintCacheInvalidationUnderRace(t *testing.T) {
	clk := simclock.NewManual(t0)
	reg, err := registry.New(registry.Config{Clock: clk, Policy: core.PolicyFilter})
	if err != nil {
		t.Fatal(err)
	}
	ctx := reg.AdminContext()
	descFor := func(k int) string {
		return fmt.Sprintf("Worker rev %d <constraint><cpuLoad>load ls %d.0</cpuLoad></constraint>", k, k)
	}
	svc := rim.NewService("Worker", descFor(1))
	svc.AddBinding("http://thermo.sdsu.edu:8080/Worker/workerService")
	if err := reg.LCM.SubmitObjects(ctx, svc); err != nil {
		t.Fatal(err)
	}
	reg.Store.NodeState().Upsert(store.NodeState{Host: "thermo.sdsu.edu", Load: 0.5, Updated: t0})

	const kMax = 60
	var lastStarted atomic.Int64
	lastStarted.Store(1)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 2; k <= kMax; k++ {
			lastStarted.Store(int64(k))
			up := rim.NewService("Worker", descFor(k))
			up.ID = svc.ID
			up.AddBinding("http://thermo.sdsu.edu:8080/Worker/workerService")
			if err := reg.LCM.UpdateObjects(ctx, up); err != nil {
				t.Errorf("update %d: %v", k, err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := 0
			for i := 0; i < 200; i++ {
				uris, dec, err := reg.QM.GetServiceBindings(svc.ID)
				if err != nil {
					t.Errorf("bindings: %v", err)
					return
				}
				if dec.Constraint == nil || dec.Constraint.CPULoad == nil {
					t.Error("constraint missing from decision")
					return
				}
				k := int(dec.Constraint.CPULoad.Value)
				if k < prev {
					t.Errorf("observed bound went backwards: %d after %d", k, prev)
					return
				}
				if started := int(lastStarted.Load()); k > started {
					t.Errorf("observed bound %d ahead of last started edit %d", k, started)
					return
				}
				prev = k
				if len(uris) != 1 {
					t.Errorf("uris = %v (bound %d, load 0.5)", uris, k)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Settled state: the final description is served, and a repeat read
	// reuses its parse.
	_, dec, err := reg.QM.GetServiceBindings(svc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(dec.Constraint.CPULoad.Value); got != kMax {
		t.Fatalf("final bound = %d, want %d", got, kMax)
	}
	_, dec2, err := reg.QM.GetServiceBindings(svc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if dec2.Constraint != dec.Constraint {
		t.Fatal("settled repeat read parsed the description again")
	}
}

// TestDiscoveryVsCollectorStress runs discovery reads against a live
// collector sweeping a simulated cluster, with a positive SnapshotMaxAge
// so reads stay on the lock-free RCU snapshot while sweeps rewrite the
// table. Run under `go test -race`; the assertions are error-freedom plus
// every filtered decision carrying a snapshot generation.
func TestDiscoveryVsCollectorStress(t *testing.T) {
	clk := simclock.NewManual(t0)
	cluster := hostsim.NewCluster()
	hosts := []string{"thermo.sdsu.edu", "exergy.sdsu.edu", "romulus.sdsu.edu"}
	for _, name := range hosts {
		cluster.Add(hostsim.NewHost(hostsim.Config{
			Name: name, Cores: 2, TotalMemB: 4 << 30, TotalSwapB: 2 << 30,
		}, t0))
	}
	reg, err := registry.New(registry.Config{
		Clock:          clk,
		Policy:         core.PolicyFilter,
		SnapshotMaxAge: 25 * time.Second,
		Invoker:        nodestatus.LocalInvoker{Cluster: cluster, Clock: clk},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := reg.AdminContext()
	ns := rim.NewService(nodestatus.ServiceName, "Service to monitor node status")
	worker := rim.NewService("Worker", `<constraint><cpuLoad>load ls 4.0</cpuLoad></constraint>`)
	for _, name := range hosts {
		ns.AddBinding("http://" + name + ":8080/NodeStatus/NodeStatusService")
		worker.AddBinding("http://" + name + ":8080/Worker/workerService")
	}
	if err := reg.LCM.SubmitObjects(ctx, ns, worker); err != nil {
		t.Fatal(err)
	}

	const iters = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			reg.Collector.CollectOnce()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			clk.Advance(time.Second)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, dec, err := reg.QM.GetServiceBindings(worker.ID)
				if err != nil {
					t.Errorf("bindings: %v", err)
					return
				}
				if dec.Filtered && dec.SnapshotGen == 0 {
					t.Error("filtered decision without a snapshot generation")
					return
				}
			}
		}()
	}
	wg.Wait()

	if sweeps, _ := reg.Collector.Stats(); sweeps != iters {
		t.Fatalf("sweeps = %d, want %d", sweeps, iters)
	}
	if _, err := reg.Store.ServiceView(worker.ID); errors.Is(err, store.ErrNotFound) {
		t.Fatal("worker vanished")
	}
}
