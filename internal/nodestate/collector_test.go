package nodestate

import (
	"context"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hostsim"
	"repro/internal/integration/leakcheck"
	"repro/internal/nodestatus"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/store"
)

var t0 = time.Date(2011, 4, 22, 10, 0, 0, 0, time.UTC)

func simCluster() (*hostsim.Cluster, *simclock.Manual) {
	clk := simclock.NewManual(t0)
	c := hostsim.NewCluster()
	c.Add(hostsim.NewHost(hostsim.Config{Name: "thermo.sdsu.edu", Cores: 2, TotalMemB: 4 << 30, TotalSwapB: 1 << 30}, t0))
	c.Add(hostsim.NewHost(hostsim.Config{Name: "exergy.sdsu.edu", Cores: 2, TotalMemB: 8 << 30, TotalSwapB: 1 << 30}, t0))
	return c, clk
}

func urisOf(c *hostsim.Cluster) URIProvider {
	return func() []string {
		var out []string
		for _, n := range c.Names() {
			out = append(out, "http://"+n+":8080/NodeStatus/NodeStatusService")
		}
		return out
	}
}

// TestCollectOncePopulatesTable also holds the sweep's per-host fan-out to
// its lifetime: every invocation goroutine has exited when CollectOnce
// returns.
func TestCollectOncePopulatesTable(t *testing.T) {
	defer leakcheck.Check(t)()
	cluster, clk := simCluster()
	table := store.NewNodeStateTable()
	col := New(table, hostsim.LocalInvoker{Cluster: cluster, Clock: clk}, clk, urisOf(cluster))

	col.CollectOnce()
	if table.Snapshot().Len() != 2 {
		t.Fatalf("rows = %d", table.Snapshot().Len())
	}
	row, ok := table.Snapshot().Get("thermo.sdsu.edu")
	if !ok || row.MemoryB != 4<<30 || !row.Updated.Equal(t0) || row.Failures != 0 {
		t.Fatalf("row = %+v %v", row, ok)
	}
	if st := col.FaultStats(); st.Sweeps != 1 || st.Errs != 0 {
		t.Fatalf("stats = %+v, want 1 sweep and no errors", st)
	}
}

func TestCollectOnceRecordsFailures(t *testing.T) {
	cluster, clk := simCluster()
	cluster.Host("exergy.sdsu.edu").SetDown(true)
	table := store.NewNodeStateTable()
	col := New(table, hostsim.LocalInvoker{Cluster: cluster, Clock: clk}, clk, urisOf(cluster))

	col.CollectOnce()
	row, ok := table.Snapshot().Get("exergy.sdsu.edu")
	if !ok || row.Failures != 1 {
		t.Fatalf("failure row = %+v %v", row, ok)
	}
	if errs := col.FaultStats().Errs; errs != 1 {
		t.Fatalf("errs = %d", errs)
	}
	// Recovery resets the failure count via Upsert.
	cluster.Host("exergy.sdsu.edu").SetDown(false)
	col.CollectOnce()
	row, _ = table.Snapshot().Get("exergy.sdsu.edu")
	if row.Failures != 0 {
		t.Fatalf("failures after recovery = %d", row.Failures)
	}
}

func TestCollectOnceSkipsGarbageURI(t *testing.T) {
	cluster, clk := simCluster()
	table := store.NewNodeStateTable()
	col := New(table, hostsim.LocalInvoker{Cluster: cluster, Clock: clk}, clk,
		func() []string { return []string{"::notauri::"} })
	col.CollectOnce()
	if table.Snapshot().Len() != 0 {
		t.Fatal("garbage uri produced a row")
	}
	if errs := col.FaultStats().Errs; errs != 1 {
		t.Fatalf("errs = %d", errs)
	}
}

func TestRunPollsOnPeriod(t *testing.T) {
	cluster, clk := simCluster()
	table := store.NewNodeStateTable()
	col := New(table, hostsim.LocalInvoker{Cluster: cluster, Clock: clk}, clk, urisOf(cluster),
		WithPeriod(25*time.Second))
	if col.Period() != 25*time.Second {
		t.Fatalf("period = %v", col.Period())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { col.Run(ctx); close(done) }()

	waitSweeps := func(n int) {
		for i := 0; i < 5000; i++ {
			if s := col.FaultStats().Sweeps; s >= n {
				return
			}
			time.Sleep(time.Millisecond)
		}
		s := col.FaultStats().Sweeps
		t.Fatalf("sweeps stuck at %d, want %d", s, n)
	}
	waitSweeps(1) // immediate first sweep
	// Wait until the collector parks on the clock before advancing.
	for i := 0; i < 5000 && clk.PendingWaiters() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	clk.Advance(25 * time.Second)
	waitSweeps(2)
	row, _ := table.Snapshot().Get("thermo.sdsu.edu")
	if !row.Updated.Equal(t0.Add(25 * time.Second)) {
		t.Fatalf("row not refreshed: %v", row.Updated)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

// TestRunSweepsSoonAfterHostsAppear: a collector whose deployment lists no
// host looks again after a tenth of a period, so the first hosts published
// are swept then, not a whole period later.
func TestRunSweepsSoonAfterHostsAppear(t *testing.T) {
	cluster, clk := simCluster()
	table := store.NewNodeStateTable()
	var published atomic.Bool
	uris := func() []string {
		if !published.Load() {
			return nil
		}
		return urisOf(cluster)()
	}
	col := New(table, hostsim.LocalInvoker{Cluster: cluster, Clock: clk}, clk, uris, WithPeriod(time.Second))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { col.Run(ctx); close(done) }()
	defer func() { cancel(); <-done }()

	for i := 0; i < 5000 && clk.PendingWaiters() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	published.Store(true)
	clk.Advance(100 * time.Millisecond)
	for i := 0; i < 5000; i++ {
		if s := col.FaultStats().Sweeps; s >= 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if s := col.FaultStats().Sweeps; s < 2 || table.Snapshot().Len() != 2 {
		t.Fatalf("a tenth of a period after the hosts appeared: %d sweeps, %d rows; want 2 and 2", s, table.Snapshot().Len())
	}
}

func TestCollectorOverHTTP(t *testing.T) {
	// End-to-end: real NodeStatus HTTP servers, HTTP invoker.
	cluster, clk := simCluster()
	var uris []string
	for _, h := range cluster.Hosts() {
		srv := httptest.NewServer(nodestatus.NewHandler(h, clk))
		defer srv.Close()
		uris = append(uris, srv.URL+"/NodeStatus")
	}
	table := store.NewNodeStateTable()
	col := New(table, nodestatus.HTTPInvoker{}, clk, func() []string { return uris })
	col.CollectOnce()
	// Both httptest servers bind 127.0.0.1, and NodeState is keyed by
	// hostname exactly as in Fig. 3.2, so the sweeps collapse to one row.
	if table.Snapshot().Len() != 1 {
		t.Fatalf("rows over http = %d", table.Snapshot().Len())
	}
	row, ok := table.Snapshot().Get("127.0.0.1")
	if !ok || row.MemoryB == 0 || row.Failures != 0 {
		t.Fatalf("row = %+v %v", row, ok)
	}
}

func TestDefaultPeriodMatchesThesis(t *testing.T) {
	if DefaultPeriod != 25*time.Second {
		t.Fatalf("DefaultPeriod = %v, thesis says 25s", DefaultPeriod)
	}
}

// gatedInvoker answers every host at once but slow: while reached is set,
// slow's invocation announces itself on reached and then waits for
// release.
type gatedInvoker struct {
	slow             string
	reached, release chan struct{}
	load             float64 // answered for every host
}

func (g *gatedInvoker) Invoke(uri string) (nodestatus.Response, error) {
	if rim.HostOfURI(uri) == g.slow && g.reached != nil {
		close(g.reached)
		<-g.release
	}
	return nodestatus.Response{Host: rim.HostOfURI(uri), Load: g.load, MemoryB: 1 << 30}, nil
}

// TestSweepLandsWhole: a reader that arrives while a sweep is in flight
// sees the table as it was before the sweep and never part of it — at
// boot, no rows; a period after the last sweep, as Run starts the next
// one, that sweep's rows under its generation. A reader of half a sweep
// answers the services on one half from the sweep and those on the other
// from older rows, or, after a restore without rows, from none.
func TestSweepLandsWhole(t *testing.T) {
	defer leakcheck.Check(t)()
	clk := simclock.NewManual(t0)
	table := store.NewNodeStateTable()
	inv := &gatedInvoker{slow: "exergy.sdsu.edu"}
	// One invocation at a time, in order: thermo has answered before
	// exergy's invocation starts.
	col := New(table, inv, clk, staticURIs("http://thermo.sdsu.edu:8080/NodeStatus", "http://exergy.sdsu.edu:8080/NodeStatus"))
	col.parallelism = 1

	// sweepWithReader runs one sweep and returns what a reader saw while
	// exergy's invocation was in flight.
	sweepWithReader := func(load float64) *store.TableSnapshot {
		inv.reached, inv.release, inv.load = make(chan struct{}), make(chan struct{}), load
		done := make(chan struct{})
		go func() { col.CollectOnce(); close(done) }()
		<-inv.reached
		seen := table.Snapshot()
		close(inv.release)
		<-done
		return seen
	}

	boot := table.Snapshot()
	if seen := sweepWithReader(0.5); seen != boot || seen.Len() != 0 {
		t.Errorf("a reader mid-sweep at boot sees gen %d with %d rows, want gen %d with none", seen.Gen(), seen.Len(), boot.Gen())
	}
	first := table.Snapshot()
	if first.Len() != 2 || first.Gen() != boot.Gen()+1 {
		t.Fatalf("after the sweep a reader sees gen %d with %d rows, want gen %d with 2", first.Gen(), first.Len(), boot.Gen()+1)
	}

	clk.Advance(col.Period())
	seen := sweepWithReader(1.5)
	if seen.Gen() != first.Gen() {
		t.Errorf("a reader mid-sweep a period on sees gen %d, want the last sweep's %d", seen.Gen(), first.Gen())
	}
	if row, _ := seen.Get("thermo.sdsu.edu"); row.Load != 0.5 || !row.Updated.Equal(t0) {
		t.Errorf("a reader mid-sweep a period on sees thermo %+v, want the last sweep's row", row)
	}
	second := table.Snapshot()
	if second.Gen() != first.Gen()+1 {
		t.Fatalf("gen after the second sweep = %d, want %d", second.Gen(), first.Gen()+1)
	}
	for _, h := range []string{"thermo.sdsu.edu", "exergy.sdsu.edu"} {
		if row, _ := second.Get(h); row.Load != 1.5 || !row.Updated.Equal(clk.Now()) {
			t.Errorf("%s after the second sweep = %+v, want its row", h, row)
		}
	}
}
