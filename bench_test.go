// Benchmarks regenerating the measurable side of every experiment in
// EXPERIMENTS.md. Each benchmark corresponds to one experiment id from
// DESIGN.md's index:
//
//	E4.1  BenchmarkPublishOrganization        publish org + service + assoc
//	E4.2  BenchmarkAddService                  add a service to an org
//	E4.6  BenchmarkDiscovery/*                 constrained discovery per policy
//	F3.2  BenchmarkCollectorSweep/*            NodeStatus sweep vs fleet size
//	H1    BenchmarkMTCWorkload/*               full MTC run per policy
//	H2    BenchmarkCollectorPeriodSweep/*      imbalance vs collection period
//	—     BenchmarkConstraintParse, BenchmarkSOAPRoundTrip   substrate costs
//
// Run with: go test -bench=. -benchmem
//
// The benchmarks are the timing source EXPERIMENTS.md cites. The allocation
// counts of the discovery ones — BenchmarkDiscovery, the warm
// BenchmarkDiscoveryFastPath and BenchmarkHTTPDiscovery — and of the SOAP
// write, BenchmarkSOAPWrite, are budgeted by TestDiscoveryAllocBudgets,
// which runs the same bodies (gatedCases).
package repro_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/hostsim"
	"repro/internal/jaxr"
	"repro/internal/lbexp"
	"repro/internal/lcm"
	"repro/internal/metrics"
	"repro/internal/mtc"
	"repro/internal/nodestate"
	"repro/internal/nodestatus"
	"repro/internal/registry"
	"repro/internal/repl"
	"repro/internal/rim"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/soap"
	"repro/internal/store"
	"repro/internal/wal"
)

var benchEpoch = time.Date(2011, 4, 22, 11, 0, 0, 0, time.UTC)

func benchRegistry(tb testing.TB, policy core.Policy) (*registry.Registry, lcm.Context) {
	tb.Helper()
	reg, err := registry.New(registry.Config{
		Clock:     simclock.NewManual(benchEpoch),
		Policy:    policy,
		Admission: &admit.Config{}, // production defaults; never sheds at bench load
	})
	if err != nil {
		tb.Fatal(err)
	}
	return reg, reg.AdminContext()
}

// BenchmarkPublishOrganization measures experiment E4.1's operation: one
// organization + service (2 bindings) + OffersService association.
func BenchmarkPublishOrganization(b *testing.B) {
	reg, ctx := benchRegistry(b, core.PolicyFilter)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		org := rim.NewOrganization(fmt.Sprintf("Org-%d", i))
		svc := rim.NewService(fmt.Sprintf("Svc-%d", i), "Service to monitor node status")
		svc.AddBinding(fmt.Sprintf("http://h%d.sdsu.edu:8080/svc", i))
		svc.AddBinding(fmt.Sprintf("http://h%db.sdsu.edu:8080/svc", i))
		assoc := rim.NewAssociation(rim.AssocOffersService, org.ID, svc.ID)
		if err := reg.LCM.SubmitObjects(ctx, org, svc, assoc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddService measures E4.2: adding one service to an existing
// organization.
func BenchmarkAddService(b *testing.B) {
	reg, ctx := benchRegistry(b, core.PolicyFilter)
	org := rim.NewOrganization("SDSU")
	if err := reg.LCM.SubmitObjects(ctx, org); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := rim.NewService(fmt.Sprintf("Adder-%d", i), "")
		svc.AddBinding(fmt.Sprintf("http://h%d.sdsu.edu/x", i))
		assoc := rim.NewAssociation(rim.AssocOffersService, org.ID, svc.ID)
		if err := reg.LCM.SubmitObjects(ctx, svc, assoc); err != nil {
			b.Fatal(err)
		}
	}
}

// gatedCase is one discovery benchmark body whose allocs/op is budgeted:
// setup builds the registry and returns a single iteration. The Benchmark
// function named by bench times that iteration and
// TestDiscoveryAllocBudgets counts its allocations, so a body and its
// budget cannot drift apart. Allocation counts do not depend on the
// machine, which is why a test holds them and no baseline file does.
type gatedCase struct {
	bench  string  // the Benchmark function the case runs under
	name   string  // its sub-benchmark name there
	budget float64 // allocs/op ceiling
	setup  func(testing.TB) func()
}

func gatedCases() []gatedCase {
	var cases []gatedCase
	// The returned URI slice is the one allocation, under every policy and
	// at any host count: a balancing policy classifies on the stack.
	for _, policy := range []core.Policy{core.PolicyStock, core.PolicyFilter, core.PolicyRankFirst, core.PolicyLeastLoaded} {
		for _, hosts := range []int{2, 8, 32} {
			cases = append(cases, gatedCase{"BenchmarkDiscovery", fmt.Sprintf("%s/hosts=%d", policy, hosts), 1,
				func(tb testing.TB) func() { return discoveryOp(tb, policy, hosts) }})
		}
	}
	cases = append(cases, gatedCase{"BenchmarkDiscoveryFastPath", "warm", 1, fastPathWarmOp})
	for _, c := range []struct {
		name   string
		budget float64
		req    httpRequest
	}{
		// The serving edge. A warm REST round trip allocates nothing; SOAP
		// hits allocate because they run under admit.Wrap's deadline budget.
		// Every other row runs on a simulated clock; soap-warm/real prices
		// the budget on the clock production uses.
		{"filter/hosts=8/warm", 0, httpRequest{}},
		{"filter/hosts=8/miss", 9, httpRequest{miss: true}},
		{"filter/hosts=8/soap-warm", 9, httpRequest{soap: true}},
		{"filter/hosts=8/soap-warm/real", 9, httpRequest{soap: true, real: true}},
		{"filter/hosts=8/soap-miss", 13, httpRequest{soap: true, miss: true}},
		// The frozen router's preserialized rejects, answered before any
		// route runs.
		{"edge/404", 0, httpRequest{path: "/registry/nope", status: http.StatusNotFound}},
		{"edge/414", 0, httpRequest{path: "/" + strings.Repeat("a", router.DefaultMaxPathLength), status: http.StatusRequestURITooLong}},
		{"edge/400-depth", 0, httpRequest{path: strings.Repeat("/a", router.DefaultMaxDepth+1), status: http.StatusBadRequest}},
		// Admission's preserialized shed, recorded by the flight recorder
		// around it. The SOAP ceiling is the maximum over 20 runs: the
		// frame rides the context on the SOAP route, shed or not.
		{"shed/rest", 0, httpRequest{shed: true, status: http.StatusServiceUnavailable}},
		{"shed/soap", 2, httpRequest{soap: true, shed: true, status: http.StatusServiceUnavailable}},
		// Every request sampled: trace id, frame context, stage timer. The
		// ceilings are the maximum over 20 runs.
		{"sampled/rest", 6, httpRequest{sampled: true}},
		{"sampled/soap", 13, httpRequest{soap: true, sampled: true}},
	} {
		cases = append(cases, gatedCase{"BenchmarkHTTPDiscovery", c.name, c.budget,
			func(tb testing.TB) func() { return httpDiscoveryOp(tb, c.req) }})
	}
	// The write exchange as publishers send it: the decode hook, the life
	// cycle manager's update and the preserialized acknowledgement. On a
	// leader with a log it costs two allocations more: encoding the record
	// and appending it allocate nothing, and the store keeps a copy of each
	// put's JSON, the service's and the audit event's, for its checkpoints.
	cases = append(cases,
		gatedCase{"BenchmarkSOAPWrite", "update-4", 111, func(tb testing.TB) func() { return soapWriteOp(tb, "") }},
		gatedCase{"BenchmarkSOAPWrite", "update-4/wal", 111, func(tb testing.TB) func() { return soapWriteOp(tb, tb.TempDir()) }})
	// The durability path, per object and per record. A checkpoint's
	// allocations are its fixed ones (the capture, the writers and the
	// frame buffer), whatever the number of objects it frames; a record is
	// framed in the log's own buffer; a follower's apply allocates the
	// objects it decodes, a copy of each one's JSON for the store to keep
	// and its HTTP exchange, not copies of the record.
	cases = append(cases,
		gatedCase{"BenchmarkCheckpointSave", "services-8x64", 11, func(tb testing.TB) func() { return checkpointSaveOp(tb, false) }},
		gatedCase{"BenchmarkCheckpointSave", "events-x64", 11, func(tb testing.TB) func() { return checkpointSaveOp(tb, true) }},
		gatedCase{"BenchmarkWALAppend", "never", 0, walAppendOp},
		gatedCase{"BenchmarkFollowerApply", "record-8", 106, followerApplyOp})
	return cases
}

// runGated runs bench's cases as its sub-benchmarks.
func runGated(b *testing.B, bench string) {
	for _, c := range gatedCases() {
		if c.bench != bench {
			continue
		}
		b.Run(c.name, func(b *testing.B) {
			op := c.setup(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// TestDiscoveryAllocBudgets holds every gated benchmark body to its
// allocation budget, and names the allocation sites of a body over budget.
// Under the race detector sync.Pool drops items at random and the counts
// read higher, so there it is skipped.
func TestDiscoveryAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	for _, c := range gatedCases() {
		t.Run(c.bench+"/"+c.name, func(t *testing.T) {
			op := c.setup(t)
			if got := testing.AllocsPerRun(200, op); got > c.budget {
				t.Errorf("%v allocs/op, budget %v; allocation sites in repro/, per op:\n%s", got, c.budget, allocSites(op))
			}
		})
	}
}

// allocSites runs op with every allocation profiled and lists, per op, the
// innermost repro/ frame of each allocation: the line that allocated, or
// the line that called into the library that did. runtime.GC publishes the
// profile of the cycle before it, hence one on each side of the runs. A
// site's count can read low: the runtime does not profile an allocation
// under 16 bytes without pointers that it packs into a block it already
// holds.
func allocSites(op func()) string {
	const runs = 100
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	runtime.GC()
	before := siteCounts()
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.GC()
	type site struct {
		at string
		n  int64
	}
	var sites []site
	for at, n := range siteCounts() {
		if n -= before[at]; n > 0 {
			sites = append(sites, site{at, n})
		}
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].n != sites[j].n {
			return sites[i].n > sites[j].n
		}
		return sites[i].at < sites[j].at
	})
	var b strings.Builder
	for _, s := range sites {
		fmt.Fprintf(&b, "\t%6.2f  %s\n", float64(s.n)/runs, s.at)
	}
	return b.String()
}

// siteCounts sums the memory profile's allocation counts by the innermost
// frame inside the module.
func siteCounts() map[string]int64 {
	recs := make([]runtime.MemProfileRecord, 256)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+n/4)
	}
	out := make(map[string]int64)
	for i := range recs {
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "repro/") {
				out[fmt.Sprintf("%s %s:%d", f.Function, f.File, f.Line)] += recs[i].AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return out
}

// BenchmarkDiscovery measures E4.6: resolving a service to its arranged
// access URIs under each policy and several deployment sizes. This is the
// per-lookup cost the load-balancing scheme adds to the registry's hot
// path. The admission controller's TryAdmit/Release bracket every lookup
// — the same bracket the HTTP middleware applies — so the allocation
// budget covers the serving edge, not just the balancer. An uncontended
// admission is ticketless (nil) and must cost zero allocations.
func BenchmarkDiscovery(b *testing.B) { runGated(b, "BenchmarkDiscovery") }

func discoveryOp(tb testing.TB, policy core.Policy, hosts int) func() {
	reg, ctx := benchRegistry(tb, policy)
	svc := rim.NewService("Adder", `<constraint><cpuLoad>load ls 1.0</cpuLoad><memory>memory gr 1GB</memory></constraint>`)
	for i := 0; i < hosts; i++ {
		host := fmt.Sprintf("h%02d.sdsu.edu", i)
		svc.AddBinding("http://" + host + ":8080/x")
		reg.Store.NodeState().Upsert(store.NodeState{
			Host: host, Load: float64(i%4) * 0.7, MemoryB: 4 << 30, SwapB: 1 << 30,
			Updated: benchEpoch,
		})
	}
	if err := reg.LCM.SubmitObjects(ctx, svc); err != nil {
		tb.Fatal(err)
	}
	now := benchEpoch
	return func() {
		if out, _ := reg.Admission.TryAdmit(admit.ClassDiscovery, now); out != admit.Admitted {
			tb.Fatal(out)
		}
		if _, _, err := reg.QM.GetServiceBindings(svc.ID); err != nil {
			tb.Fatal(err)
		}
		reg.Admission.Release(admit.ClassDiscovery, now, now)
	}
}

// fastPathRegistry is BenchmarkDiscoveryFastPath's deployment: 8 hosts
// behind a local NodeStatus invoker; readers load the snapshot its
// sweeps install.
func fastPathRegistry(tb testing.TB) (*registry.Registry, *rim.Service) {
	tb.Helper()
	const hosts = 8
	clk := simclock.NewManual(benchEpoch)
	cluster := hostsim.NewCluster()
	ns := rim.NewService(nodestatus.ServiceName, "Service to monitor node status")
	svc := rim.NewService("Adder", `<constraint><cpuLoad>load ls 1.0</cpuLoad><memory>memory gr 1GB</memory></constraint>`)
	var names []string
	for i := 0; i < hosts; i++ {
		name := fmt.Sprintf("h%02d.sdsu.edu", i)
		names = append(names, name)
		cluster.Add(hostsim.NewHost(hostsim.Config{Name: name, Cores: 2, TotalMemB: 4 << 30, TotalSwapB: 2 << 30}, benchEpoch))
		ns.AddBinding("http://" + name + ":8080/NodeStatus/NodeStatusService")
		svc.AddBinding("http://" + name + ":8080/Adder/addService")
	}
	reg, err := registry.New(registry.Config{
		Clock:     clk,
		Policy:    core.PolicyFilter,
		Invoker:   hostsim.LocalInvoker{Cluster: cluster, Clock: clk},
		Admission: &admit.Config{},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := reg.LCM.SubmitObjects(reg.AdminContext(), ns, svc); err != nil {
		tb.Fatal(err)
	}
	for i, name := range names {
		reg.Store.NodeState().Upsert(store.NodeState{
			Host: name, Load: float64(i%4) * 0.7, MemoryB: 4 << 30, SwapB: 1 << 30,
			Updated: benchEpoch,
		})
	}
	return reg, svc
}

// fastPathLookup brackets the query with the admission edge, exactly as
// the HTTP middleware does: uncontended TryAdmit is ticketless, so the
// warm path must stay allocation-free with admission in the loop.
func fastPathLookup(tb testing.TB, reg *registry.Registry, id string) {
	tb.Helper()
	if out, _ := reg.Admission.TryAdmit(admit.ClassDiscovery, benchEpoch); out != admit.Admitted {
		tb.Fatal(out)
	}
	uris, _, err := reg.QM.GetServiceBindings(id)
	reg.Admission.Release(admit.ClassDiscovery, benchEpoch, benchEpoch)
	if err != nil {
		tb.Fatal(err)
	}
	if len(uris) == 0 {
		tb.Fatal("no uris")
	}
}

func fastPathWarmOp(tb testing.TB) func() {
	reg, svc := fastPathRegistry(tb)
	fastPathLookup(tb, reg, svc.ID) // digest the service, publish the snapshot
	return func() { fastPathLookup(tb, reg, svc.ID) }
}

// BenchmarkDiscoveryFastPath isolates the lock-free discovery fast path:
// warm (the service digested and the NodeState snapshot installed — every
// discovery of a description version but its first, whose extra cost is one
// BenchmarkConstraintParse), and warm lookups under 1–64 concurrent readers
// while a live collector rewrites the NodeState table. The collector
// variants carry no allocation budget: the background sweep's allocations
// land in the reader's allocs/op nondeterministically.
func BenchmarkDiscoveryFastPath(b *testing.B) {
	runGated(b, "BenchmarkDiscoveryFastPath")
	for _, readers := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("collector/readers=%d", readers), func(b *testing.B) {
			reg, svc := fastPathRegistry(b)
			reg.Collector.CollectOnce() // seed rows + snapshot
			fastPathLookup(b, reg, svc.ID)
			done := make(chan struct{})
			sweeping := make(chan struct{})
			go func() {
				defer close(sweeping)
				for {
					select {
					case <-done:
						return
					default:
						reg.Collector.CollectOnce()
					}
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/readers + 1
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						uris, _, err := reg.QM.GetServiceBindings(svc.ID)
						if err != nil || len(uris) == 0 {
							b.Errorf("lookup: %v uris=%v", err, uris)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			close(done)
			<-sweeping
		})
	}
}

// BenchmarkCollectorSweep measures F3.2: one NodeStatus collection sweep
// against fleets of different sizes (local invoker, the localCall path).
func BenchmarkCollectorSweep(b *testing.B) {
	for _, hosts := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			clk := simclock.NewManual(benchEpoch)
			cluster := hostsim.NewCluster()
			var uris []string
			for i := 0; i < hosts; i++ {
				name := fmt.Sprintf("h%03d.sdsu.edu", i)
				cluster.Add(hostsim.NewHost(hostsim.Config{Name: name, Cores: 2, TotalMemB: 4 << 30}, benchEpoch))
				uris = append(uris, "http://"+name+":8080/NodeStatus/NodeStatusService")
			}
			table := store.NewNodeStateTable()
			col := nodestate.New(table, hostsim.LocalInvoker{Cluster: cluster, Clock: clk}, clk,
				func() []string { return uris })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				col.CollectOnce()
			}
		})
	}
}

// BenchmarkCollectorSweepHTTP measures the same sweep over real sockets.
func BenchmarkCollectorSweepHTTP(b *testing.B) {
	clk := simclock.NewManual(benchEpoch)
	host := hostsim.NewHost(hostsim.Config{Name: "h.sdsu.edu", Cores: 2, TotalMemB: 4 << 30}, benchEpoch)
	srv := httptest.NewServer(nodestatus.NewHandler(host, clk))
	defer srv.Close()
	table := store.NewNodeStateTable()
	col := nodestate.New(table, nodestatus.HTTPInvoker{Client: srv.Client()}, clk,
		func() []string { return []string{srv.URL} })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.CollectOnce()
	}
}

// BenchmarkMTCWorkload regenerates H1 at benchmark scale: one full MTC
// workload per iteration under each policy pairing. Throughput shape, not
// absolute numbers, is the result: the balanced variants finish the same
// task count with lower simulated latency.
func BenchmarkMTCWorkload(b *testing.B) {
	combos := []lbexp.Combo{
		{Name: "stock-first", Registry: core.PolicyStock, Client: mtc.ClientFirst},
		{Name: "stock-roundrobin", Registry: core.PolicyStock, Client: mtc.ClientRoundRobin},
		{Name: "lb-leastloaded-fb", Registry: core.PolicyLeastLoaded, Client: mtc.ClientFirst, Fallback: true},
	}
	for _, combo := range combos {
		b.Run(combo.Name, func(b *testing.B) {
			b.ReportAllocs()
			var lastFairness float64
			for i := 0; i < b.N; i++ {
				cfg := lbexp.Config{
					Hosts: 4, Heterogeneous: true,
					RegistryPolicy: combo.Registry, ClientPolicy: combo.Client,
					FallbackAll: combo.Fallback,
					Workload: mtc.Workload{
						Tasks: 100, MeanInterarrival: 2 * time.Second,
						TaskCPU: 10, TaskMemB: 32 << 20, Seed: int64(i + 1),
					},
				}
				rep, err := lbexp.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				lastFairness = rep.MeanFairness()
			}
			b.ReportMetric(lastFairness, "fairness")
		})
	}
}

// BenchmarkCollectorPeriodSweep regenerates H2's shape: imbalance under
// different collection periods, reported as a custom metric.
func BenchmarkCollectorPeriodSweep(b *testing.B) {
	for _, period := range []time.Duration{5 * time.Second, 25 * time.Second, 2 * time.Minute} {
		b.Run(period.String(), func(b *testing.B) {
			b.ReportAllocs()
			var fairness float64
			for i := 0; i < b.N; i++ {
				cfg := lbexp.Config{
					Hosts: 4, Heterogeneous: true,
					RegistryPolicy:   core.PolicyLeastLoaded,
					FallbackAll:      true,
					CollectionPeriod: period,
					Workload: mtc.Workload{
						Tasks: 100, MeanInterarrival: 2 * time.Second,
						TaskCPU: 10, TaskMemB: 32 << 20, Seed: int64(i + 1),
					},
				}
				rep, err := lbexp.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				fairness = rep.MeanFairness()
			}
			b.ReportMetric(fairness, "fairness")
		})
	}
}

// BenchmarkConstraintParse measures the §3.2 parser on the thesis's block.
func BenchmarkConstraintParse(b *testing.B) {
	desc := `Adder <constraint><cpuLoad>load ls 1.0</cpuLoad><memory>memory gr 3GB</memory>` +
		`<swapmemory>swapmemory gr 5MB</swapmemory><starttime>1000</starttime><endtime>1200</endtime></constraint>`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := constraint.FromDescription(desc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSOAPRoundTrip measures one full SOAP request/response over HTTP
// (the messaging layer of Fig. 1.1).
func BenchmarkSOAPRoundTrip(b *testing.B) {
	reg, ctx := benchRegistry(b, core.PolicyStock)
	svc := rim.NewService("Ping", "")
	svc.AddBinding("http://thermo.sdsu.edu/x")
	if err := reg.LCM.SubmitObjects(ctx, svc); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	client := srv.Client()

	type regReq struct {
		XMLName struct{}                   `xml:"RegistryRequest"`
		Get     *registry.GetObjectRequest `xml:"GetObjectRequest"`
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var resp registry.GetObjectResponse
		if err := soap.Post(client, srv.URL+"/soap/registry", &regReq{Get: &registry.GetObjectRequest{ID: svc.ID}}, &resp); err != nil {
			b.Fatal(err)
		}
	}
}

// --- metrics primitives ----------------------------------------------------
//
// internal/metrics.Counter sits on the discovery fast path (discovery and
// response-cache counters) and is built on sync/atomic; EXPERIMENTS.md
// records what the sync.Mutex version it replaced cost.

func BenchmarkMetricsCounterAtomic(b *testing.B) {
	var c metrics.Counter
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
	if c.Value() == 0 {
		b.Fatal("counter did not move")
	}
}

// --- tracing overhead on the discovery warm path --------------------------
//
// BenchmarkTracingOverhead quantifies what sampling a request costs the
// balancer's warm path. Each iteration does what the edge wrapper does
// around a discovery: borrow a frame, offer it to the sampler, run the
// query manager (under the frame's context when picked), append the
// record. "disabled" is the production default — sampling off — and must
// add nothing to BenchmarkDiscoveryFastPath/warm (flight.TimerFrom returns
// nil and every stage call no-ops on the nil receiver). "sampled" picks
// every request, the worst case; its cost is the id, the context, the
// boxed stages and ten clock reads, and it carries no allocation budget.
func BenchmarkTracingOverhead(b *testing.B) {
	const hosts = 8
	setup := func(b *testing.B, sample int) (*registry.Registry, *rim.Service) {
		b.Helper()
		clk := simclock.NewManual(benchEpoch)
		cluster := hostsim.NewCluster()
		ns := rim.NewService(nodestatus.ServiceName, "Service to monitor node status")
		svc := rim.NewService("Adder", `<constraint><cpuLoad>load ls 1.0</cpuLoad><memory>memory gr 1GB</memory></constraint>`)
		for i := 0; i < hosts; i++ {
			name := fmt.Sprintf("h%02d.sdsu.edu", i)
			cluster.Add(hostsim.NewHost(hostsim.Config{Name: name, Cores: 2, TotalMemB: 4 << 30, TotalSwapB: 2 << 30}, benchEpoch))
			ns.AddBinding("http://" + name + ":8080/NodeStatus/NodeStatusService")
			svc.AddBinding("http://" + name + ":8080/Adder/addService")
		}
		reg, err := registry.New(registry.Config{
			Clock:       clk,
			Policy:      core.PolicyFilter,
			Invoker:     hostsim.LocalInvoker{Cluster: cluster, Clock: clk},
			TraceSample: sample,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := reg.LCM.SubmitObjects(reg.AdminContext(), ns, svc); err != nil {
			b.Fatal(err)
		}
		reg.Collector.CollectOnce()
		if _, _, err := reg.QM.GetServiceBindings(svc.ID); err != nil {
			b.Fatal(err) // digest the service, publish the snapshot
		}
		return reg, svc
	}

	for _, mode := range []struct {
		name   string
		sample int
	}{{"disabled", 0}, {"sampled", 1}} {
		b.Run(mode.name, func(b *testing.B) {
			reg, svc := setup(b, mode.sample)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fw := flight.GetWriter(nil)
				ctx := context.Background()
				if reg.Sampler.Sample(fw) {
					ctx = flight.WithFrame(ctx, fw)
				}
				uris, _, err := reg.QM.GetServiceBindingsCtx(ctx, svc.ID)
				reg.Flight.Append(&fw.Rec)
				flight.PutWriter(fw)
				if err != nil || len(uris) == 0 {
					b.Fatal(uris, err)
				}
			}
		})
	}
}

// --- end-to-end HTTP discovery: the zero-allocation serving edge ---------

// benchHTTPWriter is a reusable ResponseWriter: the header map is
// allocated once and the body is discarded, so the measured loop sees
// only the serving edge's own allocations — exactly what a real server
// amortizes across a keep-alive connection.
type benchHTTPWriter struct {
	header http.Header
	status int
	n      int
}

func (w *benchHTTPWriter) Header() http.Header         { return w.header }
func (w *benchHTTPWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *benchHTTPWriter) WriteHeader(s int)           { w.status = s }

// BenchmarkHTTPDiscovery measures the full HTTP discovery round trip —
// frozen-router dispatch, admission bracket, response-cache consult,
// response bytes — with tracing compiled in but unsampled (the
// production default). The warm variant serves the preserialized entry
// through admit's FastServe hook, and its budget is 0 allocs/op. miss
// re-renders every iteration by bumping the write epoch. soap-warm and soap-miss are the same two round trips
// through POST /soap/registry with the canonical GetBindingsRequest
// envelope a JAXR client sends: scanned, not unmarshalled, and answered
// from (or rendered into) the same cache. The edge, shed and sampled
// variants price the router's rejects, admission's shed and a traced
// request.
func BenchmarkHTTPDiscovery(b *testing.B) { runGated(b, "BenchmarkHTTPDiscovery") }

// httpRequest is one BenchmarkHTTPDiscovery variant: the discovery request
// and the registry state it meets.
type httpRequest struct {
	soap    bool   // POST the GetBindingsRequest envelope to /soap/registry
	miss    bool   // re-render every iteration
	path    string // GET this instead of a discovery
	shed    bool   // the route's admission class is held at its one slot
	sampled bool   // the sampler picks every request
	status  int    // the answer expected; 0 is 200
	real    bool   // the registry runs on simclock.Real{}, not a manual clock
}

func httpDiscoveryOp(tb testing.TB, hr httpRequest) func() {
	const hosts = 8
	var clk simclock.Clock = simclock.NewManual(benchEpoch)
	if hr.real {
		clk = simclock.Real{}
	}
	cfg := registry.Config{
		Clock:     clk,
		Policy:    core.PolicyFilter,
		Admission: &admit.Config{}, // production defaults; never sheds at bench load
	}
	if hr.shed {
		one := admit.ClassLimits{MaxInFlight: 1, MaxQueue: -1}
		cfg.Admission = &admit.Config{Discovery: one, LCM: one}
	}
	if hr.sampled {
		cfg.TraceSample = 1
	}
	reg, err := registry.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	svc := rim.NewService("Adder", `<constraint><cpuLoad>load ls 1.0</cpuLoad><memory>memory gr 1GB</memory></constraint>`)
	for i := 0; i < hosts; i++ {
		host := fmt.Sprintf("h%02d.sdsu.edu", i)
		svc.AddBinding("http://" + host + ":8080/Adder/addService")
		reg.Store.NodeState().Upsert(store.NodeState{
			Host: host, Load: float64(i%4) * 0.7, MemoryB: 4 << 30, SwapB: 1 << 30,
			Updated: clk.Now(),
		})
	}
	if err := reg.LCM.SubmitObjects(reg.AdminContext(), svc); err != nil {
		tb.Fatal(err)
	}
	h := reg.Handler()
	if hr.shed {
		// /soap/registry is in the LCM class, whatever the request asks.
		class := admit.ClassDiscovery
		if hr.soap {
			class = admit.ClassLCM
		}
		if out, _ := reg.Admission.TryAdmit(class, benchEpoch); out != admit.Admitted {
			tb.Fatal(out)
		}
	}

	// A request plus what re-arms it for the next iteration: nothing for a
	// GET, the body reader for a POST.
	path := "/registry/bindings?service=Adder"
	if hr.path != "" {
		path = hr.path
	}
	req, rearm := httptest.NewRequest(http.MethodGet, path, nil), func() {}
	if hr.soap {
		env, err := soap.Marshal(&struct {
			XMLName  struct{}                     `xml:"RegistryRequest"`
			Bindings *registry.GetBindingsRequest `xml:"GetBindingsRequest"`
		}{Bindings: &registry.GetBindingsRequest{ServiceName: "Adder"}})
		if err != nil {
			tb.Fatal(err)
		}
		body := bytes.NewReader(env)
		req = httptest.NewRequest(http.MethodPost, "/soap/registry", nil)
		req.Body, req.ContentLength = io.NopCloser(body), int64(len(env))
		rearm = func() { body.Reset(env) }
	}
	want := hr.status
	if want == 0 {
		want = http.StatusOK
	}
	w := &benchHTTPWriter{header: make(http.Header, 4)}
	serve := func() {
		rearm()
		w.n, w.status = 0, http.StatusOK
		h.ServeHTTP(w, req)
		if w.status != want {
			tb.Fatalf("status %d, want %d", w.status, want)
		}
		if w.n == 0 {
			tb.Fatal("empty response")
		}
	}
	serve() // render + store
	if !hr.miss {
		return serve
	}
	return func() {
		reg.RespCache.BumpEpoch() // every request re-renders and re-stores
		serve()
	}
}

// BenchmarkSOAPWrite prices the write exchange on /soap/registry.
func BenchmarkSOAPWrite(b *testing.B) { runGated(b, "BenchmarkSOAPWrite") }

// soapWriteOp is one SOAP write through the handler of a leader, in memory
// or logging to dataDir without fsync: the canonical UpdateObjectsRequest of
// a four-binding service, carrying a constraint, from a logged-in publisher
// — the benchmark's write.
func soapWriteOp(tb testing.TB, dataDir string) func() {
	reg, err := registry.New(registry.Config{
		Clock:             simclock.NewManual(benchEpoch),
		Policy:            core.PolicyFilter,
		Admission:         &admit.Config{}, // production defaults; never sheds at bench load
		DataDir:           dataDir,
		Fsync:             wal.FsyncNever,
		CheckpointRecords: -1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	token := soapSession(tb, srv.URL, srv.Client())
	svc := rim.NewService("Adder", `<constraint><cpuLoad>load ls 1.0</cpuLoad><memory>memory gr 1GB</memory></constraint>`)
	for i := 0; i < 4; i++ {
		svc.AddBinding(fmt.Sprintf("http://h%02d.sdsu.edu:8080/Adder/addService", i))
	}
	wire, err := registry.ToWire(svc)
	if err != nil {
		tb.Fatal(err)
	}
	publish := func(update bool) []byte {
		req := struct {
			XMLName struct{}                       `xml:"RegistryRequest"`
			Submit  *registry.SubmitObjectsRequest `xml:"SubmitObjectsRequest"`
			Update  *registry.UpdateObjectsRequest `xml:"UpdateObjectsRequest"`
		}{}
		if update {
			req.Update = &registry.UpdateObjectsRequest{Session: token, Objects: []registry.WireObject{*wire}}
		} else {
			req.Submit = &registry.SubmitObjectsRequest{Session: token, Objects: []registry.WireObject{*wire}}
		}
		env, err := soap.Marshal(&req)
		if err != nil {
			tb.Fatal(err)
		}
		return env
	}
	h := reg.Handler()
	w := &benchHTTPWriter{header: make(http.Header, 4)}
	body := bytes.NewReader(nil)
	req := httptest.NewRequest(http.MethodPost, "/soap/registry", nil)
	req.Body = io.NopCloser(body)
	post := func(env []byte) {
		body.Reset(env)
		req.ContentLength = int64(len(env))
		w.n, w.status = 0, http.StatusOK
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.n == 0 {
			tb.Fatalf("status %d, %d bytes", w.status, w.n)
		}
	}
	post(publish(false))
	update := publish(true)
	return func() { post(update) }
}

// soapSession registers a publisher over /soap/auth at url and logs it in,
// returning the session token its writes carry.
func soapSession(tb testing.TB, url string, client *http.Client) string {
	creds, _, err := jaxr.Connect(url, client).Register("publisher", "publisher123", rim.PersonName{FirstName: "Bench"})
	if err != nil {
		tb.Fatal(err)
	}
	type authRequest struct {
		XMLName   struct{}                   `xml:"AuthRequest"`
		Challenge *registry.ChallengeRequest `xml:"ChallengeRequest,omitempty"`
		Login     *registry.LoginRequest     `xml:"LoginRequest,omitempty"`
	}
	var ch registry.ChallengeResponse
	if err := soap.Post(client, url+"/soap/auth", &authRequest{Challenge: &registry.ChallengeRequest{Alias: creds.Alias}}, &ch); err != nil {
		tb.Fatal(err)
	}
	nonce, err := base64.StdEncoding.DecodeString(ch.Nonce)
	if err != nil {
		tb.Fatal(err)
	}
	sig, err := creds.SignChallenge(nonce)
	if err != nil {
		tb.Fatal(err)
	}
	var login registry.LoginResponse
	if err := soap.Post(client, url+"/soap/auth", &authRequest{Login: &registry.LoginRequest{
		Alias: creds.Alias, Signature: base64.StdEncoding.EncodeToString(sig),
	}}, &login); err != nil {
		tb.Fatal(err)
	}
	return login.Token
}

// --- flight recorder cost -------------------------------------------------
//
// BenchmarkFlightRecord isolates the wide-event recorder's per-request
// cost: one seqlock Append into the ring, with the host already interned
// (the steady state — interning is a one-time slow path per host) and,
// in the traced variant, a trace id to box. The recorder's end-to-end cost
// is already inside the budgeted BenchmarkHTTPDiscovery warm path (0
// allocs/op with the recorder always on); this entry just prices the
// Append itself.
func BenchmarkFlightRecord(b *testing.B) {
	rec := flight.Record{
		Route:       flight.RouteBindings,
		Outcome:     flight.OutcomeAdmitted,
		Verdict:     flight.VerdictFiltered,
		Status:      200,
		CacheHit:    true,
		Tier:        0,
		SnapshotGen: 7,
		SnapshotAge: 3 * time.Second,
		Eligible:    4,
		Latency:     400 * time.Microsecond,
		Host:        "h00.sdsu.edu",
		Unix:        benchEpoch.UnixNano(),
	}
	b.Run("append", func(b *testing.B) {
		ring := flight.NewRing(4096)
		ring.Append(&rec) // interns the host before measurement
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ring.Append(&rec)
		}
	})
	b.Run("append-traced", func(b *testing.B) {
		ring := flight.NewRing(4096)
		traced := rec
		traced.Trace = "0123456789abcdef"
		ring.Append(&traced)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ring.Append(&traced)
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		ring := flight.NewRing(4096)
		for i := 0; i < 4096; i++ {
			ring.Append(&rec)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := ring.Snapshot(flight.Filter{Limit: 100}); len(got) != 100 {
				b.Fatalf("snapshot returned %d records", len(got))
			}
		}
	})
}

// --- WAL append cost ------------------------------------------------------
//
// BenchmarkWALAppend measures the durability tax per acknowledged write:
// one length+CRC32C-framed record appended to the active segment, under
// the two interesting flush policies. "never" isolates the framing and
// buffer cost, and is gated (walAppendOp); "always" adds the fsync every
// acknowledged registry write pays at the default -fsync setting; fsync
// latency is hardware-dependent.
func BenchmarkWALAppend(b *testing.B) {
	runGated(b, "BenchmarkWALAppend")
	b.Run("always", func(b *testing.B) {
		l, err := wal.Open(b.TempDir(), wal.Options{Fsync: wal.FsyncAlways, Clock: simclock.NewManual(benchEpoch)})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		payload := []byte(strings.Repeat("x", 512))
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.Append(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// walAppendOp is one 512-byte record appended to a log that never fsyncs.
func walAppendOp(tb testing.TB) func() {
	l, err := wal.Open(tb.TempDir(), wal.Options{Fsync: wal.FsyncNever, Clock: simclock.NewManual(benchEpoch)})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.Close() })
	payload := []byte(strings.Repeat("x", 512))
	return func() {
		if _, err := l.Append(payload); err != nil {
			tb.Fatal(err)
		}
	}
}

// publishObjects is what one publish on the benchmark's population stores:
// a service of eight bindings, a constraint block in its description, and
// the audit event beside it; i numbers the ids.
func publishObjects(i int) (*rim.Service, *rim.AuditableEvent) {
	owner := "urn:uuid:00000000-0000-4000-8000-00000000cafe"
	svc := rim.NewService(fmt.Sprintf("svc-%05d", i), "benchmark service <constraint><cpuLoad>load ls 1.5</cpuLoad><memory>memory gr 2GB</memory></constraint>")
	svc.ID = fmt.Sprintf("urn:uuid:00000000-0000-4000-8000-%012d", i)
	svc.LID, svc.Owner = svc.ID, owner
	for j := 0; j < 8; j++ {
		b := svc.AddBinding(fmt.Sprintf("http://127.0.1.%d:8080/svc-%05d/run", 1+j, i))
		b.ID = fmt.Sprintf("%s-%d", svc.ID, j)
		b.LID, b.Owner = b.ID, owner
	}
	ev := rim.NewAuditableEvent(rim.EventCreated, owner, benchEpoch.Add(time.Duration(i)*time.Millisecond), svc.ID)
	ev.ID = fmt.Sprintf("urn:uuid:00000000-0000-4000-9000-%012d", i)
	ev.LID = ev.ID
	return svc, ev
}

// BenchmarkCheckpointSave prices a checkpoint's encoding, per object.
func BenchmarkCheckpointSave(b *testing.B) { runGated(b, "BenchmarkCheckpointSave") }

// checkpointSaveOp is Store.Save of 64 publishes' services, or their events,
// into io.Discard.
func checkpointSaveOp(tb testing.TB, events bool) func() {
	s := store.New()
	for i := 0; i < 64; i++ {
		svc, ev := publishObjects(i)
		o := rim.Object(svc)
		if events {
			o = ev
		}
		if err := s.Put(o); err != nil {
			tb.Fatal(err)
		}
	}
	return func() {
		if err := s.Save(io.Discard); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkFollowerApply prices a follower's handling of one shipped record.
func BenchmarkFollowerApply(b *testing.B) { runGated(b, "BenchmarkFollowerApply") }

// followerApplyOp is one Poll of a follower whose leader answers with one
// frame: the record of a publish (publishObjects), read, applied and logged
// locally without fsync. The leader is a RoundTripper replaying that
// response, so the count is the follower's alone plus its HTTP client's.
func followerApplyOp(tb testing.TB) func() {
	svc, ev := publishObjects(1)
	var rec struct {
		Op   string           `json:"op"`
		Puts []store.Envelope `json:"puts"`
	}
	rec.Op = string(rim.EventCreated)
	for _, o := range []rim.Object{svc, ev} {
		data, err := json.Marshal(o)
		if err != nil {
			tb.Fatal(err)
		}
		rec.Puts = append(rec.Puts, store.Envelope{Kind: o.Base().ObjectType.Short(), Data: data})
	}
	payload, err := json.Marshal(&rec)
	if err != nil {
		tb.Fatal(err)
	}
	// The stream frame (package repl): length, CRC32C, sequence number,
	// the position past the record, the leader's sequence number.
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	for _, word := range []uint64{1, 1, 4096, 1} {
		frame = binary.LittleEndian.AppendUint64(frame, word)
	}
	frame = append(frame, payload...)
	f, err := repl.OpenFollower(tb.TempDir(), store.New(), repl.FollowerOptions{
		LeaderURL:       "http://leader.invalid",
		Clock:           simclock.NewManual(benchEpoch),
		Client:          &http.Client{Transport: replayFrame(frame)},
		PollWait:        -1,
		Log:             wal.Options{Fsync: wal.FsyncNever},
		CheckpointBytes: -1, CheckpointRecords: -1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { f.Close() })
	ctx := context.Background()
	return func() {
		if n, err := f.Poll(ctx); n != 1 || err != nil {
			tb.Fatalf("poll applied %d records: %v", n, err)
		}
	}
}

// replayFrame answers every request with one 200 response carrying frame.
type replayFrame []byte

func (f replayFrame) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(f))}, nil
}
