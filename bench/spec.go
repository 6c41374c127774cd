package main

// This file fixes the names: workloads, end-to-end metrics and per-layer
// metrics. BENCHMARK.json is generated from these tables (-calibrate) and
// a test keeps the two in step.

// workloadSpec describes one workload's population and traffic.
type workloadSpec struct {
	name        string
	why         string
	services    int
	hostsPer    int     // bindings per service
	statusHosts int     // hosts bound to the NodeStatus service
	follower    bool    // boot a -repl-follow follower
	rate        int     // open-loop requests per second; 0 = no read phases
	soapShare   float64 // share of discovery requests sent over SOAP
	// nominalClientUs is what one exchange of the workload's saturated phase
	// costs the load generator in CPU time at nominal machine speed: the
	// median of the calibration runs on the sandbox this benchmark was
	// written on. It only fixes the scale; see window in loadgen.go.
	nominalClientUs float64
}

// The cold population is shared by mixed_cold and crash_recover.
const (
	coldServices = 2048
	coldHosts    = 32
)

var workloads = []workloadSpec{
	{
		name:     "rest_hot",
		why:      "64 services fit respcache, so all but the 64 misses a sweep causes are preserialized hits: router, admit, respcache, flight and net/http carry the run",
		services: 64, hostsPer: 8, statusHosts: 8, rate: 2000, nominalClientUs: 25,
	},
	{
		name:     "mixed_cold",
		why:      "2048 services are twice both 1024-entry caches, read from a follower half over SOAP: most requests run qm, store, constraint, core arrange over 32 hosts and render",
		services: coldServices, hostsPer: coldHosts, statusHosts: coldHosts, follower: true, rate: 1000, soapShare: 0.5, nominalClientUs: 45,
	},
	{
		name:     "publish_follow",
		why:      "one client writes to the leader and reads the follower: fsync, epoch bump, WAL shipping, apply and cache invalidation, the layers the read workloads use the other way round",
		services: 512, hostsPer: 8, statusHosts: 8, follower: true, nominalClientUs: 60,
	},
	{
		name:     "crash_recover",
		why:      "no client traffic: kill -9 and reboot on the cold population with 256 NodeStatus hosts; checkpoint load, WAL replay and the first sweep, which no read workload touches",
		services: coldServices, hostsPer: coldHosts, statusHosts: 256,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	doc    string
}

// The driver wants every end-to-end metric from every workload, so the
// latency and throughput slots are named by role and each workload says
// what its primary operation is (see aliases below and bench/README.md).
// setup_s and disk_bytes_per_object mean the same thing everywhere.
//
// On rest_hot, mixed_cold and publish_follow the four time-like metrics
// are taken over the saturated phase and stated at nominal machine speed
// (see window in loadgen.go); what the phase measured raw is in the
// per-layer list as loadgen.raw_*. crash_recover has no load generator
// and reports raw times.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "boot + register/login + populate + follower converged + first sweep seen; median of the set-ups made in the run, build excluded"},
	{"primary_p50_ms", "ms", "lower", 0.25, "median latency of the workload's primary operation; median over the run's one-second windows"},
	{"primary_p90_ms", "ms", "lower", 0.25, "p90 latency of the primary operation; median over the windows"},
	{"throughput_ops", "1/s", "higher", 0.25, "primary operations completed correctly per second; median over the windows"},
	{"cpu_us_per_op", "us", "lower", 0.25, "on-CPU time (schedstat) of all regserver processes over the timed phase per primary operation"},
	{"disk_bytes_per_object", "B", "lower", 0.05, "bytes under the leader's -data-dir per registry object at the end of the run"},
}

// alias names what a role-named slot measures on one workload, in the
// vocabulary of ISSUE.md. scale converts the slot's unit to the alias's.
type alias struct {
	slot  string
	name  string
	unit  string
	scale float64
	doc   string
}

var aliases = map[string][]alias{
	"rest_hot": {
		{"primary_p50_ms", "rest_p50_ms", "ms", 1, "REST discovery, closed loop on 2 connections"},
		{"primary_p90_ms", "discover_p90_ms", "ms", 1, "p90 of the same"},
		{"throughput_ops", "discover_rps", "1/s", 1, "correct answers per second, closed loop on 2 connections"},
	},
	"mixed_cold": {
		{"primary_p50_ms", "discover_p50_ms", "ms", 1, "discovery on the follower, half REST half SOAP, closed loop on 2 connections"},
		{"primary_p90_ms", "discover_p90_ms", "ms", 1, "p90 of the same"},
		{"throughput_ops", "discover_rps", "1/s", 1, "correct answers per second, closed loop on 2 connections"},
	},
	"publish_follow": {
		{"primary_p50_ms", "write_p50_ms", "ms", 1, "SOAP write to ack on the leader (-fsync always)"},
		{"primary_p90_ms", "write_p90_ms", "ms", 1, "p90 of the same; carries checkpoint stalls"},
		{"throughput_ops", "publish_rps", "1/s", 1, "writes acknowledged, shipped and read back from the follower per second, one client"},
	},
	"crash_recover": {
		{"primary_p50_ms", "recover_s", "s", 1e-3, "exec to health 200 + correct discovery after kill -9, median of the boots"},
		{"primary_p90_ms", "recover_p90_s", "s", 1e-3, "p90 of the boots"},
		{"throughput_ops", "recovered_objects_per_s", "1/s", 1, "registry objects recovered per second of recover_s"},
	},
}

// Per-layer metrics. Every workload reports every one, measured on its
// own population (a loadgen metric of a phase the workload does not have
// reads 0): ISSUE.md's size-suffixed names are this metric on the
// workload of that size (core.arrange_ns_h8 is core.arrange_ns on
// rest_hot, _h32 on mixed_cold; lcm.submit_ns_512 is lcm.submit_ns on
// publish_follow, _67k on mixed_cold; sweep_http_ms_h256 is
// nodestate.sweep_http_ms on crash_recover).
var perLayer = []metricDef{
	// Seen by the load generator.
	{name: "loadgen.samples", unit: "count", better: "higher", doc: "timed primary operations"},
	{name: "loadgen.speed_index", unit: "ratio", better: "lower", doc: "the generator's CPU time per exchange over the workload's nominal: above 1 the machine ran slow; what the end-to-end times are divided by"},
	{name: "loadgen.client_cpu_us", unit: "us", better: "lower", doc: "the generator's CPU time per exchange, the yardstick itself"},
	{name: "loadgen.raw_p50_ms", unit: "ms", better: "lower", doc: "primary_p50_ms as measured, over the whole phase"},
	{name: "loadgen.raw_throughput_ops", unit: "1/s", better: "higher", doc: "throughput_ops as measured, over the whole phase"},
	{name: "loadgen.raw_cpu_us_per_op", unit: "us", better: "lower", doc: "cpu_us_per_op as measured"},
	{name: "loadgen.rest_p50_ms", unit: "ms", better: "lower", doc: "saturated REST discovery p50 at nominal speed"},
	{name: "loadgen.soap_p50_ms", unit: "ms", better: "lower", doc: "saturated SOAP discovery p50 at nominal speed (mixed_cold)"},
	{name: "loadgen.open_p50_ms", unit: "ms", better: "lower", doc: "open loop at the workload's fixed rate, latency from the due time, raw (read workloads, traced run)"},
	{name: "loadgen.open_p90_ms", unit: "ms", better: "lower", doc: "p90 of the same"},
	{name: "loadgen.open_p99_ms", unit: "ms", better: "lower", doc: "p99 of the same (a stalled neighbour moves it 40x)"},
	{name: "loadgen.visible_p50_ms", unit: "ms", better: "lower", doc: "last ack of a batch to first correct answer on the follower, raw (publish_follow)"},
	{name: "loadgen.read_after_write_p50_ms", unit: "ms", better: "lower", doc: "REST read of a just-written service on the follower, raw (publish_follow)"},
	{name: "loadgen.net_overhead_us", unit: "us", better: "lower", doc: "1-connection closed-loop REST p50 over the socket minus the in-process handler time: latency outside this repo's code"},
	{name: "proc.rss_peak_mb", unit: "MB", better: "lower", doc: "largest VmHWM over the workload's regserver processes (moves 17 % with where the GC cycles fall)"},
	// Scraped from /registry/metrics around the timed phases.
	{name: "admit.shed_total", unit: "count", better: "lower", doc: "scraped: requests shed; must be 0"},
	{name: "admit.queued_total", unit: "count", better: "lower", doc: "scraped: requests queued"},
	{name: "admit.tier_max", unit: "count", better: "lower", doc: "scraped: highest brownout tier seen; must be 0"},
	{name: "respcache.hit_ratio", unit: "ratio", better: "higher", doc: "scraped: hits/(hits+misses) on the serving node"},
	{name: "respcache.invalidations", unit: "count", better: "lower", doc: "scraped: epoch bumps on the serving node"},
	{name: "constraint.hit_ratio", unit: "ratio", better: "higher", doc: "scraped: parsed-constraint cache hits/(hits+misses)"},
	{name: "wal.fsyncs_per_write", unit: "ratio", better: "lower", doc: "scraped: leader fsyncs per WAL append over the run, population included"},
	{name: "wal.bytes_per_write", unit: "B", better: "lower", doc: "scraped: leader WAL bytes per append"},
	{name: "wal.checkpoints", unit: "count", better: "lower", doc: "scraped: leader checkpoints over the run"},
	{name: "wal.replayed_records", unit: "count", better: "lower", doc: "scraped: WAL records replayed by the last boot"},
	{name: "repl.lag_records_max", unit: "count", better: "lower", doc: "scraped: records the follower is behind when the timed phases end; a follower that keeps up reads 0"},
	{name: "repl.errors", unit: "count", better: "lower", doc: "scraped: replication errors on leader and follower"},
	{name: "nodestate.sweep_http_ms", unit: "ms", better: "lower", doc: "median collector sweep as the bench's NodeStatus listener sees it: first request in to last response out"},
	{name: "nodestate.cpu_ms_per_sweep", unit: "ms", better: "lower", doc: "server CPU over an idle stretch per sweep"},
	{name: "nodestate.errors", unit: "count", better: "lower", doc: "scraped: collector errors + timeouts"},
	{name: "auth.register_login_ms", unit: "ms", better: "lower", doc: "register + challenge + login over SOAP, timed in set-up"},
	// Traced: spans the bench records around a layer's public calls in
	// the in-process run; self time per call, median.
	{name: "router.dispatch_ns", unit: "ns", better: "lower", doc: "traced: Router.ServeHTTP to the bindings route"},
	{name: "admit.admit_release_ns", unit: "ns", better: "lower", doc: "traced: TryAdmit(ClassDiscovery) + Release"},
	{name: "admit.budget_ns", unit: "ns", better: "lower", doc: "traced: Deadline + WithBudget, which only a miss pays"},
	{name: "flight.append_ns", unit: "ns", better: "lower", doc: "traced: Ring.Append"},
	{name: "respcache.lookup_hit_ns", unit: "ns", better: "lower", doc: "traced: Lookup that hits"},
	{name: "respcache.lookup_miss_ns", unit: "ns", better: "lower", doc: "traced: Lookup that misses"},
	{name: "respcache.store_ns", unit: "ns", better: "lower", doc: "traced: StoreAt"},
	{name: "qm.get_bindings_ns", unit: "ns", better: "lower", doc: "traced: GetServiceBindingsByNameCtx"},
	{name: "qm.self_ns", unit: "ns", better: "lower", doc: "the same minus the view load and the arrange it calls"},
	{name: "store.service_view_ns", unit: "ns", better: "lower", doc: "traced: ServiceViewByName"},
	{name: "store.snapshot_ns", unit: "ns", better: "lower", doc: "traced: Balancer.SnapshotMeta (NodeStateTable.Snapshot)"},
	{name: "constraint.cache_hit_ns", unit: "ns", better: "lower", doc: "traced: Cache.FromDescription that hits"},
	{name: "constraint.parse_ns", unit: "ns", better: "lower", doc: "traced: constraint.FromDescription"},
	{name: "core.arrange_ns", unit: "ns", better: "lower", doc: "traced: Balancer.ArrangeView at the workload's host count"},
	{name: "core.arrange_allocs", unit: "count", better: "lower", doc: "allocations per ArrangeView (MemStats.Mallocs delta)"},
	{name: "soap.unmarshal_ns", unit: "ns", better: "lower", doc: "traced: soap.Unmarshal of a GetBindingsRequest envelope"},
	{name: "soap.marshal_ns", unit: "ns", better: "lower", doc: "traced: soap.Marshal of the GetBindingsResponse"},
	{name: "registry.render_json_ns", unit: "ns", better: "lower", doc: "traced: indent-1 JSON encode of the bindings body"},
	{name: "registry.handler_rest_hit_ns", unit: "ns", better: "lower", doc: "Handler().ServeHTTP, REST, answer cached"},
	{name: "registry.handler_rest_miss_ns", unit: "ns", better: "lower", doc: "Handler().ServeHTTP, REST, answer not cached"},
	{name: "registry.handler_soap_hit_ns", unit: "ns", better: "lower", doc: "Handler().ServeHTTP, SOAP, answer cached"},
	{name: "registry.handler_soap_miss_ns", unit: "ns", better: "lower", doc: "Handler().ServeHTTP, SOAP, answer not cached"},
	{name: "registry.handler_rest_hit_allocs", unit: "count", better: "lower", doc: "allocations per request of the same"},
	{name: "registry.handler_rest_miss_allocs", unit: "count", better: "lower", doc: "allocations per request of the same"},
	{name: "registry.handler_soap_hit_allocs", unit: "count", better: "lower", doc: "allocations per request of the same"},
	{name: "registry.handler_soap_miss_allocs", unit: "count", better: "lower", doc: "allocations per request of the same"},
	{name: "trace.coverage_rest_miss", unit: "ratio", better: "higher", doc: "sum of stage self times / handler time, REST miss"},
	{name: "trace.coverage_soap_miss", unit: "ratio", better: "higher", doc: "sum of stage self times / handler time, SOAP miss"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", doc: "shadow pipeline with spans / without: what tracing costs the bench"},
	{name: "lcm.submit_ns", unit: "ns", better: "lower", doc: "traced: LCM.SubmitObjects of one 4-binding service into the workload's population"},
	{name: "wal.append_ns_always", unit: "ns", better: "lower", doc: "traced: Log.Append of 1 KiB, fsync always"},
	{name: "wal.append_ns_never", unit: "ns", better: "lower", doc: "traced: Log.Append of 1 KiB, fsync never"},
	{name: "wal.checkpoint_ms", unit: "ms", better: "lower", doc: "traced: Durable.Checkpoint of the population"},
	{name: "store.save_ms", unit: "ms", better: "lower", doc: "traced: Store.Save of the population"},
	{name: "store.load_ms", unit: "ms", better: "lower", doc: "traced: Store.Load of the population"},
	{name: "wal.open_durable_ms", unit: "ms", better: "lower", doc: "traced: OpenDurable on a copy of the population's data dir"},
	{name: "wal.apply_record_ns", unit: "ns", better: "lower", doc: "traced: wal.ApplyRecord of one submit"},
	{name: "repl.poll_apply_us_per_record", unit: "us", better: "lower", doc: "traced: Follower.Poll against an in-process leader, per record applied"},
	{name: "nodestate.sweep_local_ms", unit: "ms", better: "lower", doc: "traced: Collector.CollectOnce with an in-process invoker"},
	{name: "nodestatus.invoke_us", unit: "us", better: "lower", doc: "traced: HTTPInvoker.InvokeContext against the bench listener"},
}
