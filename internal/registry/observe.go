package registry

import (
	"net/http"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/wal"
)

// discoveryMetrics are the counters the HTTP discovery handlers maintain
// on top of what the balancer and collector already track: request
// totals, per-verdict binding classifications, and a latency histogram.
// They are observed after the response is computed, off the benched
// QueryManager path.
type discoveryMetrics struct {
	total    metrics.Counter
	errors   metrics.Counter
	fallback metrics.Counter
	degraded metrics.Counter

	eligible    metrics.Counter
	unknown     metrics.Counter
	ineligible  metrics.Counter
	quarantined metrics.Counter

	latency *obs.Histogram
	balance *obs.Balance
}

// observe folds one discovery decision into the counters. host is the
// host the client was directed to (empty when nothing was served), age
// how stale the NodeState snapshot behind the decision was, and seconds
// the request's wall (or sim) duration. Runs on the cache-hit path, so
// it must not allocate.
func (d *discoveryMetrics) observe(dec *core.Decision, host string, age time.Duration, seconds float64) {
	d.total.Inc()
	if dec.FellBack {
		d.fallback.Inc()
	}
	if dec.Degraded {
		d.degraded.Inc()
	}
	d.eligible.Add(int64(dec.Eligible()))
	d.unknown.Add(int64(dec.Unknown()))
	d.ineligible.Add(int64(dec.Ineligible()))
	d.quarantined.Add(int64(dec.Quarantined()))
	d.latency.Observe(seconds)
	d.balance.NoteAssignment(host)
	d.balance.NoteStaleness(age.Seconds())
}

// rollup runs after every collector sweep (see nodestate.WithAfterSweep):
// it folds the interval's assignments into the fairness/skew gauges,
// weighting each host by its collected memory capacity, and cuts one SLO
// burn-rate sample from the cumulative discovery counters.
func (r *Registry) rollup() {
	rows := r.Store.NodeState().Rows()
	weights := make(map[string]float64, len(rows))
	for i := range rows {
		w := float64(rows[i].MemoryB)
		if w <= 0 {
			w = 1
		}
		weights[rows[i].Host] = w
	}
	r.Balance.Rollup(weights)
	d := &r.discovery
	cnt := d.latency.Count()
	slow := cnt - d.latency.CountAtOrBelow(r.SLOEngine.Config().LatencyObjectiveSeconds)
	r.SLOEngine.Record(r.Clock.Now(), d.total.Value(), d.errors.Value(), cnt, slow)
}

// buildExposition registers every exported metric family against the live
// component state. Closures read at scrape time, so the instrumented
// components pay nothing between scrapes; nil components (no breakers, no
// data directory, no admission) simply read as zero.
func (r *Registry) buildExposition() *obs.Exposition {
	e := obs.NewExposition()

	e.Gauge("registry_objects",
		"Registry objects currently stored.",
		func() float64 { return float64(r.Store.Len()) })

	// Reads 0 for good: nothing on the serving path consults the cache.
	// The family stays because bench/bench_test.go requires the name.
	e.Counter("registry_constraint_cache_hits_total",
		"Retired: discovery reads the store's per-service digest, so this stays 0.",
		func() int64 { return r.ConstraintCache.Hits.Value() })

	// Preserialized response cache (the zero-allocation serving edge).
	rc := r.RespCache
	e.Counter("registry_respcache_hits_total",
		"Discovery requests that reused a cached decision: answered from a preserialized response, or from one rendered on the spot when the entry did not yet carry the request's encoding.",
		rc.Hits.Value)
	e.Counter("registry_respcache_misses_total",
		"Discovery cache lookups that fell through to the balancer.",
		rc.Misses.Value)
	e.Counter("registry_respcache_invalidations_total",
		"How far the response cache's epoch has advanced since boot: store changes (writes, followed records, bootstraps), brownout transitions and explicit flushes.",
		func() int64 { return int64(rc.Epoch() - r.bootEpoch) })
	e.Gauge("registry_respcache_entries",
		"Preserialized responses currently cached.",
		func() float64 { return float64(rc.Len()) })
	for enc := encoding(0); enc < numEncodings; enc++ {
		e.LabelledCounter("registry_respcache_renders_total",
			"Discovery answers rendered, by encoding: one per miss, and one the first time a cached answer is asked for in its other encoding.",
			"encoding", enc.String(), r.renders[enc].Value)
	}

	// The frozen router's request-limit rejects. The router is built
	// lazily by Handler(), so the pointer may be nil at scrape time.
	edgeCount := func(pick func(*router.Router) int64) func() int64 {
		return func() int64 {
			if edge := r.edge.Load(); edge != nil {
				return pick(edge)
			}
			return 0
		}
	}
	e.LabelledCounter("registry_edge_rejected_total",
		"Requests rejected by the frozen router's request limits.", "reason", "path-too-long",
		edgeCount(func(rt *router.Router) int64 { return rt.TooLong.Value() }))
	e.LabelledCounter("registry_edge_rejected_total",
		"Requests rejected by the frozen router's request limits.", "reason", "too-deep",
		edgeCount(func(rt *router.Router) int64 { return rt.TooDeep.Value() }))
	e.LabelledCounter("registry_edge_rejected_total",
		"Requests rejected by the frozen router's request limits.", "reason", "not-found",
		edgeCount(func(rt *router.Router) int64 { return rt.NotFound.Value() }))

	// Collector fault tolerance.
	e.Counter("registry_collector_sweeps_total",
		"Completed NodeStatus collection sweeps.",
		func() int64 { return int64(r.Collector.FaultStats().Sweeps) })
	e.Counter("registry_collector_errors_total",
		"NodeStatus invocations that exhausted their retries and failed.",
		func() int64 { return int64(r.Collector.FaultStats().Errs) })
	e.Counter("registry_collector_timeouts_total",
		"NodeStatus invocation attempts that hit the per-invocation deadline.",
		func() int64 { return int64(r.Collector.FaultStats().Timeouts) })
	e.Counter("registry_collector_retries_total",
		"NodeStatus invocation re-attempts after a failure.",
		func() int64 { return int64(r.Collector.FaultStats().Retries) })
	e.Counter("registry_collector_breaker_skips_total",
		"Sweep slots skipped because the host's circuit breaker was open.",
		func() int64 { return int64(r.Collector.FaultStats().Skipped) })
	e.GaugeVec("registry_breaker_state",
		"Per-host collector breaker state (0 closed, 1 open, 2 half-open).",
		"host", func() map[string]float64 {
			out := map[string]float64{}
			if r.Breakers != nil {
				for _, b := range r.Breakers.Snapshot() {
					out[b.Host] = float64(b.State)
				}
			}
			return out
		})

	// NodeState table and its RCU snapshot.
	table := r.Store.NodeState()
	e.Gauge("registry_nodestate_rows",
		"Rows in the NodeState table.",
		func() float64 { return float64(table.Len()) })
	e.GaugeVec("registry_node_load",
		"Last collected CPU load per host.",
		"host", func() map[string]float64 {
			rows := table.Rows()
			out := make(map[string]float64, len(rows))
			for _, row := range rows {
				out[row.Host] = row.Load
			}
			return out
		})
	e.GaugeVec("registry_node_health",
		"Per-host health from the collector (0 healthy, 1 degraded, 2 quarantined).",
		"host", func() map[string]float64 {
			rows := table.Rows()
			out := make(map[string]float64, len(rows))
			for _, row := range rows {
				out[row.Host] = float64(row.Health)
			}
			return out
		})
	e.Gauge("registry_nodestate_snapshot_generation",
		"Publish generation of the installed NodeState snapshot.",
		func() float64 {
			if s := table.Published(); s != nil {
				return float64(s.Gen())
			}
			return 0
		})
	e.Gauge("registry_nodestate_snapshot_age_seconds",
		"Age of the installed NodeState snapshot on the registry clock.",
		func() float64 {
			if s := table.Published(); s != nil {
				return r.Clock.Now().Sub(s.Taken()).Seconds()
			}
			return 0
		})

	// HTTP discovery path.
	d := &r.discovery
	e.Counter("registry_discovery_total",
		"HTTP discovery (GetBindings) requests served.",
		func() int64 { return d.total.Value() })
	e.Counter("registry_discovery_errors_total",
		"HTTP discovery requests that failed (unknown service).",
		func() int64 { return d.errors.Value() })
	e.Counter("registry_discovery_fallback_total",
		"Discoveries where no host was eligible and FallbackAll served the load-ordered list.",
		func() int64 { return d.fallback.Value() })
	e.Counter("registry_discovery_degraded_total",
		"Discoveries served in degraded-static mode (nothing survived filtering).",
		func() int64 { return d.degraded.Value() })
	e.LabelledCounter("registry_discovery_verdicts_total",
		"Binding verdicts assigned by discovery.", "verdict", "eligible",
		func() int64 { return d.eligible.Value() })
	e.LabelledCounter("registry_discovery_verdicts_total",
		"Binding verdicts assigned by discovery.", "verdict", "unknown",
		func() int64 { return d.unknown.Value() })
	e.LabelledCounter("registry_discovery_verdicts_total",
		"Binding verdicts assigned by discovery.", "verdict", "ineligible",
		func() int64 { return d.ineligible.Value() })
	e.LabelledCounter("registry_discovery_verdicts_total",
		"Binding verdicts assigned by discovery.", "verdict", "quarantined",
		func() int64 { return d.quarantined.Value() })
	e.RegisterHistogram("registry_discovery_latency_seconds",
		"HTTP discovery request latency on the registry clock.", d.latency)

	// Balance quality: how evenly discovery is actually spreading clients,
	// rolled up once per collector sweep (the paper's central claim, now
	// measured rather than assumed).
	bal := r.Balance
	e.CounterVec("registry_balance_assignments_total",
		"Discovery answers that directed a client to each host.",
		"host", func() map[string]int64 { return bal.AssignmentsSnapshot() })
	e.Gauge("registry_balance_fairness_index",
		"Jain's fairness index of per-host assignments over the last non-idle collector sweep (1 = perfectly even).",
		bal.FairnessIndex)
	e.Gauge("registry_balance_capacity_skew",
		"Worst host's assignment share relative to its memory-capacity share over the last non-idle sweep (1 = capacity-proportional).",
		bal.CapacitySkew)
	e.Counter("registry_balance_rollups_total",
		"Balance fairness rollups performed (one per collector sweep).",
		bal.Rollups)
	e.RegisterHistogram("registry_balance_staleness_seconds",
		"Age of the NodeState snapshot behind each served discovery answer.",
		bal.StalenessHistogram())

	// SLO burn rates over the discovery counters: 1 consumes the error
	// budget exactly as fast as the objective allows.
	slo := r.SLOEngine
	e.GaugeVec("registry_slo_availability_burn_rate",
		"Discovery availability error-budget burn rate per lookback window.",
		"window", func() map[string]float64 {
			rates := slo.BurnRates()
			out := make(map[string]float64, len(rates))
			for w, b := range rates {
				out[w] = b.Availability
			}
			return out
		})
	e.GaugeVec("registry_slo_latency_burn_rate",
		"Discovery latency error-budget burn rate per lookback window.",
		"window", func() map[string]float64 {
			rates := slo.BurnRates()
			out := make(map[string]float64, len(rates))
			for w, b := range rates {
				out[w] = b.Latency
			}
			return out
		})

	// Durability (WAL + checkpoints). With no -data-dir the Durable is
	// nil and every series reads zero.
	durable := r.Durable
	e.Counter("registry_wal_appends_total",
		"Mutation records appended to the write-ahead log.",
		func() int64 {
			if durable == nil {
				return 0
			}
			return durable.WAL().Appends()
		})
	e.Counter("registry_wal_fsyncs_total",
		"fsync calls issued by the write-ahead log.",
		func() int64 {
			if durable == nil {
				return 0
			}
			return durable.WAL().Fsyncs()
		})
	e.Counter("registry_wal_bytes_total",
		"Bytes appended to the write-ahead log, framing included.",
		func() int64 {
			if durable == nil {
				return 0
			}
			return durable.WAL().Bytes()
		})
	e.Gauge("registry_wal_segments",
		"Live write-ahead-log segment files on disk.",
		func() float64 {
			if durable == nil {
				return 0
			}
			return float64(durable.WAL().SegmentCount())
		})
	e.Counter("registry_wal_replay_records_total",
		"WAL records replayed by boot recovery.",
		func() int64 {
			if durable == nil {
				return 0
			}
			return durable.Recovery().ReplayedRecords
		})
	e.Counter("registry_checkpoints_total",
		"Atomic checkpoints written since boot.",
		func() int64 {
			if durable == nil {
				return 0
			}
			return durable.Checkpoints()
		})
	e.Gauge("registry_checkpoint_duration_seconds",
		"Wall time of the most recent checkpoint on the registry clock.",
		func() float64 {
			if durable == nil {
				return 0
			}
			return durable.LastCheckpointSeconds()
		})
	e.GaugeVec("registry_wal_recovery_seconds",
		"Where boot recovery's time went on the registry clock: loading the checkpoint, replaying the WAL tail.",
		"phase", func() map[string]float64 {
			var rec wal.RecoveryStats
			if durable != nil {
				rec = durable.Recovery()
			}
			return map[string]float64{"load": rec.LoadSeconds, "replay": rec.ReplaySeconds}
		})
	e.Gauge("registry_wal_degraded",
		"1 when a disk-write failure has flipped the registry read-only.",
		func() float64 {
			if durable != nil && durable.Degraded() {
				return 1
			}
			return 0
		})

	// Replication. On a leader the families read the stream-serving side
	// (position = committed WAL cursor, connected = active follower
	// streams); on a follower they read the tailer (position = applied
	// leader position, lag = leader seq minus applied seq). A standalone
	// registry reads every series as zero.
	e.GaugeVec("registry_repl_position",
		"Replication position: the leader's committed WAL cursor, or the follower's applied leader position.",
		"part",
		func() map[string]float64 {
			if f := r.follower.Load(); f != nil {
				st := f.Stats()
				return map[string]float64{
					"segment": float64(st.Applied.Segment),
					"offset":  float64(st.Applied.Offset),
					"seq":     float64(st.AppliedSeq),
				}
			}
			if r.ReplLeader != nil {
				st := r.ReplLeader.Stats()
				return map[string]float64{
					"segment": float64(st.Position.Segment),
					"offset":  float64(st.Position.Offset),
					"seq":     float64(st.Seq),
				}
			}
			return map[string]float64{}
		})
	e.Gauge("registry_repl_lag_records",
		"Records the follower is behind the leader's committed sequence (0 on a leader).",
		func() float64 {
			if f := r.follower.Load(); f != nil {
				return float64(f.Stats().LagRecords)
			}
			return 0
		})
	e.Gauge("registry_repl_lag_seconds",
		"Seconds since the follower last applied a record or confirmed it was caught up (0 while connected and caught up).",
		func() float64 {
			if f := r.follower.Load(); f != nil {
				return f.Stats().LagSeconds
			}
			return 0
		})
	e.Gauge("registry_repl_connected",
		"Follower: 1 while the last poll succeeded. Leader: follower streams being served right now.",
		func() float64 {
			if f := r.follower.Load(); f != nil {
				if f.Stats().Connected {
					return 1
				}
				return 0
			}
			if r.ReplLeader != nil {
				return float64(r.ReplLeader.Stats().ActiveStreams)
			}
			return 0
		})
	e.Counter("registry_repl_applied_total",
		"Replicated records applied by this follower (0 on a leader).",
		func() int64 {
			if f := r.follower.Load(); f != nil {
				return f.Stats().AppliedTotal
			}
			return 0
		})
	e.Counter("registry_repl_streams_total",
		"WAL stream responses: started by this leader, or requested by this follower; applied_total over it is records per exchange.",
		func() int64 {
			if f := r.follower.Load(); f != nil {
				return f.Stats().PollsTotal
			}
			if r.ReplLeader != nil {
				return r.ReplLeader.Stats().StreamsTotal
			}
			return 0
		})
	e.Counter("registry_repl_errors_total",
		"Replication errors: failed polls or applies on a follower, failed stream serves on a leader.",
		func() int64 {
			if f := r.follower.Load(); f != nil {
				return f.Stats().ErrorsTotal
			}
			if r.ReplLeader != nil {
				return r.ReplLeader.Stats().ErrorsTotal
			}
			return 0
		})

	// Tracing.
	e.Counter("registry_traces_sampled_total",
		"Requests the sampler gave a trace id and stage timings in their flight record.",
		func() int64 { return r.Sampler.Sampled() })
	e.Gauge("registry_trace_sample_rate",
		"Trace sampling rate (every Nth request; 0 disabled).",
		func() float64 { return float64(r.traceEvery()) })

	// Admission control and the brownout ladder. A nil controller (no
	// Config.Admission) reads every series as zero.
	ctrl := r.Admission
	stats := func(class admit.Class) admit.ClassStats {
		if ctrl == nil {
			return admit.ClassStats{}
		}
		return ctrl.ClassStats(class)
	}
	for _, class := range []admit.Class{admit.ClassDiscovery, admit.ClassLCM} {
		class := class
		label := class.String()
		e.LabelledCounter("registry_admission_admitted_total",
			"Requests granted an in-flight slot, immediately or via the wait queue.", "class", label,
			func() int64 { return stats(class).Admitted })
		e.LabelledCounter("registry_admission_shed_total",
			"Requests rejected with 503 + Retry-After: at a full queue, or dropped at its head by CoDel.", "class", label,
			func() int64 { return stats(class).Shed })
		e.LabelledCounter("registry_admission_queued_total",
			"Requests that waited in the bounded FIFO queue for a slot.", "class", label,
			func() int64 { return stats(class).Queued })
		e.LabelledCounter("registry_admission_deadline_exceeded_total",
			"Requests whose deadline budget ran out, waiting in the queue or running.", "class", label,
			func() int64 { return stats(class).DeadlineExceeded })
	}
	e.GaugeVec("registry_admission_inflight",
		"Requests currently executing, per admission class.",
		"class", func() map[string]float64 {
			return map[string]float64{
				admit.ClassDiscovery.String(): float64(stats(admit.ClassDiscovery).InFlight),
				admit.ClassLCM.String():       float64(stats(admit.ClassLCM).InFlight),
			}
		})
	e.GaugeVec("registry_admission_queue_depth",
		"Requests currently waiting for a slot, per admission class.",
		"class", func() map[string]float64 {
			return map[string]float64{
				admit.ClassDiscovery.String(): float64(stats(admit.ClassDiscovery).QueueDepth),
				admit.ClassLCM.String():       float64(stats(admit.ClassLCM).QueueDepth),
			}
		})
	dropping := func(class admit.Class) float64 {
		if stats(class).Dropping {
			return 1
		}
		return 0
	}
	e.GaugeVec("registry_admission_dropping",
		"1 while CoDel drops queued requests at the head of the class's queue, else 0.",
		"class", func() map[string]float64 {
			return map[string]float64{
				admit.ClassDiscovery.String(): dropping(admit.ClassDiscovery),
				admit.ClassLCM.String():       dropping(admit.ClassLCM),
			}
		})
	e.Gauge("registry_brownout_tier",
		"Current brownout ladder tier (0 nominal, 1 no-trace, 2 stale, 3 static).",
		func() float64 {
			if ctrl == nil {
				return 0
			}
			return float64(ctrl.Tier())
		})
	e.Counter("registry_brownout_transitions_total",
		"Brownout ladder transitions since boot.",
		func() int64 {
			if ctrl == nil {
				return 0
			}
			return ctrl.TierChanges()
		})

	return e
}

// handleMetrics serves /registry/metrics in the Prometheus text
// exposition format.
func (r *Registry) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.expo.WriteTo(w)
}
