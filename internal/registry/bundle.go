// bundle.go is the one-shot diagnostic surface: the per-component health
// rollup behind /registry/health, and /registry/debug/bundle — a single
// JSON document carrying everything an operator needs to debug a
// misbehaving node (config view, metrics snapshot, recent flight records
// and traces, WAL position, brownout tier, optional goroutine dump)
// without a round of follow-up requests against a box that may be
// shedding.
package registry

import (
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro/internal/flight"
	"repro/internal/nodestate"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wal"
)

// componentHealth is one subsystem's verdict in the /registry/health
// rollup: Status is "ok", "degraded", or "disabled"; Note says why, and
// Values carries the numbers the verdict was derived from.
type componentHealth struct {
	Status string             `json:"status"`
	Note   string             `json:"note,omitempty"`
	Values map[string]float64 `json:"values,omitempty"`
}

// balanceDegradedBelow is the fairness floor of the balance component:
// Jain's index under this over a sweep means some hosts are being
// starved or hammered badly enough to flag.
const balanceDegradedBelow = 0.5

// componentHealth builds the per-component rollup.
func (r *Registry) componentHealth(stats nodestate.Stats, hosts []nodestate.HostHealthReport) map[string]componentHealth {
	comps := make(map[string]componentHealth, 5)

	// Collector: degraded when any host is quarantined or its breaker
	// open — discovery is then deciding on a partial view.
	col := componentHealth{Status: "ok", Values: map[string]float64{
		"sweeps": float64(stats.Sweeps),
		"errors": float64(stats.Errs),
	}}
	for i := range hosts {
		if hosts[i].Health == store.HealthQuarantined {
			col.Status = "degraded"
			col.Note = "one or more hosts quarantined"
			break
		}
	}
	if stats.Sweeps == 0 {
		col.Note = "no sweep has completed yet"
	}
	comps["collector"] = col

	// WAL: a disk-write failure flips the registry read-only.
	switch {
	case r.Durable == nil:
		comps["wal"] = componentHealth{Status: "disabled", Note: "no -data-dir; registry is in-memory"}
	case r.Durable.Degraded():
		comps["wal"] = componentHealth{Status: "degraded", Note: "disk-write failure; registry is read-only"}
	default:
		comps["wal"] = componentHealth{Status: "ok", Values: map[string]float64{
			"segments":    float64(r.Durable.WAL().SegmentCount()),
			"checkpoints": float64(r.Durable.Checkpoints()),
		}}
	}

	// Admission: any brownout tier above nominal means the edge is
	// actively degrading service to stay up.
	if r.Admission == nil {
		comps["admission"] = componentHealth{Status: "disabled", Note: "no admission control; every request served"}
	} else {
		tier := r.Admission.Tier()
		adm := componentHealth{Status: "ok", Values: map[string]float64{
			"tier":        float64(tier),
			"transitions": float64(r.Admission.TierChanges()),
		}}
		if int(tier) > 0 {
			adm.Status = "degraded"
			adm.Note = "brownout ladder engaged"
		}
		comps["admission"] = adm
	}

	// Edge cache: informational — hits and misses say whether the
	// zero-allocation path is doing its job.
	comps["edgecache"] = componentHealth{Status: "ok", Values: map[string]float64{
		"entries": float64(r.RespCache.Len()),
		"hits":    float64(r.RespCache.Hits.Value()),
		"misses":  float64(r.RespCache.Misses.Value()),
	}}

	// Replication: a follower that cannot reach its leader is serving
	// increasingly stale reads; a leader is healthy whenever its stream
	// endpoints are up (lag is the followers' number to report).
	switch {
	case r.ReplLeader != nil:
		st := r.ReplLeader.Stats()
		comps["repl"] = componentHealth{Status: "ok", Note: "leader", Values: map[string]float64{
			"positionSegment": float64(st.Position.Segment),
			"positionOffset":  float64(st.Position.Offset),
			"seq":             float64(st.Seq),
			"activeStreams":   float64(st.ActiveStreams),
			"recordsStreamed": float64(st.RecordsStreamed),
		}}
	case r.follower.Load() != nil:
		st := r.follower.Load().Stats()
		rc := componentHealth{Status: "ok", Note: "follower", Values: map[string]float64{
			"appliedSegment": float64(st.Applied.Segment),
			"appliedOffset":  float64(st.Applied.Offset),
			"appliedSeq":     float64(st.AppliedSeq),
			"lagRecords":     float64(st.LagRecords),
			"lagSeconds":     st.LagSeconds,
			"applied":        float64(st.AppliedTotal),
			"rebootstraps":   float64(st.Rebootstraps),
		}}
		if !st.Connected {
			rc.Status = "degraded"
			rc.Note = "follower disconnected from leader; reads are going stale"
		}
		comps["repl"] = rc
	default:
		comps["repl"] = componentHealth{Status: "disabled", Note: "standalone registry; no replication role"}
	}

	// Balance: the paper's own success metric, judged per sweep.
	fair := r.Balance.FairnessIndex()
	balc := componentHealth{Status: "ok", Values: map[string]float64{
		"fairnessIndex": fair,
		"capacitySkew":  r.Balance.CapacitySkew(),
		"rollups":       float64(r.Balance.Rollups()),
	}}
	if fair < balanceDegradedBelow {
		balc.Status = "degraded"
		balc.Note = "assignments heavily skewed over the last sweep"
	}
	comps["balance"] = balc

	return comps
}

// bundleConfig is the effective-configuration view in the bundle: the
// knobs reachable from the live components, not the original Config
// struct (which the registry does not retain).
type bundleConfig struct {
	Policy           string  `json:"policy"`
	Freshness        float64 `json:"freshnessSeconds"`
	FallbackAll      bool    `json:"fallbackAll"`
	TraceSampleRate  int     `json:"traceSampleRate"`
	FlightRing       int     `json:"flightRing"`
	AdmissionEnabled bool    `json:"admissionEnabled"`
	Durable          bool    `json:"durable"`
}

// walPosition is the WAL's write position in the bundle.
type walPosition struct {
	Appends     int64 `json:"appends"`
	Bytes       int64 `json:"bytes"`
	Segments    int64 `json:"segments"`
	Checkpoints int64 `json:"checkpoints"`
	Degraded    bool  `json:"degraded"`
	// Recovery is what this boot read from disk and how long each phase took.
	Recovery wal.RecoveryStats `json:"recovery"`
}

// replSection is the replication view in the bundle: role, positions as
// seg:off strings, and the follower's lag and connection state.
type replSection struct {
	Role         string  `json:"role"`
	Position     string  `json:"position"`
	Seq          uint64  `json:"seq"`
	Leader       string  `json:"leader,omitempty"`
	LeaderSeq    uint64  `json:"leaderSeq,omitempty"`
	LagRecords   int64   `json:"lagRecords"`
	LagSeconds   float64 `json:"lagSeconds"`
	Connected    bool    `json:"connected"`
	Applied      int64   `json:"applied"`
	Errors       int64   `json:"errors"`
	Rebootstraps int64   `json:"rebootstraps"`
}

// bundleDoc is the /registry/debug/bundle response shape.
type bundleDoc struct {
	At           string                     `json:"at"`
	Config       bundleConfig               `json:"config"`
	Health       map[string]componentHealth `json:"health"`
	Metrics      string                     `json:"metrics"`
	Flight       []flight.RecordExport      `json:"flight"`
	Traces       []flight.RecordExport      `json:"traces"`
	WAL          *walPosition               `json:"wal"`
	Repl         *replSection               `json:"repl,omitempty"`
	BrownoutTier int                        `json:"brownoutTier"`
	SLO          map[string]obs.SLOBurn     `json:"slo"`
	Balance      map[string]int64           `json:"balanceAssignments"`
	Goroutines   string                     `json:"goroutines,omitempty"`
}

// bundleFlightRecords bounds the flight and traces sections of a bundle by
// default.
const bundleFlightRecords = 256

// handleBundle serves GET /registry/debug/bundle. Query parameters:
// n bounds the flight and traces sections (default 256), goroutines=1
// opts into a full goroutine stack dump (opt-in because it stops the world
// briefly and can be large).
func (r *Registry) handleBundle(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	n, ok := intParam(w, q, "n", bundleFlightRecords, 1)
	if !ok {
		return
	}
	var metricsText strings.Builder
	r.expo.WriteTo(&metricsText)
	var walPos *walPosition
	if r.Durable != nil {
		walPos = &walPosition{
			Appends:     r.Durable.WAL().Appends(),
			Bytes:       r.Durable.WAL().Bytes(),
			Segments:    r.Durable.WAL().SegmentCount(),
			Checkpoints: r.Durable.Checkpoints(),
			Degraded:    r.Durable.Degraded(),
			Recovery:    r.Durable.Recovery(),
		}
	}
	tier := 0
	if r.Admission != nil {
		tier = int(r.Admission.Tier())
	}
	var repl *replSection
	switch {
	case r.ReplLeader != nil:
		st := r.ReplLeader.Stats()
		repl = &replSection{
			Role:      "leader",
			Position:  st.Position.String(),
			Seq:       st.Seq,
			Connected: st.ActiveStreams > 0,
			Errors:    st.ErrorsTotal,
		}
	case r.follower.Load() != nil:
		st := r.follower.Load().Stats()
		repl = &replSection{
			Role:         "follower",
			Position:     st.Applied.String(),
			Seq:          st.AppliedSeq,
			Leader:       st.Leader,
			LeaderSeq:    st.LeaderSeq,
			LagRecords:   st.LagRecords,
			LagSeconds:   st.LagSeconds,
			Connected:    st.Connected,
			Applied:      st.AppliedTotal,
			Errors:       st.ErrorsTotal,
			Rebootstraps: st.Rebootstraps,
		}
	}
	doc := bundleDoc{
		At:           r.Clock.Now().UTC().Format(time.RFC3339Nano),
		Config:       r.bundleConfig(),
		Health:       r.componentHealth(r.Collector.FaultStats(), r.Collector.HealthSnapshot()),
		Metrics:      metricsText.String(),
		Flight:       flight.ExportAll(r.Flight.Snapshot(flight.Filter{Limit: n})),
		Traces:       flight.ExportAll(r.Flight.Snapshot(flight.Filter{Traced: true, Limit: n})),
		WAL:          walPos,
		Repl:         repl,
		BrownoutTier: tier,
		SLO:          r.SLOEngine.BurnRates(),
		Balance:      r.Balance.AssignmentsSnapshot(),
	}
	if q.Get("goroutines") == "1" {
		buf := make([]byte, 1<<20)
		doc.Goroutines = string(buf[:runtime.Stack(buf, true)])
	}
	writeJSON(w, doc)
}

func (r *Registry) bundleConfig() bundleConfig {
	return bundleConfig{
		Policy:           r.Balancer.Policy.String(),
		Freshness:        r.Balancer.Freshness.Seconds(),
		FallbackAll:      r.Balancer.FallbackAll,
		TraceSampleRate:  r.traceEvery(),
		FlightRing:       r.Flight.Len(),
		AdmissionEnabled: r.Admission != nil,
		Durable:          r.Durable != nil,
	}
}
