// export.go renders flight records for /registry/flight and the debug
// bundle: enums become their names, instants become RFC3339 UTC, and
// durations become seconds.
package flight

import "time"

// RecordExport is the JSON shape of one flight record.
type RecordExport struct {
	Seq                uint64  `json:"seq"`
	At                 string  `json:"at"`
	Route              string  `json:"route"`
	Outcome            string  `json:"outcome"`
	Status             int32   `json:"status"`
	CacheHit           bool    `json:"cacheHit"`
	Verdict            string  `json:"verdict"`
	Tier               uint8   `json:"tier"`
	SnapshotGen        uint64  `json:"snapshotGen"`
	SnapshotAgeSeconds float64 `json:"snapshotAgeSeconds"`
	Eligible           int     `json:"eligible"`
	Unknown            int     `json:"unknown"`
	Ineligible         int     `json:"ineligible"`
	Quarantined        int     `json:"quarantined"`
	LatencySeconds     float64 `json:"latencySeconds"`
	Host               string  `json:"host,omitempty"`
	Trace              string  `json:"trace,omitempty"`
	// Stages lists a sampled record's stage times in path order; absent
	// on records without a trace id.
	Stages []StageExport `json:"stages,omitempty"`
}

// StageExport is one discovery stage of a sampled record.
type StageExport struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Export renders the record.
func (r *Record) Export() RecordExport {
	var stages []StageExport
	if r.Trace != "" {
		stages = make([]StageExport, NumStages)
		for i, d := range r.Stages {
			stages[i] = StageExport{Name: StageNames[i], Seconds: d.Seconds()}
		}
	}
	return RecordExport{
		Seq:                r.Seq,
		At:                 time.Unix(0, r.Unix).UTC().Format(time.RFC3339Nano),
		Route:              r.Route.String(),
		Outcome:            r.Outcome.String(),
		Status:             r.Status,
		CacheHit:           r.CacheHit,
		Verdict:            r.Verdict.String(),
		Tier:               r.Tier,
		SnapshotGen:        r.SnapshotGen,
		SnapshotAgeSeconds: r.SnapshotAge.Seconds(),
		Eligible:           int(r.Eligible),
		Unknown:            int(r.Unknown),
		Ineligible:         int(r.Ineligible),
		Quarantined:        int(r.Quarantined),
		LatencySeconds:     r.Latency.Seconds(),
		Host:               r.Host,
		Trace:              r.Trace,
		Stages:             stages,
	}
}

// ExportAll renders a Snapshot result.
func ExportAll(recs []Record) []RecordExport {
	out := make([]RecordExport, len(recs))
	for i := range recs {
		out[i] = recs[i].Export()
	}
	return out
}
