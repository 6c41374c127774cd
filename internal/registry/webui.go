package registry

import (
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/flight"
)

// A minimal read-only Web UI — the thin-browser counterpart of the
// freebXML Web UI the thesis drives in §3.4.4.1 (search form, object
// listings with details, and a live NodeState view). Publishing stays on
// the SOAP binding and the AccessRegistry API, exactly as the HTTP binding
// "only supports search queries" (§2.2.3).

var uiTemplate = template.Must(template.New("ui").Parse(`<!DOCTYPE html>
<html><head><title>ebXML Registry</title>
<style>
 body { font-family: sans-serif; margin: 2em; }
 table { border-collapse: collapse; margin: 1em 0; }
 td, th { border: 1px solid #999; padding: 0.3em 0.7em; text-align: left; }
 th { background: #eee; }
 .muted { color: #666; font-size: 0.9em; }
</style></head><body>
<h1>ebXML Registry Repository</h1>
<form method="GET" action="/ui">
 <select name="kind">
  {{range .Kinds}}<option value="{{.Name}}" {{if eq .Name $.Kind}}selected{{end}}>{{.Name}}</option>{{end}}
 </select>
 <input type="text" name="name" value="{{.Pattern}}" placeholder="name pattern, %% = wildcard">
 <input type="submit" value="Search">
</form>
{{if .Objects}}
<h2>{{.Kind}} objects matching “{{.Pattern}}”</h2>
<table>
 <tr><th>Name</th><th>Description</th><th>Status</th><th>Version</th><th>ID</th></tr>
 {{range .Objects}}
 <tr><td>{{.Name}}</td><td>{{.Description}}</td><td>{{.Status}}</td><td>{{.Version}}</td>
     <td class="muted">{{.ID}}</td></tr>
 {{end}}
</table>
{{else}}<p class="muted">No matches.</p>{{end}}
<h2>NodeState</h2>
{{if .Nodes}}
<table>
 <tr><th>Host</th><th>Load</th><th>Free memory</th><th>Free swap</th><th>Updated</th><th>Failures</th><th>Health</th></tr>
 {{range .Nodes}}
 <tr><td>{{.Host}}</td><td>{{printf "%.2f" .Load}}</td><td>{{.MemoryB}}</td>
     <td>{{.SwapB}}</td><td>{{.Updated}}</td><td>{{.Failures}}</td><td>{{.Health}}</td></tr>
 {{end}}
</table>
{{else}}<p class="muted">No NodeStatus data collected yet.</p>{{end}}
<h2>Collector health</h2>
{{if .Health}}
<table>
 <tr><th>Host</th><th>Health</th><th>Failures</th><th>Breaker</th><th>Consecutive</th><th>Trips</th><th>Next probe</th></tr>
 {{range .Health}}
 <tr><td>{{.Host}}</td><td>{{.Health}}</td><td>{{.Failures}}</td><td>{{.Breaker}}</td>
     <td>{{.Consecutive}}</td><td>{{.Trips}}</td><td>{{.NextProbe}}</td></tr>
 {{end}}
</table>
{{else}}<p class="muted">No collector health data yet.</p>{{end}}
<h2>Discovery traces</h2>
{{if .Traces}}
<table>
 <tr><th>Trace</th><th>Start</th><th>Total µs</th><th>Stages</th><th>Decision</th></tr>
 {{range .Traces}}
 <tr><td class="muted">{{.ID}}</td><td>{{.Start}}</td><td>{{printf "%.1f" .TotalUs}}</td>
     <td>{{.Stages}}</td><td class="muted">{{.Decision}}</td></tr>
 {{end}}
</table>
<p class="muted">{{.TraceLine}} Full records at <a href="/registry/traces">/registry/traces</a>.</p>
{{else}}<p class="muted">{{.TraceLine}}</p>{{end}}
<p class="muted">{{.FaultLine}}</p>
<p class="muted">{{.Count}} objects in the registry. Publishing requires the SOAP binding or the AccessRegistry API.</p>
</body></html>`))

type uiRow struct {
	Name, Description, Status, Version, ID string
}

// uiHealthRow is one pre-rendered row of the collector-health table.
type uiHealthRow struct {
	Host, Health, Breaker, NextProbe string
	Failures, Consecutive, Trips     int
}

// uiTraceRow is one pre-rendered row of the discovery-traces panel: a
// sampled flight record with its stage times flattened to "name=µs" pairs
// so the template stays dumb.
type uiTraceRow struct {
	ID, Start, Stages, Decision string
	TotalUs                     float64
}

type uiData struct {
	Kinds     []objectKind
	Kind      string
	Pattern   string
	Objects   []uiRow
	Nodes     interface{}
	Health    []uiHealthRow
	Traces    []uiTraceRow
	TraceLine string
	FaultLine string
	Count     int
}

// ordinal renders small sampling rates readably ("every 1st/2nd/Nth").
func ordinal(n int) string {
	switch n {
	case 1:
		return "1st"
	case 2:
		return "2nd"
	case 3:
		return "3rd"
	default:
		return fmt.Sprintf("%dth", n)
	}
}

func (r *Registry) handleUI(w http.ResponseWriter, req *http.Request) {
	kind := req.URL.Query().Get("kind")
	if kind == "" {
		kind = "Organization"
	}
	pattern := req.URL.Query().Get("name")
	if pattern == "" {
		pattern = "%"
	}
	t, err := KindType(kind)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	stats := r.Collector.FaultStats()
	data := uiData{
		Kinds:   kinds,
		Kind:    kind,
		Pattern: pattern,
		Nodes:   r.Store.NodeState().Snapshot().Rows(),
		Count:   r.Store.Len(),
		FaultLine: fmt.Sprintf("Collector: %d sweeps, %d errors, %d timeouts, %d retries, %d breaker skips.",
			stats.Sweeps, stats.Errs, stats.Timeouts, stats.Retries, stats.Skipped),
	}
	if n := r.traceEvery(); n > 0 {
		data.TraceLine = fmt.Sprintf("Tracing every %s discovery request; %d sampled so far.",
			ordinal(n), r.Sampler.Sampled())
	} else {
		data.TraceLine = "Trace sampling disabled (start the server with -trace-sample N to enable)."
	}
	for _, rec := range r.Flight.Snapshot(flight.Filter{Traced: true, Limit: 10}) {
		stages := make([]string, flight.NumStages)
		for i, d := range rec.Stages {
			stages[i] = fmt.Sprintf("%s=%.1fµs", flight.StageNames[i], float64(d)/float64(time.Microsecond))
		}
		data.Traces = append(data.Traces, uiTraceRow{
			ID:      rec.Trace,
			Start:   time.Unix(0, rec.Unix).UTC().Format("15:04:05.000"),
			TotalUs: float64(rec.Latency) / float64(time.Microsecond),
			Stages:  strings.Join(stages, " "),
			Decision: fmt.Sprintf("%s hit=%t gen=%d eligible=%d unknown=%d ineligible=%d quarantined=%d host=%s",
				rec.Verdict, rec.CacheHit, rec.SnapshotGen, rec.Eligible, rec.Unknown, rec.Ineligible, rec.Quarantined, rec.Host),
		})
	}
	for _, rep := range r.Collector.HealthSnapshot() {
		row := uiHealthRow{
			Host:        rep.Host,
			Health:      rep.Health.String(),
			Breaker:     rep.Breaker.String(),
			Failures:    rep.Failures,
			Consecutive: rep.Consecutive,
			Trips:       rep.Trips,
			NextProbe:   "-",
		}
		if !rep.NextProbe.IsZero() {
			row.NextProbe = rep.NextProbe.UTC().Format("2006-01-02 15:04:05")
		}
		data.Health = append(data.Health, row)
	}
	for _, o := range r.QM.FindObjects(t, pattern) {
		b := o.Base()
		desc := b.Description.String()
		if len(desc) > 120 {
			desc = desc[:117] + "..."
		}
		data.Objects = append(data.Objects, uiRow{
			Name:        b.Name.String(),
			Description: desc,
			Status:      string(b.Status),
			Version:     b.Version.VersionName,
			ID:          b.ID,
		})
	}
	sort.Slice(data.Objects, func(i, j int) bool {
		return strings.ToLower(data.Objects[i].Name) < strings.ToLower(data.Objects[j].Name)
	})
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := uiTemplate.Execute(w, data); err != nil {
		fmt.Fprintf(w, "<!-- render error: %v -->", err)
	}
}
