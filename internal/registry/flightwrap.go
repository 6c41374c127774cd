// flightwrap.go wires the flight recorder into the edge: every service
// route is wrapped in a pooled flight.Writer frame OUTSIDE the admission
// middleware, so shed requests are recorded too, and the FastServe
// cache-hit path — which bypasses marshalling, metrics contexts, and the
// deadline budget — still leaves one fixed-size record per request. The
// same wrapper offers discovery requests to the sampler, so a trace is
// nothing but a flight record that also carries an id and stage times.
package registry

import (
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/flight"
)

// flightRoute is the per-route edge wrapper. It is a named type rather
// than a closure so the recording path carries no captured variables.
type flightRoute struct {
	reg    *Registry
	route  flight.Route
	viaCtx bool // the SOAP registry route threads the frame through the context
	sample bool // the routes that serve discovery offer requests to the sampler
	next   http.Handler
}

// flightWrap wraps next so that each request borrows a pooled frame,
// runs, and appends exactly one record to the ring.
func (r *Registry) flightWrap(route flight.Route, next http.Handler) http.Handler {
	return &flightRoute{
		reg:    r,
		route:  route,
		viaCtx: route == flight.RouteSOAPRegistry,
		sample: route == flight.RouteBindings || route == flight.RouteSOAPRegistry,
		next:   next,
	}
}

// ServeHTTP borrows a frame, stamps the envelope (route, tier, timing),
// decides once whether the request is sampled, runs the wrapped stack with
// the frame as the ResponseWriter, derives the admission outcome from the
// served status, and appends the record.
func (fr *flightRoute) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	fw := flight.GetWriter(w)
	fw.Rec.Route = fr.route
	sampled := fr.sample && fr.reg.edgeTier() < uint32(admit.TierNoTrace) && fr.reg.Sampler.Sample(fw)
	if sampled {
		echoTrace(w, fw.Rec.Trace)
	}
	if fr.viaCtx || sampled {
		// The SOAP dispatch path never sees the ResponseWriter, and the
		// query manager and balancer never do, so the frame rides the
		// context to them. That derivation allocates, which the SOAP
		// surface and a sampled request pay anyway.
		req = req.WithContext(flight.WithFrame(req.Context(), fw))
	}
	start := fr.reg.Clock.Now()
	fr.next.ServeHTTP(fw, req)
	end := fr.reg.Clock.Now()
	fw.Rec.Unix = start.UnixNano()
	fw.Rec.Latency = end.Sub(start)
	fw.Rec.Tier = uint8(fr.reg.edgeTier())
	fw.Finish()
	fr.reg.Flight.Append(&fw.Rec)
	flight.PutWriter(fw)
}

// traceEvery is the sampling rate in force: the configured one, or 0 from
// TierNoTrace up, where the edge offers the sampler nothing.
func (r *Registry) traceEvery() int {
	if r.edgeTier() >= uint32(admit.TierNoTrace) {
		return 0
	}
	return r.Sampler.Every()
}

// echoTrace tells the client the id its request can be looked up under at
// /registry/traces. The id travels only in this header, never in a body,
// so sampled requests are served from (and fill) the response cache like
// any other.
func echoTrace(w http.ResponseWriter, id string) {
	w.Header().Set("X-Registry-Trace", id)
}

// noteDecision copies the constraint verdict, eligibility counts, and
// snapshot generation of a discovery decision into a flight record.
func noteDecision(rec *flight.Record, dec *core.Decision) {
	switch {
	case dec.Degraded:
		rec.Verdict = flight.VerdictDegraded
	case dec.FellBack:
		rec.Verdict = flight.VerdictFallback
	case !dec.TimeWindowOK:
		rec.Verdict = flight.VerdictWindowClosed
	case dec.Filtered:
		rec.Verdict = flight.VerdictFiltered
	default:
		rec.Verdict = flight.VerdictStock
	}
	rec.SnapshotGen = dec.SnapshotGen
	rec.Eligible = flight.Sat8(dec.Eligible())
	rec.Unknown = flight.Sat8(dec.Unknown())
	rec.Ineligible = flight.Sat8(dec.Ineligible())
	rec.Quarantined = flight.Sat8(dec.Quarantined())
}

// handleFlight serves GET /registry/flight: the newest matching records
// from the ring, newest first. Query parameters: n (max records, default
// 100), route, outcome, host, and hit=true|false.
func (r *Registry) handleFlight(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	limit, ok := intParam(w, q, "n", 0, 1)
	if !ok {
		return
	}
	f := flight.Filter{Limit: limit}
	if v := q.Get("route"); v != "" {
		rt, ok := flight.RouteByName(v)
		if !ok {
			http.Error(w, "unknown route class", http.StatusBadRequest)
			return
		}
		f.Route, f.HasRoute = rt, true
	}
	if v := q.Get("outcome"); v != "" {
		oc, ok := flight.OutcomeByName(v)
		if !ok {
			http.Error(w, "unknown outcome", http.StatusBadRequest)
			return
		}
		f.Outcome, f.HasOutcome = oc, true
	}
	f.Host = q.Get("host")
	if v := q.Get("hit"); v != "" {
		hit, err := strconv.ParseBool(v)
		if err != nil {
			http.Error(w, "bad hit parameter", http.StatusBadRequest)
			return
		}
		f.CacheHit, f.HasCacheHit = hit, true
	}
	recs := r.Flight.Snapshot(f)
	writeJSON(w, flightPage{
		Written: r.Flight.Written(),
		Ring:    r.Flight.Len(),
		Records: flight.ExportAll(recs),
	})
}

// flightPage is the /registry/flight response envelope.
type flightPage struct {
	Written uint64                `json:"written"`
	Ring    int                   `json:"ring"`
	Records []flight.RecordExport `json:"records"`
}

// intParam reads the optional integer query parameter key: absent means
// def, and anything but an integer of at least min is answered 400 here
// (ok false). The ring endpoints read n (min 1), /registry/query its paging
// window (min 0).
func intParam(w http.ResponseWriter, q url.Values, key string, def, min int) (n int, ok bool) {
	v := q.Get(key)
	if v == "" {
		return def, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < min {
		http.Error(w, "bad "+key+" parameter", http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

// handleTraces serves GET /registry/traces: the flight records of sampled
// requests, newest first. ?id= returns the one record with that trace id,
// ?n= bounds the list (default 100).
func (r *Registry) handleTraces(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	if id := q.Get("id"); id != "" {
		recs := r.Flight.Snapshot(flight.Filter{Trace: id, Limit: 1})
		if len(recs) == 0 {
			http.Error(w, "trace not found (aged out of the ring?)", http.StatusNotFound)
			return
		}
		writeJSON(w, recs[0].Export())
		return
	}
	n, ok := intParam(w, q, "n", 0, 1)
	if !ok {
		return
	}
	writeJSON(w, tracePage{
		SampleRate: r.traceEvery(),
		Sampled:    r.Sampler.Sampled(),
		Traces:     flight.ExportAll(r.Flight.Snapshot(flight.Filter{Traced: true, Limit: n})),
	})
}

// tracePage is the /registry/traces list envelope.
type tracePage struct {
	SampleRate int                   `json:"sampleRate"`
	Sampled    int64                 `json:"sampledTotal"`
	Traces     []flight.RecordExport `json:"traces"`
}
