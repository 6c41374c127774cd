package registry

// discover is the one sequence behind the REST fast path, the REST miss
// path and both SOAP key spaces. These tests drive each entrance and hold
// them to one decision, one flight annotation and one set of counter
// movements — and show that sampling a request changes none of it.

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/admit"
	"repro/internal/flight"
	"repro/internal/respcache"
)

// discoverCounts is everything one discovery answer moves.
type discoverCounts struct {
	Total, Errors, Eligible, Unknown, Ineligible, Quarantined int64
	Latencies, Staleness, AssignedFirstHost                   int64
}

func countsOf(r *Registry) discoverCounts {
	d := &r.discovery
	return discoverCounts{
		Total: d.total.Value(), Errors: d.errors.Value(),
		Eligible: d.eligible.Value(), Unknown: d.unknown.Value(),
		Ineligible: d.ineligible.Value(), Quarantined: d.quarantined.Value(),
		Latencies:         d.latency.Count(),
		Staleness:         r.Balance.StalenessHistogram().Count(),
		AssignedFirstHost: r.Balance.AssignmentsSnapshot()["h00.sdsu.edu"],
	}
}

func TestDiscoverIsOneSequence(t *testing.T) {
	reg, srv, svc := newSampledCachedRegistry(t, &admit.Config{}, 1)

	// The reference: what the query manager answers with nothing in front
	// of it. The first call parses the constraint; the second reads it from
	// the constraint cache, as every call below will.
	reg.QM.GetServiceBindingsByName("Adder")
	_, want, err := reg.QM.GetServiceBindingsByName("Adder")
	if err != nil {
		t.Fatal(err)
	}
	if want.Eligible() != 4 || !want.Filtered {
		t.Fatalf("reference decision = %+v, want 4 eligible hosts filtered", want)
	}

	byName, byID := &GetBindingsRequest{ServiceName: "Adder"}, &GetBindingsRequest{ServiceID: svc.ID}
	for _, tc := range []struct {
		name   string
		drive  func()
		route  string
		space  respcache.Space
		key    string
		hit    bool
		stored int // entries in the cache afterwards
	}{
		{"REST-miss", func() { getBindings(t, srv, "Adder") }, "bindings", respcache.SpaceName, "Adder", false, 1},
		{"REST-hit", func() { getBindings(t, srv, "Adder") }, "bindings", respcache.SpaceName, "Adder", true, 1},
		{"SOAP-by-name-hit", func() { postBindingsRaw(t, srv, byName) }, "soap-registry", respcache.SpaceName, "Adder", true, 1},
		{"SOAP-by-id", func() { postBindingsRaw(t, srv, byID) }, "soap-registry", respcache.SpaceID, svc.ID, false, 2},
		{"SOAP-by-id-hit", func() { postBindingsRaw(t, srv, byID) }, "soap-registry", respcache.SpaceID, svc.ID, true, 2},
		{"SOAP-by-name", func() { reg.RespCache.BumpEpoch(); postBindingsRaw(t, srv, byName) }, "soap-registry", respcache.SpaceName, "Adder", false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := countsOf(reg)
			hits, misses := reg.RespCache.Hits.Value(), reg.RespCache.Misses.Value()
			tc.drive()

			got, step := countsOf(reg), before
			step.Total++
			step.Eligible += 4
			step.Latencies++
			step.Staleness++
			step.AssignedFirstHost++
			if got != step {
				t.Errorf("counters moved to %+v, want %+v", got, step)
			}
			wantHits, wantMisses := hits, misses+1
			if tc.hit {
				wantHits, wantMisses = hits+1, misses
			}
			if h, m := reg.RespCache.Hits.Value(), reg.RespCache.Misses.Value(); h != wantHits || m != wantMisses {
				t.Errorf("respcache hits/misses = %d/%d, want %d/%d", h, m, wantHits, wantMisses)
			}
			if n := reg.RespCache.Len(); n != tc.stored {
				t.Errorf("cache holds %d entries, want %d", n, tc.stored)
			}

			rec := reg.Flight.Snapshot(flight.Filter{Limit: 1})[0].Export()
			if rec.Trace == "" || len(rec.Stages) != flight.NumStages {
				t.Errorf("record of a sampled request lacks its id or stages: %+v", rec)
			}
			rec.Seq, rec.At, rec.Trace, rec.Stages, rec.LatencySeconds = 0, "", "", nil, 0
			wantRec := flight.RecordExport{
				Route: tc.route, Outcome: "admitted", Status: 200, CacheHit: tc.hit,
				Verdict: "filtered", SnapshotGen: want.SnapshotGen, Eligible: 4, Host: "h00.sdsu.edu",
			}
			if !reflect.DeepEqual(rec, wantRec) {
				t.Errorf("flight record = %+v, want %+v", rec, wantRec)
			}

			gen, _ := reg.Balancer.SnapshotMeta(reg.Clock.Now())
			ent := reg.RespCache.Lookup(tc.space, tc.key, gen, 0, reg.Clock.Now())
			if ent == nil {
				t.Fatal("no live cache entry after the request")
			}
			if !reflect.DeepEqual(ent.Decision, want) {
				t.Errorf("stored decision = %+v, want the query manager's %+v", ent.Decision, want)
			}
			if ent.Decision.ServedHost() != "h00.sdsu.edu" || ent.Gen != want.SnapshotGen {
				t.Errorf("entry first host %q gen %d, want h00.sdsu.edu gen %d", ent.Decision.ServedHost(), ent.Gen, want.SnapshotGen)
			}
		})
	}
}

// TestTracingKeepsTheCache: a trace id travels in a header, never in a
// body, so with every request sampled the second identical request is
// still a cache hit and every body is byte-identical to an unsampled
// registry's — on both codecs, with and without the admission fast path.
func TestTracingKeepsTheCache(t *testing.T) {
	for _, adm := range []*admit.Config{nil, {}} {
		plain, plainSrv, _ := newSampledCachedRegistry(t, adm, 0)
		traced, tracedSrv, _ := newSampledCachedRegistry(t, adm, 1)
		byName := &GetBindingsRequest{ServiceName: "Adder"}

		wantREST, plainResp := getBindings(t, plainSrv, "Adder")
		if id := plainResp.Header.Get("X-Registry-Trace"); id != "" {
			t.Fatalf("unsampled REST response carries trace id %q", id)
		}
		seen := map[string]bool{}
		for i, wantHits := range []int64{0, 1} {
			body, resp := getBindings(t, tracedSrv, "Adder")
			if body != wantREST {
				t.Errorf("sampled REST body %d differs from the unsampled one:\n%q\n%q", i, body, wantREST)
			}
			if got := traced.RespCache.Hits.Value(); got != wantHits {
				t.Errorf("hits after sampled REST GET %d = %d, want %d", i, got, wantHits)
			}
			id := resp.Header.Get("X-Registry-Trace")
			if id == "" || seen[id] {
				t.Errorf("sampled REST GET %d trace id %q is empty or reused", i, id)
			}
			seen[id] = true
		}

		// After a flush the first SOAP request renders and stores, the
		// second is a hit.
		plain.RespCache.BumpEpoch()
		traced.RespCache.BumpEpoch()
		wantSOAP := postBindingsRaw(t, plainSrv, byName)
		for i, wantHits := range []int64{1, 2} {
			body, hdr := postBindings(t, tracedSrv, byName)
			if !bytes.Equal(body, wantSOAP) {
				t.Errorf("sampled SOAP body %d differs from the unsampled one:\n%q\n%q", i, body, wantSOAP)
			}
			if bytes.Contains(body, []byte("trace")) {
				t.Errorf("SOAP body %d carries a trace attribute: %q", i, body)
			}
			if got := traced.RespCache.Hits.Value(); got != wantHits {
				t.Errorf("hits after sampled SOAP request %d = %d, want %d", i, got, wantHits)
			}
			id := hdr.Get("X-Registry-Trace")
			if id == "" || seen[id] {
				t.Errorf("sampled SOAP request %d trace id %q is empty or reused", i, id)
			}
			seen[id] = true
		}
		if got := traced.Sampler.Sampled(); got != 4 {
			t.Errorf("sampled = %d, want all 4 requests", got)
		}
	}
}
