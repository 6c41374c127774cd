package registry

// One encoding per miss: a discovery answer is rendered in the encoding its
// request asked for, the other on the first request that wants it, into a
// sibling entry valid exactly as long as the original. These tests drive
// both routes over real HTTP (run them with -race) and compare every SOAP
// body with what soap.Marshal gives for the same answer.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/respcache"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/soap"
	"repro/internal/store"
)

// postEnvelope POSTs raw bytes to /soap/registry and returns status and body.
func postEnvelope(t testing.TB, srv *httptest.Server, env []byte) (int, []byte) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+"/soap/registry", soap.ContentType, bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// marshalFromJSON rebuilds the answer a REST body carries and renders it
// the reference way: the SOAP envelope of the same answer.
func marshalFromJSON(t testing.TB, restBody string) []byte {
	t.Helper()
	var ans GetBindingsResponse
	if err := json.Unmarshal([]byte(restBody), &ans); err != nil {
		t.Fatalf("REST body %q: %v", restBody, err)
	}
	env, err := soap.Marshal(&ans)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// balancerRuns counts discoveries that reached the balancer: every answer
// is counted once, and either reused a cached decision or ran it.
func balancerRuns(reg *Registry) int64 {
	return reg.discovery.total.Value() - reg.RespCache.Hits.Value()
}

type cacheCounts struct{ hits, misses, runs, json, soap int64 }

func cacheCountsOf(reg *Registry) cacheCounts {
	return cacheCounts{
		hits: reg.RespCache.Hits.Value(), misses: reg.RespCache.Misses.Value(), runs: balancerRuns(reg),
		json: reg.renders[encJSON].Value(), soap: reg.renders[encSOAP].Value(),
	}
}

func wantCounts(t *testing.T, reg *Registry, when string, want cacheCounts) {
	t.Helper()
	if got := cacheCountsOf(reg); got != want {
		t.Fatalf("%s: counts %+v, want %+v", when, got, want)
	}
}

// TestRESTMissThenSOAPRendersSibling: the REST miss renders JSON only; the
// SOAP request that follows is a hit that reuses the decision, renders the
// envelope once, and leaves an entry that serves both routes.
func TestRESTMissThenSOAPRendersSibling(t *testing.T) {
	reg, srv, _ := newCachedRegistry(t, nil)
	byName := &GetBindingsRequest{ServiceName: "Adder"}

	rest, _ := getBindings(t, srv, "Adder")
	wantCounts(t, reg, "after the REST miss", cacheCounts{misses: 1, runs: 1, json: 1})

	env := postBindingsRaw(t, srv, byName)
	wantCounts(t, reg, "after the first SOAP request", cacheCounts{hits: 1, misses: 1, runs: 1, json: 1, soap: 1})
	if want := marshalFromJSON(t, rest); !bytes.Equal(env, want) {
		t.Fatalf("sibling envelope differs from soap.Marshal of the same answer:\nserved  %q\nmarshal %q", env, want)
	}

	again := postBindingsRaw(t, srv, byName)
	restAgain, _ := getBindings(t, srv, "Adder")
	wantCounts(t, reg, "after one more of each", cacheCounts{hits: 3, misses: 1, runs: 1, json: 1, soap: 1})
	if !bytes.Equal(again, env) || restAgain != rest {
		t.Fatal("the sibling entry does not serve both routes byte-identically")
	}
	if got := reg.RespCache.Len(); got != 1 {
		t.Fatalf("cache entries = %d, want 1 (the sibling replaces the original)", got)
	}
}

// TestSOAPMissThenRESTRendersSibling is the mirror order.
func TestSOAPMissThenRESTRendersSibling(t *testing.T) {
	reg, srv, _ := newCachedRegistry(t, nil)
	byName := &GetBindingsRequest{ServiceName: "Adder"}

	env := postBindingsRaw(t, srv, byName)
	wantCounts(t, reg, "after the SOAP miss", cacheCounts{misses: 1, runs: 1, soap: 1})

	rest, _ := getBindings(t, srv, "Adder")
	wantCounts(t, reg, "after the first REST request", cacheCounts{hits: 1, misses: 1, runs: 1, json: 1, soap: 1})
	if want := marshalFromJSON(t, rest); !bytes.Equal(env, want) {
		t.Fatalf("SOAP miss envelope differs from soap.Marshal of the answer REST gives:\nserved  %q\nmarshal %q", env, want)
	}

	// A fresh registry asked in the other order — REST miss, SOAP sibling —
	// answers both routes with the same bytes.
	_, fresh, _ := newCachedRegistry(t, nil)
	if got, _ := getBindings(t, fresh, "Adder"); got != rest {
		t.Fatalf("REST miss body differs from the REST sibling:\n%q\n%q", got, rest)
	}
	if got := postBindingsRaw(t, fresh, byName); !bytes.Equal(got, env) {
		t.Fatalf("SOAP sibling body differs from the SOAP miss:\n%q\n%q", got, env)
	}
}

// TestSOAPKeySpacesDoNotShare: by-id and by-name requests for one service
// are two entries, each with its own balancer run, and a REST request
// shares only the by-name one.
func TestSOAPKeySpacesDoNotShare(t *testing.T) {
	reg, srv, svc := newCachedRegistry(t, nil)

	byID := postBindingsRaw(t, srv, &GetBindingsRequest{ServiceID: svc.ID})
	byName := postBindingsRaw(t, srv, &GetBindingsRequest{ServiceName: "Adder"})
	wantCounts(t, reg, "after one request per space", cacheCounts{misses: 2, runs: 2, soap: 2})
	if !bytes.Equal(byID, byName) {
		t.Fatalf("the two spaces answer differently:\n%q\n%q", byID, byName)
	}
	// The id is not a name and the name is not an id.
	if status, _ := postEnvelope(t, srv, canonicalRequest(t, &GetBindingsRequest{ServiceName: svc.ID})); status != http.StatusBadRequest {
		t.Fatalf("service id looked up as a name: status %d", status)
	}
	if status, _ := postEnvelope(t, srv, canonicalRequest(t, &GetBindingsRequest{ServiceID: "Adder"})); status != http.StatusBadRequest {
		t.Fatalf("service name looked up as an id: status %d", status)
	}

	getBindings(t, srv, "Adder")
	if got := cacheCountsOf(reg); got.json != 1 || got.runs != 2 {
		t.Fatalf("REST after both: %+v, want one JSON render and no further balancer run", got)
	}
	if got := reg.RespCache.Len(); got != 2 {
		t.Fatalf("cache entries = %d, want 2", got)
	}
}

// TestInvalidationBeforeSiblingRecomputes: whatever moves the validity
// tuple between the first store and the request for the other encoding —
// an LCM write, a republished snapshot, a brownout tier change — the
// stored decision is not reused: the second request misses and recomputes.
func TestInvalidationBeforeSiblingRecomputes(t *testing.T) {
	adm := admitTestConfig()
	for name, move := range map[string]func(*testing.T, *Registry){
		"lcm write": func(t *testing.T, reg *Registry) {
			noise := rim.NewService("Noise", "")
			noise.AddBinding("http://noise.sdsu.edu:8080/Noise/n")
			if err := reg.LCM.SubmitObjects(reg.AdminContext(), noise); err != nil {
				t.Fatal(err)
			}
		},
		"sweep republish": func(_ *testing.T, reg *Registry) {
			reg.Store.NodeState().Upsert(store.NodeState{Host: "h03.sdsu.edu", Load: 0.3, MemoryB: 4 << 30, SwapB: 1 << 30, Updated: t0})
			reg.Clock.(*simclock.Manual).Advance(26 * time.Second)
		},
		"tier flip": func(_ *testing.T, reg *Registry) { driveDiscoveryOverload(reg, 5*time.Second) },
	} {
		t.Run(name, func(t *testing.T) {
			reg, srv, _ := newCachedRegistry(t, &adm)
			getBindings(t, srv, "Adder")
			move(t, reg)
			before := cacheCountsOf(reg)
			env := postBindingsRaw(t, srv, &GetBindingsRequest{ServiceName: "Adder"})
			after := cacheCountsOf(reg)
			if after.hits != before.hits || after.misses != before.misses+1 || after.runs != before.runs+1 || after.soap != before.soap+1 {
				t.Fatalf("SOAP after %s: counts %+v -> %+v, want a miss and a fresh balancer run", name, before, after)
			}
			rest, _ := getBindings(t, srv, "Adder")
			if got := cacheCountsOf(reg); got.hits != after.hits+1 || got.runs != after.runs {
				t.Fatalf("REST after the recompute: counts %+v -> %+v, want a hit on the new entry", after, got)
			}
			if want := marshalFromJSON(t, rest); !bytes.Equal(env, want) {
				t.Fatalf("recomputed envelope differs from soap.Marshal of the answer:\n%q\n%q", env, want)
			}
		})
	}
}

// TestStoreSiblingAfterInvalidationStaysInvalid: the write lands between
// the Lookup that found the entry and the sibling store. The request in
// flight is answered from the decision it found; nothing valid is left
// behind, and a newer entry is never overwritten.
func TestStoreSiblingAfterInvalidationStaysInvalid(t *testing.T) {
	reg, srv, _ := newCachedRegistry(t, nil)
	getBindings(t, srv, "Adder")
	now := reg.Clock.Now()
	gen, _ := reg.Balancer.SnapshotMeta(now)
	of := reg.RespCache.Lookup(respcache.SpaceName, "Adder", gen, 0, now)
	if of == nil || of.SOAP != nil || of.JSON == nil {
		t.Fatalf("REST miss left %+v, want a JSON-only entry", of)
	}

	reg.RespCache.BumpEpoch()
	sib := reg.renderSibling(respcache.SpaceName, "Adder", of, encSOAP)
	if sib.SOAP == nil || !bytes.Equal(sib.JSON, of.JSON) || of.SOAP != nil {
		t.Fatal("the sibling must carry both encodings and leave the original untouched")
	}
	if ent := reg.RespCache.Lookup(respcache.SpaceName, "Adder", gen, 0, now); ent != nil {
		t.Fatal("a sibling stored after an epoch bump validates")
	}

	// A recompute stores a fresh entry; a late sibling of the old one must
	// not replace it.
	getBindings(t, srv, "Adder")
	fresh := reg.RespCache.Lookup(respcache.SpaceName, "Adder", gen, 0, now)
	if fresh == nil {
		t.Fatal("no valid entry after the recompute")
	}
	reg.renderSibling(respcache.SpaceName, "Adder", of, encSOAP)
	if ent := reg.RespCache.Lookup(respcache.SpaceName, "Adder", gen, 0, now); ent != fresh {
		t.Fatal("a late sibling of a superseded entry replaced the fresh one")
	}
}

// TestPreRenderedEntryServedAsIs: the benchmark's shadow pipeline stores
// entries that carry both encodings and nothing to render them from; both
// routes serve those bytes untouched.
func TestPreRenderedEntryServedAsIs(t *testing.T) {
	reg, srv, _ := newCachedRegistry(t, nil)
	now := reg.Clock.Now()
	gen, _ := reg.Balancer.SnapshotMeta(now)
	jsonBody, soapBody := []byte("{\"stored\": \"as json\"}\n"), []byte("<stored>as soap</stored>")
	reg.RespCache.StoreAt(respcache.SpaceName, "Stored", &respcache.Entry{
		Gen: gen, JSON: jsonBody, SOAP: soapBody, Decision: core.Decision{TimeWindowOK: true},
	}, reg.RespCache.Epoch())

	if got, _ := getBindings(t, srv, "Stored"); got != string(jsonBody) {
		t.Fatalf("REST served %q, want the stored bytes", got)
	}
	if got := postBindingsRaw(t, srv, &GetBindingsRequest{ServiceName: "Stored"}); !bytes.Equal(got, soapBody) {
		t.Fatalf("SOAP served %q, want the stored bytes", got)
	}
	wantCounts(t, reg, "after both routes", cacheCounts{hits: 2})
}

// TestNonCanonicalEnvelopesTakeTheFallback: envelopes the scanner declines
// are still served, through encoding/xml, with the bytes the canonical
// request gets.
func TestNonCanonicalEnvelopesTakeTheFallback(t *testing.T) {
	reg, srv, _ := newCachedRegistry(t, nil)
	amp := rim.NewService("A&B", "")
	amp.AddBinding("http://h00.sdsu.edu:8080/AB/run?x=1&y=2")
	if err := reg.LCM.SubmitObjects(reg.AdminContext(), amp); err != nil {
		t.Fatal(err)
	}
	canonical := string(canonicalRequest(t, &GetBindingsRequest{ServiceName: "Adder"}))
	want := postBindingsRaw(t, srv, &GetBindingsRequest{ServiceName: "Adder"})

	for name, env := range map[string]string{
		"prefixed namespace": `<soapenv:Envelope xmlns:soapenv="` + soap.NS + `"><soapenv:Body><RegistryRequest>` +
			`<GetBindingsRequest serviceName="Adder"/></RegistryRequest></soapenv:Body></soapenv:Envelope>`,
		"whitespace inside tags": strings.NewReplacer("<Body>", "<Body\n>", `serviceName="Adder">`, "serviceName = 'Adder' >").Replace(canonical),
		"no declaration":         strings.TrimPrefix(canonical, `<?xml version="1.0" encoding="UTF-8"?>`),
		"character reference":    strings.Replace(canonical, "Adder", "Add&#101;r", 1),
	} {
		var req soapRequest
		if scanRegistryRequest([]byte(env), &req) {
			t.Fatalf("%s: the scanner accepted %q", name, env)
		}
		status, got := postEnvelope(t, srv, []byte(env))
		if status != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s: status %d body %q, want the canonical request's %q", name, status, got, want)
		}
	}

	// soap.Marshal escapes '&', so even the canonical client's request for
	// this service is decoded by encoding/xml.
	env := canonicalRequest(t, &GetBindingsRequest{ServiceName: "A&B"})
	if !bytes.Contains(env, []byte("A&amp;B")) {
		t.Fatalf("envelope %q", env)
	}
	status, got := postEnvelope(t, srv, env)
	rest, _ := getBindings(t, srv, "A%26B")
	if status != http.StatusOK || !bytes.Equal(got, marshalFromJSON(t, rest)) || !bytes.Contains(got, []byte("x=1&amp;y=2")) {
		t.Fatalf("status %d body %q for the service named A&B", status, got)
	}
}

// TestScannedRequestForUnknownServiceFaults: a request the scanner decoded
// fails exactly as one encoding/xml decoded does.
func TestScannedRequestForUnknownServiceFaults(t *testing.T) {
	_, srv, _ := newCachedRegistry(t, nil)
	scanned := canonicalRequest(t, &GetBindingsRequest{ServiceName: "Nowhere"})
	declined := bytes.Replace(scanned, []byte(`"Nowhere">`), []byte(`"Nowhere" >`), 1)
	var req soapRequest
	if !scanRegistryRequest(scanned, &req) || scanRegistryRequest(declined, &soapRequest{}) {
		t.Fatal("the pair must be one scanned and one declined envelope")
	}
	status, got := postEnvelope(t, srv, scanned)
	statusDeclined, gotDeclined := postEnvelope(t, srv, declined)
	if status != http.StatusBadRequest || statusDeclined != status || !bytes.Equal(got, gotDeclined) {
		t.Fatalf("scanned: %d %q\ndeclined: %d %q", status, got, statusDeclined, gotDeclined)
	}
	var f *soap.Fault
	if err := soap.Unmarshal(got, nil); !errors.As(err, &f) || f.Code != "Client" || !strings.Contains(f.String, "Nowhere") {
		t.Fatalf("fault body %q decodes to %v", got, err)
	}
}

// TestMixedEncodingsNeverServeBeforeTheBump: readers mix REST and SOAP
// requests over four services while a writer keeps adding bindings (every
// LCM write bumps the epoch). A reader that saw round n completed before
// it sent its request must get an answer that already has round n's
// binding, whichever encoding it asks for and whichever encoding the entry
// was first rendered in.
func TestMixedEncodingsNeverServeBeforeTheBump(t *testing.T) {
	reg, srv, _ := newCachedRegistry(t, nil)
	const services, rounds, readers = 4, 20, 8
	svcs := make([]*rim.Service, services)
	var restURL [services]string
	var envelope [services][]byte
	for i := range svcs {
		name := fmt.Sprintf("Mixed%d", i)
		svcs[i] = rim.NewService(name, "")
		svcs[i].AddBinding(fmt.Sprintf("http://r0.s%d.sdsu.edu:8080/run", i))
		if err := reg.LCM.SubmitObjects(reg.AdminContext(), svcs[i]); err != nil {
			t.Fatal(err)
		}
		restURL[i] = srv.URL + "/registry/bindings?service=" + name
		envelope[i] = canonicalRequest(t, &GetBindingsRequest{ServiceName: name})
	}
	var done [services]atomic.Int64 // the last round whose write was acknowledged
	served := make(chan struct{})   // one token per answered request: paces the writer
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := srv.Client()
			for n := w; ; n++ {
				i := n % services
				round := done[i].Load()
				var resp *http.Response
				var err error
				if n/services%2 == 0 {
					resp, err = client.Get(restURL[i])
				} else {
					resp, err = client.Post(srv.URL+"/soap/registry", soap.ContentType, bytes.NewReader(envelope[i]))
				}
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("status %d, read error %v, body %q", resp.StatusCode, err, body)
					return
				}
				if want := fmt.Sprintf("http://r%d.s%d.sdsu.edu:8080/run", round, i); !bytes.Contains(body, []byte(want)) {
					t.Errorf("answer from before round %d of service %d: %q", round, i, body)
					return
				}
				select {
				case served <- struct{}{}:
				case <-stop:
					return
				}
			}
		}(w)
	}
	exited := make(chan struct{}) // every reader has returned
	go func() { wg.Wait(); close(exited) }()
	for round := int64(1); round <= rounds && !t.Failed(); round++ {
		for i, svc := range svcs {
			svc.AddBinding(fmt.Sprintf("http://r%d.s%d.sdsu.edu:8080/run", round, i))
			if err := reg.LCM.UpdateObjects(reg.AdminContext(), svc); err != nil {
				t.Error(err)
			}
			done[i].Store(round)
		}
		// Long enough between bumps for every entry to be stored, asked for
		// in its other encoding, and hit.
		for n := 0; n < readers*services && !t.Failed(); n++ {
			select {
			case <-served:
			case <-exited:
				t.Fatal("every reader gave up")
			}
		}
	}
	close(stop)
	<-exited
	if got := cacheCountsOf(reg); got.json == 0 || got.soap == 0 || got.hits == 0 {
		t.Fatalf("counts %+v: the run must render both encodings and hit", got)
	}
}
