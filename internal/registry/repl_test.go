package registry

// Replication wiring tests at the registry layer: follower write
// redirects (307 + typed NotRegistryLeader fault), the submit-via-follower
// end-to-end flow landing on the leader and replicating back into the
// follower's local discovery reads, and the repl sections of health,
// bundle, and metrics.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/repl"
	"repro/internal/simclock"
	"repro/internal/soap"
	"repro/internal/wal"
)

// newReplPair boots a durable leader registry and a follower registry
// tailing it, each behind its own test server. The follower is returned
// cold: tests Bootstrap/Poll it explicitly for determinism.
func newReplPair(t *testing.T) (leader *Registry, lsrv *httptest.Server, follower *Registry, fsrv *httptest.Server, f *repl.Follower) {
	t.Helper()
	return newReplPairWith(t, Config{Policy: core.PolicyStock})
}

// newReplPairWith is newReplPair with both registries built from base: the
// leader on base.Clock (a fresh manual clock when nil), the follower on a
// manual clock of its own.
func newReplPairWith(t *testing.T, base Config) (leader *Registry, lsrv *httptest.Server, follower *Registry, fsrv *httptest.Server, f *repl.Follower) {
	t.Helper()
	lcfg := base
	if lcfg.Clock == nil {
		lcfg.Clock = simclock.NewManual(t0)
	}
	lcfg.DataDir, lcfg.Fsync, lcfg.ReplLeader = t.TempDir(), wal.FsyncAlways, true
	leader, err := New(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.Durable.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	lsrv = httptest.NewServer(leader.Handler())
	t.Cleanup(lsrv.Close)

	fcfg := base
	fcfg.Clock, fcfg.ReplFollowURL = simclock.NewManual(t0), lsrv.URL
	follower, err = New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err = repl.OpenFollower(t.TempDir(), follower.Store, repl.FollowerOptions{
		LeaderURL: lsrv.URL,
		Clock:     simclock.NewManual(t0),
		Client:    lsrv.Client(),
		Seed:      3,
		PollWait:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	follower.AttachFollower(f)
	t.Cleanup(func() { f.Close() })
	fsrv = httptest.NewServer(follower.Handler())
	t.Cleanup(fsrv.Close)
	return leader, lsrv, follower, fsrv, f
}

func followerCatchUp(t *testing.T, f *repl.Follower, leader *Registry) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		want, _ := leader.Durable.WAL().Committed()
		if f.Stats().Applied == want {
			return
		}
		if _, err := f.Poll(ctx); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("follower did not catch up to the leader")
}

func TestReplFollowerRedirectsWritesWith307(t *testing.T) {
	_, lsrv, _, fsrv, _ := newReplPair(t)

	noFollow := &http.Client{
		Timeout:       10 * time.Second,
		CheckRedirect: func(req *http.Request, via []*http.Request) error { return http.ErrUseLastResponse },
	}
	postEnvelope := func(path string, payload interface{}) *http.Response {
		t.Helper()
		data, err := soap.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := noFollow.Post(fsrv.URL+path, soap.ContentType, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// A write on the follower answers 307 + Location + typed fault.
	resp := postEnvelope("/soap/registry", &soapRequest{
		Submit: &SubmitObjectsRequest{Session: "any", Objects: []WireObject{{Kind: "Organization", Name: "X"}}},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("follower write → %d, want 307", resp.StatusCode)
	}
	if got := resp.Header.Get("Location"); got != lsrv.URL+"/soap/registry" {
		t.Fatalf("Location = %q, want %q", got, lsrv.URL+"/soap/registry")
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "NotRegistryLeader") {
		t.Fatalf("fault body does not name NotRegistryLeader: %s", body)
	}

	// Auth is node-local state, so every auth operation redirects too.
	aresp := postEnvelope("/soap/auth", &authRequest{Challenge: &ChallengeRequest{Alias: "anyone"}})
	defer aresp.Body.Close()
	if aresp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("follower auth → %d, want 307", aresp.StatusCode)
	}
	if got := aresp.Header.Get("Location"); got != lsrv.URL+"/soap/auth" {
		t.Fatalf("auth Location = %q", got)
	}

	// Reads are served locally — never redirected (the unknown service
	// answers a local fault, proving the request was not bounced).
	rresp := postEnvelope("/soap/registry", &soapRequest{Bindings: &GetBindingsRequest{ServiceName: "nothing"}})
	defer rresp.Body.Close()
	if rresp.StatusCode == http.StatusTemporaryRedirect || rresp.Header.Get("Location") != "" {
		t.Fatalf("follower read redirected: %d Location=%q", rresp.StatusCode, rresp.Header.Get("Location"))
	}
}

func TestReplSubmitViaFollowerReplicatesToLocalReads(t *testing.T) {
	leader, _, _, fsrv, f := newReplPair(t)
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	followerCatchUp(t, f, leader)

	// The whole wizard + submit runs against the FOLLOWER's URL; Go's
	// http.Client follows each 307 to the leader transparently.
	client := fsrv.Client()
	token := registerAndLogin(t, client, fsrv.URL, "replica")
	var resp RegistryResponse
	err := soap.Post(client, fsrv.URL+"/soap/registry", &soapRequest{
		Submit: &SubmitObjectsRequest{
			Session: token,
			Objects: []WireObject{{Kind: "Service", Name: "ReplicatedAdder",
				Bindings: []WireBinding{{AccessURI: "http://thermo.sdsu.edu:8080/Adder/addService"}}}},
		},
	}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "Success" || len(resp.IDs) != 1 {
		t.Fatalf("submit via follower = %+v", resp)
	}
	if _, err := leader.Store.Get(resp.IDs[0]); err != nil {
		t.Fatalf("write did not land on the leader: %v", err)
	}

	// Not replicated yet: the follower's local read answers empty.
	before := getBindingsHTTP(t, fsrv, "ReplicatedAdder")
	if len(before) != 0 {
		t.Fatalf("follower served bindings before replication: %v", before)
	}

	followerCatchUp(t, f, leader)
	after := getBindingsHTTP(t, fsrv, "ReplicatedAdder")
	if len(after) != 1 || !strings.Contains(after[0], "thermo") {
		t.Fatalf("follower bindings after catch-up = %v", after)
	}
}

func getBindingsHTTP(t *testing.T, srv *httptest.Server, service string) []string {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/registry/bindings?service=" + service)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		// The service is not in this registry's local state yet.
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bindings status %d", resp.StatusCode)
	}
	var out struct {
		URIs []string `json:"uris"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.URIs
}

func TestReplHealthBundleAndMetricsSections(t *testing.T) {
	leader, lsrv, _, fsrv, f := newReplPair(t)
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	// One write behind the checkpoint the follower booted from, one poll to
	// fetch it: the scrape below is exact on both sides.
	seedWorker(t, leader, "thermo.sdsu.edu")
	if n, err := f.Poll(context.Background()); err != nil || n != 1 {
		t.Fatalf("poll applied %d records (%v), want the one write", n, err)
	}

	var health struct {
		Components map[string]struct {
			Status string `json:"status"`
			Note   string `json:"note"`
		}
	}
	getJSON := func(srv *httptest.Server, path string, into interface{}) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	getJSON(lsrv, "/registry/health", &health)
	if c := health.Components["repl"]; c.Status != "ok" || c.Note != "leader" {
		t.Fatalf("leader repl health = %+v", c)
	}
	getJSON(fsrv, "/registry/health", &health)
	if c := health.Components["repl"]; c.Status != "ok" || c.Note != "follower" {
		t.Fatalf("follower repl health = %+v", c)
	}

	var bundle struct {
		Repl *struct {
			Role      string `json:"role"`
			Connected bool   `json:"connected"`
		} `json:"repl"`
	}
	getJSON(fsrv, "/registry/debug/bundle", &bundle)
	if bundle.Repl == nil || bundle.Repl.Role != "follower" || !bundle.Repl.Connected {
		t.Fatalf("follower bundle repl = %+v", bundle.Repl)
	}
	getJSON(lsrv, "/registry/debug/bundle", &bundle)
	if bundle.Repl == nil || bundle.Repl.Role != "leader" {
		t.Fatalf("leader bundle repl = %+v", bundle.Repl)
	}

	// Both sides report the leader's committed position. The follower is
	// connected and caught up, and applied ÷ streams is the records one
	// exchange carried; the leader applies nothing and has no stream open
	// between polls.
	pos, seq := leader.Durable.WAL().Committed()
	type sample struct {
		name   string
		labels map[string]string
		value  float64
	}
	position := []sample{
		{"registry_repl_position", map[string]string{"part": "segment"}, float64(pos.Segment)},
		{"registry_repl_position", map[string]string{"part": "offset"}, float64(pos.Offset)},
		{"registry_repl_position", map[string]string{"part": "seq"}, float64(seq)},
	}
	for _, side := range []struct {
		name string
		srv  *httptest.Server
		want []sample
	}{
		{"follower", fsrv, append(position,
			sample{"registry_repl_lag_records", nil, 0},
			sample{"registry_repl_lag_seconds", nil, 0},
			sample{"registry_repl_connected", nil, 1},
			sample{"registry_repl_applied_total", nil, 1},
			sample{"registry_repl_streams_total", nil, 1},
			sample{"registry_repl_errors_total", nil, 0})},
		{"leader", lsrv, append(position,
			sample{"registry_repl_connected", nil, 0},
			sample{"registry_repl_applied_total", nil, 0},
			sample{"registry_repl_streams_total", nil, 1},
			sample{"registry_repl_errors_total", nil, 0})},
	} {
		scrape := scrapeMetrics(t, side.srv)
		for _, w := range side.want {
			if got, ok := scrape.Value(w.name, w.labels); !ok || got != w.value {
				t.Errorf("%s %s%v = %v (ok=%v), want %v", side.name, w.name, w.labels, got, ok, w.value)
			}
		}
	}
}
