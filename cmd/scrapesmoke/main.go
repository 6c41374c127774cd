// Command scrapesmoke is the CI scrape smoke: it boots a registry with a
// seeded simulated host cluster, drives discovery over real HTTP, then
// scrapes /registry/metrics and /registry/traces and fails (non-zero
// exit) when the exposition is malformed, an expected metric family is
// missing, or a discovery's X-Registry-Trace id cannot be retrieved from
// the flight ring. Every request is sampled throughout, and the response
// cache must serve them all the same: the next phase exercises it end to
// end — hit/miss/entry counts must scrape exactly, the frozen router's
// 404 counter must tick, and an LCM write must invalidate. The balance
// phase then sweeps once and asserts the
// registry_balance_* / registry_slo_* families scrape with the exact
// values the driven traffic implies, and that every request left a
// retrievable flight record and the diagnostic bundle carries all its
// sections. A replication phase then boots a leader/follower pair over
// real listeners, submits through the follower (the 307 redirect to the
// leader must be followed transparently), drives the follower's tailer,
// and asserts the follower serves the replicated binding locally and
// both registries' registry_repl_* families scrape with the exact
// values the pair implies. It runs entirely in-process on a manual
// clock, so CI needs no orchestration beyond `go run ./cmd/scrapesmoke`.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/admit"
	"repro/internal/breaker"
	"repro/internal/core"
	"repro/internal/hostsim"
	"repro/internal/jaxr"
	"repro/internal/nodestatus"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/repl"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/wal"
)

const hosts = 4

func main() {
	if err := run(); err != nil {
		log.Fatalf("scrapesmoke: %v", err)
	}
	fmt.Println("scrapesmoke: ok")
}

func run() error {
	epoch := time.Date(2011, 4, 22, 9, 0, 0, 0, time.UTC)
	clk := simclock.NewManual(epoch)
	cluster := hostsim.NewCluster()
	ns := rim.NewService(nodestatus.ServiceName, "Service to monitor node status")
	svc := rim.NewService("Adder",
		`<constraint><cpuLoad>load ls 1.0</cpuLoad><memory>memory gr 1GB</memory></constraint>`)
	for i := 0; i < hosts; i++ {
		name := fmt.Sprintf("h%02d.sdsu.edu", i)
		cluster.Add(hostsim.NewHost(hostsim.Config{
			Name: name, Cores: 2, TotalMemB: 4 << 30, TotalSwapB: 2 << 30,
		}, epoch))
		ns.AddBinding("http://" + name + ":8080/NodeStatus/NodeStatusService")
		svc.AddBinding("http://" + name + ":8080/Adder/addService")
	}

	logger, err := obs.NewLogger(os.Stderr, "warn", "text")
	if err != nil {
		return err
	}
	reg, err := registry.New(registry.Config{
		Clock:          clk,
		Policy:         core.PolicyFilter,
		SnapshotMaxAge: 25 * time.Second,
		Invoker:        nodestatus.LocalInvoker{Cluster: cluster, Clock: clk},
		Breaker:        &breaker.Config{Threshold: 3, BaseBackoff: 50 * time.Second, MaxBackoff: 10 * time.Minute},
		Logger:         logger,
		TraceSample:    1,
		Admission:      &admit.Config{},
	})
	if err != nil {
		return err
	}
	if err := reg.LCM.SubmitObjects(reg.AdminContext(), ns, svc); err != nil {
		return err
	}
	reg.Collector.CollectOnce()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	srv := registry.HardenedServer("", reg.Handler())
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 10 * time.Second}

	// Drive a few discoveries; every one is sampled (TraceSample=1) and
	// must echo a trace id. The first runs the balancer, the rest are
	// answered from the response cache it filled.
	var missID, hitID string
	for i := 0; i < 5; i++ {
		resp, err := client.Get(base + "/registry/bindings?service=Adder")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("bindings status %d", resp.StatusCode)
		}
		hitID = resp.Header.Get("X-Registry-Trace")
		if hitID == "" {
			return fmt.Errorf("discovery response missing X-Registry-Trace header")
		}
		if i == 0 {
			missID = hitID
		}
	}

	if err := checkHealth(client, base); err != nil {
		return err
	}
	if err := checkMetrics(client, base); err != nil {
		return err
	}
	if err := checkTraces(client, base, missID, hitID); err != nil {
		return err
	}
	if err := checkRespCache(client, base, reg); err != nil {
		return err
	}
	if err := checkBalance(client, base, reg); err != nil {
		return err
	}
	if err := checkFlightBundle(client, base); err != nil {
		return err
	}
	return checkRepl(epoch)
}

// checkRepl boots a durable leader and a follower registry over real
// listeners, submits a service THROUGH the follower (whose write edge
// answers 307 + NotRegistryLeader; the stock HTTP client must follow it
// to the leader transparently), then drives the follower's tailer to
// convergence and asserts the follower serves the replicated binding
// from local state and both sides' registry_repl_* families scrape with
// the exact values the pair implies.
func checkRepl(epoch time.Time) error {
	clk := simclock.NewManual(epoch)
	ldir, err := os.MkdirTemp("", "scrapesmoke-leader-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ldir)
	fdir, err := os.MkdirTemp("", "scrapesmoke-follower-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(fdir)

	leader, err := registry.New(registry.Config{
		Clock:      clk,
		Policy:     core.PolicyStock,
		DataDir:    ldir,
		Fsync:      wal.FsyncNever,
		ReplLeader: true,
	})
	if err != nil {
		return err
	}
	lln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer lln.Close()
	lsrv := registry.HardenedServer("", leader.Handler())
	go lsrv.Serve(lln)
	defer lsrv.Close()
	lbase := "http://" + lln.Addr().String()

	client := &http.Client{Timeout: 10 * time.Second}
	follower, err := registry.New(registry.Config{
		Clock:         clk,
		Policy:        core.PolicyStock,
		ReplFollowURL: lbase,
	})
	if err != nil {
		return err
	}
	f, err := repl.OpenFollower(fdir, follower.Store, repl.FollowerOptions{
		LeaderURL: lbase,
		Clock:     clk,
		Client:    client,
		Seed:      42,
		PollWait:  -1, // polls return immediately; the smoke drives them
	})
	if err != nil {
		return err
	}
	follower.AttachFollower(f)
	defer f.Close()
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer fln.Close()
	fsrv := registry.HardenedServer("", follower.Handler())
	go fsrv.Serve(fln)
	defer fsrv.Close()
	fbase := "http://" + fln.Addr().String()

	// Publish via the FOLLOWER: registration, login, and submit are all
	// writes, so every request bounces 307 to the leader and the client
	// must follow it without any special handling.
	conn := jaxr.Connect(fbase, client)
	creds, _, err := conn.Register("smoke-repl", "pw", rim.PersonName{})
	if err != nil {
		return fmt.Errorf("register via follower: %w", err)
	}
	if err := conn.Login(creds); err != nil {
		return fmt.Errorf("login via follower: %w", err)
	}
	svc := rim.NewService("ReplSmoke", "")
	svc.AddBinding("http://thermo.sdsu.edu:8080/ReplSmoke/addService")
	if _, err := conn.Submit(svc); err != nil {
		return fmt.Errorf("submit via follower: %w", err)
	}
	if got := leader.QM.FindObjects(rim.TypeService, "ReplSmoke"); len(got) != 1 {
		return fmt.Errorf("submitted service did not land on the leader (found %d)", len(got))
	}

	// Converge the follower, then it must serve the binding locally.
	ctx := context.Background()
	if err := f.Bootstrap(ctx); err != nil {
		return err
	}
	leaderPos, leaderSeq := leader.Durable.WAL().Committed()
	for i := 0; f.Stats().Applied != leaderPos; i++ {
		if i >= 200 {
			return fmt.Errorf("follower stuck at %s, leader at %s", f.Stats().Applied, leaderPos)
		}
		if _, err := f.Poll(ctx); err != nil {
			return err
		}
	}
	resp, err := client.Get(fbase + "/registry/bindings?service=ReplSmoke")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("follower bindings status %d", resp.StatusCode)
	}
	var bindings struct {
		URIs []string `json:"uris"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&bindings); err != nil {
		return fmt.Errorf("follower bindings not valid JSON: %w", err)
	}
	if len(bindings.URIs) != 1 || !strings.Contains(bindings.URIs[0], "thermo") {
		return fmt.Errorf("follower served bindings %v, want the replicated thermo URI", bindings.URIs)
	}

	// Exact scrape values on both sides. The follower bootstrapped from
	// the leader's first-boot checkpoint, which covers the one record a
	// boot logs (the operator swap, seq 1), so applied_total is the
	// leader's committed sequence less that one.
	fscrape, err := scrapeMetrics(client, fbase)
	if err != nil {
		return err
	}
	for _, want := range []struct {
		name   string
		labels map[string]string
		value  float64
	}{
		{"registry_repl_position", map[string]string{"part": "segment"}, float64(leaderPos.Segment)},
		{"registry_repl_position", map[string]string{"part": "offset"}, float64(leaderPos.Offset)},
		{"registry_repl_position", map[string]string{"part": "seq"}, float64(leaderSeq)},
		{"registry_repl_lag_records", nil, 0},
		{"registry_repl_lag_seconds", nil, 0},
		{"registry_repl_connected", nil, 1},
		{"registry_repl_applied_total", nil, float64(leaderSeq - 1)},
		// One poll took the whole backlog: applied ÷ streams is the records
		// an exchange carries.
		{"registry_repl_streams_total", nil, 1},
		{"registry_repl_errors_total", nil, 0},
	} {
		if v, ok := fscrape.Value(want.name, want.labels); !ok || v != want.value {
			return fmt.Errorf("follower %s%v = %v (ok=%v), want %v", want.name, want.labels, v, ok, want.value)
		}
	}
	lscrape, err := scrapeMetrics(client, lbase)
	if err != nil {
		return err
	}
	for _, want := range []struct {
		name   string
		labels map[string]string
		value  float64
	}{
		{"registry_repl_position", map[string]string{"part": "segment"}, float64(leaderPos.Segment)},
		{"registry_repl_position", map[string]string{"part": "offset"}, float64(leaderPos.Offset)},
		{"registry_repl_position", map[string]string{"part": "seq"}, float64(leaderSeq)},
		{"registry_repl_connected", nil, 0}, // no stream in flight between polls
		{"registry_repl_applied_total", nil, 0},
		{"registry_repl_streams_total", nil, 1},
		{"registry_repl_errors_total", nil, 0},
		// An empty directory: the one checkpoint is the first boot's, and
		// recovery had nothing to load or replay (the manual clock reads 0).
		{"registry_checkpoints_total", nil, 1},
		{"registry_wal_replay_records_total", nil, 0},
		{"registry_wal_recovery_seconds", map[string]string{"phase": "load"}, 0},
		{"registry_wal_recovery_seconds", map[string]string{"phase": "replay"}, 0},
	} {
		if v, ok := lscrape.Value(want.name, want.labels); !ok || v != want.value {
			return fmt.Errorf("leader %s%v = %v (ok=%v), want %v", want.name, want.labels, v, ok, want.value)
		}
	}
	return nil
}

// smokeDiscoveries is every discovery request the phases above drive: the
// first five (a miss and four hits), three more response-cache hits, and
// the post-invalidation re-render. Each lands one balance assignment, one
// staleness sample, and one flight record.
const smokeDiscoveries = 9

// checkBalance sweeps once (rollups ride collector sweeps) and asserts
// the registry_balance_* / registry_slo_* families scrape with the exact
// values the nine discoveries imply: assignment counts summing to nine,
// the staleness histogram counting nine samples, two rollups (boot + this
// one), a fairness index and capacity skew consistent with the scraped
// per-host counts, and zero burn on both SLO windows (no errors, and on
// the manual clock every request is instantaneous).
func checkBalance(client *http.Client, base string, reg *registry.Registry) error {
	reg.Collector.CollectOnce()
	scrape, err := scrapeMetrics(client, base)
	if err != nil {
		return err
	}
	for _, want := range []struct{ name, typ string }{
		{"registry_balance_assignments_total", "counter"},
		{"registry_balance_fairness_index", "gauge"},
		{"registry_balance_capacity_skew", "gauge"},
		{"registry_balance_rollups_total", "counter"},
		{"registry_balance_staleness_seconds", "histogram"},
		{"registry_slo_availability_burn_rate", "gauge"},
		{"registry_slo_latency_burn_rate", "gauge"},
	} {
		f, ok := scrape.Families[want.name]
		if !ok {
			return fmt.Errorf("metrics missing family %s", want.name)
		}
		if f.Type != want.typ {
			return fmt.Errorf("family %s has type %s, want %s", want.name, f.Type, want.typ)
		}
	}

	// Per-host assignment counts: hosts with zero assignments export no
	// child, so absent samples count as zero; the sum is exact.
	counts := make([]float64, hosts)
	var total float64
	for i := 0; i < hosts; i++ {
		name := fmt.Sprintf("h%02d.sdsu.edu", i)
		if v, ok := scrape.Value("registry_balance_assignments_total", map[string]string{"host": name}); ok {
			counts[i] = v
		}
		total += counts[i]
	}
	if total != smokeDiscoveries {
		return fmt.Errorf("balance assignments sum = %v, want %d (%v)", total, smokeDiscoveries, counts)
	}
	if v, ok := scrape.Value("registry_balance_staleness_seconds_count", nil); !ok || v != smokeDiscoveries {
		return fmt.Errorf("staleness histogram count = %v (ok=%v), want %d", v, ok, smokeDiscoveries)
	}
	if v, ok := scrape.Value("registry_balance_rollups_total", nil); !ok || v != 2 {
		return fmt.Errorf("balance rollups = %v (ok=%v), want 2 (boot sweep + this one)", v, ok)
	}

	// Fairness and skew must agree with the scraped counts: Jain's index
	// over the per-host deltas (this rollup saw all nine), and the worst
	// host's share against its capacity share (equal memory, so 1/hosts).
	var sumsq float64
	var max float64
	for _, c := range counts {
		sumsq += c * c
		if c > max {
			max = c
		}
	}
	wantFairness := total * total / (float64(hosts) * sumsq)
	if v, ok := scrape.Value("registry_balance_fairness_index", nil); !ok || math.Abs(v-wantFairness) > 1e-6 {
		return fmt.Errorf("fairness index = %v (ok=%v), want %v from counts %v", v, ok, wantFairness, counts)
	}
	wantSkew := (max / total) * float64(hosts)
	if v, ok := scrape.Value("registry_balance_capacity_skew", nil); !ok || math.Abs(v-wantSkew) > 1e-6 {
		return fmt.Errorf("capacity skew = %v (ok=%v), want %v from counts %v", v, ok, wantSkew, counts)
	}

	for _, family := range []string{"registry_slo_availability_burn_rate", "registry_slo_latency_burn_rate"} {
		for _, window := range []string{"5m", "1h"} {
			v, ok := scrape.Value(family, map[string]string{"window": window})
			if !ok || v != 0 {
				return fmt.Errorf("%s{window=%s} = %v (ok=%v), want 0", family, window, v, ok)
			}
		}
	}
	return nil
}

// checkFlightBundle retrieves the flight ring and the diagnostic bundle:
// every discovery left exactly one record (the seven response-cache hits
// flagged as such), and the bundle carries all its sections, the sampled
// records repeated under traces.
func checkFlightBundle(client *http.Client, base string) error {
	resp, err := client.Get(base + "/registry/flight?n=100")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("flight status %d", resp.StatusCode)
	}
	var page struct {
		Written uint64 `json:"written"`
		Records []struct {
			Route    string `json:"route"`
			Outcome  string `json:"outcome"`
			CacheHit bool   `json:"cacheHit"`
			Host     string `json:"host"`
		} `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return fmt.Errorf("flight is not valid JSON: %w", err)
	}
	if page.Written != smokeDiscoveries {
		return fmt.Errorf("flight written = %d, want %d", page.Written, smokeDiscoveries)
	}
	if len(page.Records) != smokeDiscoveries {
		return fmt.Errorf("flight returned %d records, want %d", len(page.Records), smokeDiscoveries)
	}
	hitRecords := 0
	for _, rec := range page.Records {
		if rec.Route != "bindings" || rec.Outcome != "admitted" {
			return fmt.Errorf("unexpected flight record %+v", rec)
		}
		if rec.Host == "" {
			return fmt.Errorf("flight record lost its chosen host: %+v", rec)
		}
		if rec.CacheHit {
			hitRecords++
		}
	}
	if hitRecords != 7 {
		return fmt.Errorf("flight has %d cache-hit records, want 7", hitRecords)
	}

	bresp, err := client.Get(base + "/registry/debug/bundle")
	if err != nil {
		return err
	}
	defer bresp.Body.Close()
	var bundle struct {
		At      string                     `json:"at"`
		Config  map[string]interface{}     `json:"config"`
		Health  map[string]json.RawMessage `json:"health"`
		Metrics string                     `json:"metrics"`
		Flight  []json.RawMessage          `json:"flight"`
		Traces  []json.RawMessage          `json:"traces"`
		SLO     map[string]json.RawMessage `json:"slo"`
	}
	if bresp.StatusCode != http.StatusOK {
		return fmt.Errorf("bundle status %d", bresp.StatusCode)
	}
	if err := json.NewDecoder(bresp.Body).Decode(&bundle); err != nil {
		return fmt.Errorf("bundle is not valid JSON: %w", err)
	}
	if bundle.At == "" || bundle.Config["policy"] != "filter" {
		return fmt.Errorf("bundle config wrong: at=%q policy=%v", bundle.At, bundle.Config["policy"])
	}
	for _, comp := range []string{"collector", "wal", "admission", "edgecache", "balance"} {
		if _, ok := bundle.Health[comp]; !ok {
			return fmt.Errorf("bundle health missing component %s", comp)
		}
	}
	if !strings.Contains(bundle.Metrics, "registry_balance_fairness_index") {
		return fmt.Errorf("bundle metrics snapshot missing the balance families")
	}
	if len(bundle.Flight) != smokeDiscoveries || len(bundle.Traces) != smokeDiscoveries {
		return fmt.Errorf("bundle has %d flight records and %d traces, want %d of each",
			len(bundle.Flight), len(bundle.Traces), smokeDiscoveries)
	}
	for _, window := range []string{"5m", "1h"} {
		if _, ok := bundle.SLO[window]; !ok {
			return fmt.Errorf("bundle SLO missing window %s", window)
		}
	}
	return nil
}

// checkRespCache drives three more hits on the entry the first traced
// discovery stored (sampling stays on: a trace id lives in a header, so it
// never keeps a response out of the cache), ticks the frozen router's 404
// counter, and asserts the registry_respcache_* and
// registry_edge_rejected_total families scrape with the exact expected
// values — then proves an LCM write invalidates by watching the next
// request miss.
func checkRespCache(client *http.Client, base string, reg *registry.Registry) error {
	get := func(path string, want int) error {
		resp, err := client.Get(base + path)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			return fmt.Errorf("GET %s status %d, want %d", path, resp.StatusCode, want)
		}
		return nil
	}
	for i := 0; i < 3; i++ { // all served preserialized
		if err := get("/registry/bindings?service=Adder", http.StatusOK); err != nil {
			return err
		}
	}
	if err := get("/registry/no-such-route", http.StatusNotFound); err != nil {
		return err
	}

	scrape, err := scrapeMetrics(client, base)
	if err != nil {
		return err
	}
	for _, want := range []struct{ name, typ string }{
		{"registry_respcache_hits_total", "counter"},
		{"registry_respcache_misses_total", "counter"},
		{"registry_respcache_invalidations_total", "counter"},
		{"registry_respcache_entries", "gauge"},
		{"registry_respcache_renders_total", "counter"},
		{"registry_edge_rejected_total", "counter"},
	} {
		f, ok := scrape.Families[want.name]
		if !ok {
			return fmt.Errorf("metrics missing family %s", want.name)
		}
		if f.Type != want.typ {
			return fmt.Errorf("family %s has type %s, want %s", want.name, f.Type, want.typ)
		}
	}
	for _, want := range []struct {
		name   string
		labels map[string]string
		value  float64
	}{
		{"registry_respcache_hits_total", nil, 7},
		{"registry_respcache_misses_total", nil, 1},
		{"registry_respcache_entries", nil, 1},
		// Every discovery so far came over REST: the one miss rendered JSON,
		// and nothing has rendered an envelope nobody asked for.
		{"registry_respcache_renders_total", map[string]string{"encoding": "json"}, 1},
		{"registry_respcache_renders_total", map[string]string{"encoding": "soap"}, 0},
		{"registry_edge_rejected_total", map[string]string{"reason": "not-found"}, 1},
	} {
		if v, ok := scrape.Value(want.name, want.labels); !ok || v != want.value {
			return fmt.Errorf("%s%v = %v (ok=%v), want %v", want.name, want.labels, v, ok, want.value)
		}
	}
	invalidations, ok := scrape.Value("registry_respcache_invalidations_total", nil)
	if !ok {
		return fmt.Errorf("registry_respcache_invalidations_total missing a sample")
	}

	// Any life-cycle write flushes the cache: the counter moves and the
	// next request re-renders.
	noise := rim.NewService("Noise", "")
	noise.AddBinding("http://noise.sdsu.edu:8080/Noise/n")
	if err := reg.LCM.SubmitObjects(reg.AdminContext(), noise); err != nil {
		return err
	}
	if err := get("/registry/bindings?service=Adder", http.StatusOK); err != nil {
		return err
	}
	scrape, err = scrapeMetrics(client, base)
	if err != nil {
		return err
	}
	if v, ok := scrape.Value("registry_respcache_invalidations_total", nil); !ok || v != invalidations+1 {
		return fmt.Errorf("invalidations after LCM write = %v (ok=%v), want %v", v, ok, invalidations+1)
	}
	if v, ok := scrape.Value("registry_respcache_misses_total", nil); !ok || v != 2 {
		return fmt.Errorf("misses after LCM write = %v (ok=%v), want 2 (write must invalidate)", v, ok)
	}
	if v, ok := scrape.Value("registry_respcache_hits_total", nil); !ok || v != 7 {
		return fmt.Errorf("hits after LCM write = %v (ok=%v), want 7", v, ok)
	}
	return nil
}

func scrapeMetrics(client *http.Client, base string) (*obs.Scrape, error) {
	resp, err := client.Get(base + "/registry/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics status %d", resp.StatusCode)
	}
	scrape, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("malformed exposition: %w", err)
	}
	return scrape, nil
}

func checkHealth(client *http.Client, base string) error {
	resp, err := client.Get(base + "/registry/health")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("health status %d", resp.StatusCode)
	}
	var v struct {
		Stats struct{ Sweeps int }
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return fmt.Errorf("health is not valid JSON: %w", err)
	}
	if v.Stats.Sweeps < 1 {
		return fmt.Errorf("health reports %d sweeps, want >= 1", v.Stats.Sweeps)
	}
	return nil
}

func checkMetrics(client *http.Client, base string) error {
	resp, err := client.Get(base + "/registry/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return fmt.Errorf("metrics content type %q", ct)
	}
	scrape, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return fmt.Errorf("malformed exposition: %w", err)
	}
	// Every family the dashboards rely on must be present and typed.
	for _, want := range []struct{ name, typ string }{
		{"registry_objects", "gauge"},
		{"registry_collector_sweeps_total", "counter"},
		{"registry_collector_errors_total", "counter"},
		{"registry_collector_timeouts_total", "counter"},
		{"registry_collector_retries_total", "counter"},
		{"registry_breaker_state", "gauge"},
		{"registry_nodestate_rows", "gauge"},
		{"registry_nodestate_snapshot_generation", "gauge"},
		{"registry_nodestate_snapshot_age_seconds", "gauge"},
		{"registry_discovery_total", "counter"},
		{"registry_discovery_verdicts_total", "counter"},
		{"registry_discovery_latency_seconds", "histogram"},
		{"registry_traces_sampled_total", "counter"},
		{"registry_admission_admitted_total", "counter"},
		{"registry_admission_shed_total", "counter"},
		{"registry_admission_queued_total", "counter"},
		{"registry_admission_queue_timeouts_total", "counter"},
		{"registry_admission_deadline_exceeded_total", "counter"},
		{"registry_admission_inflight", "gauge"},
		{"registry_admission_queue_depth", "gauge"},
		{"registry_admission_accept_rate", "gauge"},
		{"registry_brownout_tier", "gauge"},
		{"registry_brownout_transitions_total", "counter"},
	} {
		f, ok := scrape.Families[want.name]
		if !ok {
			return fmt.Errorf("metrics missing family %s", want.name)
		}
		if f.Type != want.typ {
			return fmt.Errorf("family %s has type %s, want %s", want.name, f.Type, want.typ)
		}
	}
	if v, ok := scrape.Value("registry_discovery_total", nil); !ok || v < 5 {
		return fmt.Errorf("registry_discovery_total = %v (ok=%v), want >= 5", v, ok)
	}
	if v, ok := scrape.Value("registry_nodestate_rows", nil); !ok || v != hosts {
		return fmt.Errorf("registry_nodestate_rows = %v (ok=%v), want %d", v, ok, hosts)
	}
	if v, ok := scrape.Value("registry_discovery_latency_seconds_count", nil); !ok || v < 5 {
		return fmt.Errorf("latency histogram count = %v (ok=%v), want >= 5", v, ok)
	}
	if v, ok := scrape.Value("registry_breaker_state", map[string]string{"host": "h00.sdsu.edu"}); !ok || v != 0 {
		return fmt.Errorf("breaker state for h00 = %v (ok=%v), want 0 (closed)", v, ok)
	}
	// The discoveries above all passed through the admission controller:
	// every one admitted, nothing shed, ladder at nominal, shedder wide
	// open.
	disc := map[string]string{"class": "discovery"}
	if v, ok := scrape.Value("registry_admission_admitted_total", disc); !ok || v < 5 {
		return fmt.Errorf("admission admitted = %v (ok=%v), want >= 5", v, ok)
	}
	if v, ok := scrape.Value("registry_admission_shed_total", disc); !ok || v != 0 {
		return fmt.Errorf("admission shed = %v (ok=%v), want 0", v, ok)
	}
	if v, ok := scrape.Value("registry_admission_accept_rate", disc); !ok || v != 1 {
		return fmt.Errorf("admission accept rate = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := scrape.Value("registry_brownout_tier", nil); !ok || v != 0 {
		return fmt.Errorf("brownout tier = %v (ok=%v), want 0 (nominal)", v, ok)
	}
	return nil
}

// checkTraces reads the sampled requests back as a projection of the
// flight ring: ?id= retrieves the first discovery's record with the five
// discovery stages in path order, a later one is the cache hit it was, the
// list carries both, and a malformed ?n= is refused.
func checkTraces(client *http.Client, base, missID, hitID string) error {
	type trace struct {
		Trace    string `json:"trace"`
		CacheHit bool   `json:"cacheHit"`
		Stages   []struct {
			Name string `json:"name"`
		} `json:"stages"`
	}
	get := func(query string, want int, into interface{}) error {
		resp, err := client.Get(base + "/registry/traces" + query)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			return fmt.Errorf("traces%s status %d, want %d", query, resp.StatusCode, want)
		}
		if into == nil {
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(into)
	}
	var miss, hit trace
	if err := get("?id="+missID, http.StatusOK, &miss); err != nil {
		return err
	}
	if err := get("?id="+hitID, http.StatusOK, &hit); err != nil {
		return err
	}
	if miss.Trace != missID || miss.CacheHit || hit.Trace != hitID || !hit.CacheHit {
		return fmt.Errorf("traces by id = %+v and %+v, want the miss %s and the cache hit %s", miss, hit, missID, hitID)
	}
	var names []string
	for _, s := range miss.Stages {
		names = append(names, s.Name)
	}
	if got, want := strings.Join(names, " "), "view constraint snapshot evaluate arrange"; got != want {
		return fmt.Errorf("trace %s stages = %q, want %q", missID, got, want)
	}
	var list struct {
		SampleRate int     `json:"sampleRate"`
		Traces     []trace `json:"traces"`
	}
	if err := get("", http.StatusOK, &list); err != nil {
		return err
	}
	if list.SampleRate != 1 || len(list.Traces) != 5 || list.Traces[0].Trace != hitID {
		return fmt.Errorf("traces list = %+v, want rate 1 and the five discoveries newest first", list)
	}
	return get("?n=abc", http.StatusBadRequest, nil)
}
