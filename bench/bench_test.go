package main

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nodestatus"
	"repro/internal/registry"
	"repro/internal/store"
)

// populationBytes serialises everything a set-up would send to a server.
func populationBytes(t *testing.T, p *population) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, svc := range append([]*service{{obj: p.nodeStatus}}, p.services...) {
		w, err := registry.ToWire(svc.obj)
		if err != nil {
			t.Fatal(err)
		}
		data, err := xml.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
	}
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	const port = 4242
	a := populationBytes(t, generate(7, 40, 8, 16, port))
	b := populationBytes(t, generate(7, 40, 8, 16, port))
	if !bytes.Equal(a, b) {
		t.Fatal("same seed published different bytes")
	}
	if c := populationBytes(t, generate(8, 40, 8, 16, port)); bytes.Equal(a, c) {
		t.Fatal("different seeds published the same bytes")
	}
	s1, s2, s3 := sequence(7, 500, 40, 0.5), sequence(7, 500, 40, 0.5), sequence(8, 500, 40, 0.5)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed drew different request sequences")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds drew the same request sequence")
	}
	soap := 0
	for _, r := range s1 {
		if r.service < 0 || r.service >= 40 {
			t.Fatalf("service index %d out of range", r.service)
		}
		if r.soap {
			soap++
		}
	}
	if soap < 200 || soap > 300 {
		t.Fatalf("soap share 0.5 drew %d of 500", soap)
	}
}

// The oracle never touches the repo's parser or balancer; this is the one
// place the two are held against each other, for every member of the
// constraint family on the seeded hosts.
func TestOracleAgreesWithBalancer(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		p := generate(seed, 1, 32, 32, 9)
		now := clk.Now()
		table := store.NewNodeStateTable()
		for i, h := range p.cluster.hosts {
			s := p.cluster.samples[i]
			table.Upsert(store.NodeState{Host: h, Load: s.load, MemoryB: s.memoryB, SwapB: s.swapB, Updated: now})
		}
		bal := &core.Balancer{Table: table, Policy: core.PolicyFilter}
		svc := p.services[0]
		for _, spec := range constraintFamily() {
			view := store.DiscoveryView{ID: svc.obj.ID, Description: spec.description(svc.name), URIs: svc.obj.AccessURIs()}
			got, dec := bal.ArrangeView(view, now)
			if dec.ConstraintErr != nil {
				t.Fatalf("%+v: the repo's parser rejects the generated description: %v", spec, dec.ConstraintErr)
			}
			want := p.expected(svc, spec)
			if !sameStrings(got, want) {
				t.Errorf("seed %d %+v: balancer serves %d URIs, oracle %d\n got %v\nwant %v", seed, spec, len(got), len(want), got, want)
			}
			if spec.none == dec.Filtered {
				t.Errorf("%+v: Filtered=%v", spec, dec.Filtered)
			}
		}
	}
}

func TestOracleFamilyDiscriminates(t *testing.T) {
	// If every member admitted the same hosts the differential check above
	// would be vacuous, and publish_follow could not tell an applied update
	// from a pending one.
	p := generate(1, 1, 8, 8, 9)
	distinct := map[string]bool{}
	for _, spec := range constraintFamily() {
		key, _ := json.Marshal(p.expected(p.services[0], spec))
		distinct[string(key)] = true
	}
	if len(distinct) < 6 {
		t.Fatalf("constraint family yields only %d distinct answers on 8 hosts", len(distinct))
	}
}

func TestPercentile(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.9, 46}, {0.125, 15}} {
		if got := percentile(sorted, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := quantilesMs([]int64{3e6, 1e6, 2e6}, 0.5)[0]; got != 2 {
		t.Errorf("quantilesMs median = %v, want 2", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := spread([]float64{4, 1, 2}), 3.0/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		// nested: child 1 holds grandchild 2
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "a.inner", Start: 15, End: 25},
		// overlapping siblings 3 and 4 cover [50,80] together
		{ID: 3, Parent: 0, Name: "b", Start: 50, End: 70},
		{ID: 4, Parent: 0, Name: "c", Start: 60, End: 80},
		// a child that sticks out of its parent is clipped to it
		{ID: 5, Parent: 0, Name: "d", Start: 95, End: 130},
		// a child wholly inside what is already covered adds nothing
		{ID: 6, Parent: 0, Name: "e", Start: 62, End: 65},
	}
	got := selfTimes(spans)
	want := []int64{
		100 - (30 + 30 + 5), // root: [10,40] + [50,80] + [95,100]
		30 - 10,
		10,
		20,
		20,
		35,
		3,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
	byName := selfByName(spans)
	if medianNs(byName["root"]) != 35 {
		t.Errorf("root self = %v", byName["root"])
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	off.end(off.begin(1, -1, "x")) // a nil recorder records nothing and does not panic
	r := newRecorder(2)
	a := r.begin(1, -1, "a")
	b := r.begin(1, a, "b")
	c := r.begin(1, a, "c") // over capacity
	r.end(c)
	r.end(b)
	r.end(a)
	if c != -1 || r.dropped != 1 || len(r.spans) != 2 {
		t.Fatalf("capacity: id %d dropped %d spans %d", c, r.dropped, len(r.spans))
	}
	if r.spans[b].Parent != a || r.spans[a].End < r.spans[b].End {
		t.Fatalf("spans %+v", r.spans)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := r.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var first map[string]interface{}
	if len(lines) != 2 || json.Unmarshal(lines[0], &first) != nil {
		t.Fatalf("trace file: %s", data)
	}
	for _, k := range []string{"req", "span", "parent", "name", "start_ns", "end_ns"} {
		if _, ok := first[k]; !ok {
			t.Errorf("trace line lacks %q: %s", k, lines[0])
		}
	}
}

func TestBurstDurations(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	calls := []statusCall{
		{at(1000), at(1002)}, {at(0), at(3)}, {at(1), at(9)}, {at(5), at(6)}, // given out of order
		{at(1001), at(1030)},
	}
	got := burstDurations(calls)
	want := []int64{int64(9 * time.Millisecond), int64(30 * time.Millisecond)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bursts = %v, want %v", got, want)
	}
	if burstDurations(nil) != nil {
		t.Fatal("no calls, no bursts")
	}
}

func TestParseSchedstat(t *testing.T) {
	got, err := parseSchedstat("123456789 4242 17\n")
	if err != nil || got != 123456789 {
		t.Fatalf("run time = %d, %v; want 123456789", got, err)
	}
	for _, bad := range []string{"garbage", "1 2", "x 2 3"} {
		if _, err := parseSchedstat(bad); err == nil {
			t.Errorf("malformed schedstat %q accepted", bad)
		}
	}
}

// cut bins samples by completion time between clock readings, and the
// statistics of a window are divided by its speed index: a window in which
// everything (the generator's own CPU per exchange too) cost twice as much
// reads the same as a nominal one.
func TestWindowsAtNominalSpeed(t *testing.T) {
	t0 := time.Unix(100, 0)
	ms := func(n int) int64 { return int64(n) * int64(time.Millisecond) }
	clocks := []clock{
		{at: t0, serverNs: 0, clientNs: 0},
		{at: t0.Add(time.Second), serverNs: ms(400), clientNs: ms(100)},     // nominal: 4 exchanges at 25 ms of client CPU
		{at: t0.Add(2 * time.Second), serverNs: ms(800), clientNs: ms(200)}, // half speed: 2 exchanges at 50 ms
	}
	samples := []sample{
		{at: ms(0), lat: ms(10)}, {at: ms(100), lat: ms(10)}, {at: ms(200), lat: ms(10)}, {at: ms(980), lat: ms(10)}, // the last completes at 990
		{at: ms(995), lat: ms(20)}, {at: ms(1500), lat: ms(20)}, // the first was sent in window 0 and completed in window 1
		{at: ms(1990), lat: ms(20)}, // completes after the last reading: dropped
	}
	ws := cut(samples, t0, clocks)
	if len(ws) != 2 || len(ws[0].samples) != 4 || len(ws[1].samples) != 2 || ws[1].exchanges != 2 {
		t.Fatalf("windows = %+v", ws)
	}
	const nominalUs = 25e3
	if got := ws[0].speed(nominalUs); math.Abs(got-1) > 1e-9 {
		t.Errorf("speed of the nominal window = %v", got)
	}
	if got := ws[1].speed(nominalUs); math.Abs(got-2) > 1e-9 {
		t.Errorf("speed of the slow window = %v", got)
	}
	if got := ws.quantileMs(anyProtocol, 0.5, nominalUs); math.Abs(got-10) > 1e-9 {
		t.Errorf("p50 at nominal speed = %v ms, want 10", got)
	}
	if got := ws.throughput(nominalUs); math.Abs(got-4) > 1e-9 {
		t.Errorf("throughput at nominal speed = %v, want 4", got)
	}
	// 800 ms of server CPU over 6 operations at an overall speed of
	// (200 ms / 6) / 25 ms.
	want := 800e3 / 6 / (200.0 / 6 / 25)
	if got := ws.cpuPerOpUs(nominalUs); math.Abs(got-want) > 1e-6 {
		t.Errorf("cpu per op = %v us, want %v", got, want)
	}
	if got := (windows{}).cpuPerOpUs(nominalUs); got != 0 {
		t.Errorf("cpu per op of nothing = %v", got)
	}
	if cut(samples, t0, clocks[:1]) != nil {
		t.Error("one reading makes no window")
	}
}

// The scrape must go through obs's strict parser: a real exposition
// parses, and a malformed one is an error, not a page of zeros.
func TestScrapeUsesStrictParser(t *testing.T) {
	reg, err := registry.New(registry.Config{Policy: core.PolicyFilter})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/registry/metrics", nil))
	sc, err := parseScrape(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("the registry's own exposition does not parse: %v", err)
	}
	if got := sc.get("registry_objects", nil); got < 1 {
		t.Errorf("registry_objects = %v", got)
	}
	if got := sc.get("no_such_metric", nil); got != 0 {
		t.Errorf("missing metric reads %v", got)
	}
	for _, name := range []string{
		"registry_respcache_hits_total", "registry_respcache_misses_total", "registry_constraint_cache_hits_total",
		"registry_wal_appends_total", "registry_wal_fsyncs_total", "registry_checkpoints_total", "registry_collector_sweeps_total",
		"registry_repl_lag_records", "registry_repl_errors_total", "registry_brownout_tier", "registry_nodestate_rows",
	} {
		if _, ok := sc.s.Families[name]; !ok {
			t.Errorf("the exposition has no %s; the per-layer metric scraped from it would read 0", name)
		}
	}
	for _, bad := range []string{
		"registry_objects 12\n", // sample without a TYPE header
		"# TYPE registry_objects gauge\nregistry_objects twelve\n",
		"# TYPE x counter\nx 1\nx 2\n", // duplicate sample
	} {
		if _, err := parseScrape([]byte(bad)); err == nil {
			t.Errorf("malformed exposition accepted: %q", bad)
		}
	}
}

func TestBenchmarkJSONInStep(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed, generated interface{}
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	fresh, err := json.Marshal(benchmarkJSON())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fresh, &generated); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed, generated) {
		t.Fatal("BENCHMARK.json is out of step with spec.go; run go run -C bench . -calibrate, or edit both")
	}
	if len(data) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(data))
	}
}

func TestSpecRespectsTheContract(t *testing.T) {
	seen := map[string]bool{}
	name := func(kind, n string) {
		if n == "" || len(n) > 64 || seen[n] {
			t.Errorf("%s name %q is empty, too long or used twice", kind, n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		name("workload", w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
		for _, a := range aliases[w.name] {
			found := false
			for _, m := range endToEnd {
				found = found || m.name == a.slot
			}
			if !found {
				t.Errorf("%s: alias %s names no end-to-end metric", w.name, a.name)
			}
		}
	}
	setup := false
	for _, m := range endToEnd {
		name("end-to-end", m.name)
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v", m.name, m.bound)
		}
		if m.name == "setup_s" {
			setup = m.unit == "s" && m.better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayer))
	}
	for _, m := range perLayer {
		name("per-layer", m.name)
		if len(m.unit) > 16 || (m.better != "lower" && m.better != "higher") {
			t.Errorf("%s: unit %q better %q", m.name, m.unit, m.better)
		}
	}
}

func TestContractLine(t *testing.T) {
	r := &runResult{Correct: true, Attempted: 10, EndToEnd: map[string]float64{"setup_s": 1.25}, Layers: map[string]float64{"core.arrange_ns": 7}}
	for _, trace := range []bool{false, true} {
		var doc map[string]json.RawMessage
		if err := json.Unmarshal([]byte(contractLine(r, trace)), &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc) != 4 {
			t.Fatalf("keys: %v", doc)
		}
		var metrics map[string]struct {
			Value float64
			Unit  string
		}
		if err := json.Unmarshal(doc["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if len(metrics) != len(defs) {
			t.Fatalf("trace=%v: %d metrics, want %d", trace, len(metrics), len(defs))
		}
		for _, m := range defs {
			if metrics[m.name].Unit != m.unit {
				t.Errorf("%s: unit %q, want %q", m.name, metrics[m.name].Unit, m.unit)
			}
		}
	}
	var sum map[string]json.RawMessage
	if err := json.Unmarshal([]byte(summaryLine([]*runResult{r})), &sum); err != nil || string(sum["claim"]) != "null" {
		t.Fatalf("summary must end with a null claim: %v %s", err, sum["claim"])
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "primary_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "throughput_ops", better: "higher", bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		m         metricDef
		base, cur []float64
		want      string
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, "ok"},
		{lower, steady, []float64{115, 114, 116, 115, 115}, "regressed"},
		{lower, steady, []float64{80, 81, 79, 80, 80}, "ok"}, // better is never a regression
		{higher, steady, []float64{85, 84, 86, 85, 85}, "regressed"},
		{higher, steady, []float64{120, 119, 121, 120, 120}, "ok"},
		{lower, steady, []float64{60, 100, 140, 80, 120}, "unresolved"}, // spread wider than the bound
	} {
		if got, _ := judge(c.m, c.base, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.name, c.base, c.cur, got, c.want)
		}
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, fp fingerprint) string {
		path := filepath.Join(dir, name)
		if err := writeJSONFile(path, resultFile{Fingerprint: fp}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	here := machineFingerprint()
	other := here
	other.NProc++
	a, b, c := write("a.json", here), write("b.json", here), write("c.json", other)
	if code := compareMain([]string{a, b}); code != 0 {
		t.Errorf("same machine: exit %d", code)
	}
	if code := compareMain([]string{a, c}); code == 0 {
		t.Error("different machines compared")
	}
	data, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(bytes.TrimSpace(data), []byte("\"claim\": null\n}")) {
		t.Errorf("result file must end with a null claim:\n%s", data)
	}
}

func TestStaticInvokerServesTheCluster(t *testing.T) {
	p := generate(1, 1, 8, 8, 77)
	inv := staticInvoker{p.cluster}
	for i, uri := range p.nodeStatus.AccessURIs() {
		resp, err := inv.Invoke(uri)
		if err != nil {
			t.Fatal(err)
		}
		if s := p.cluster.samples[i]; resp.Load != s.load || resp.MemoryB != s.memoryB || resp.SwapB != s.swapB {
			t.Errorf("host %d: %+v, want %+v", i, resp, s)
		}
	}
	if _, err := inv.Invoke("http://10.9.9.9:1/NodeStatus/NodeStatusService"); err == nil {
		t.Error("unknown host answered")
	}
}

// The listener answers for every generated host by Host header over a
// real socket (port from :0), and groups what it saw into sweeps.
func TestStatusListenerAnswersByHost(t *testing.T) {
	l, err := startStatusListener()
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	p := generate(3, 1, 8, 8, l.port)
	if err := l.answer(p.cluster); err != nil {
		t.Fatal(err)
	}
	inv := nodestatus.HTTPInvoker{Client: &http.Client{Timeout: 5 * time.Second}}
	mark := l.mark()
	for i, uri := range p.nodeStatus.AccessURIs() {
		resp, err := inv.Invoke(uri)
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
		if s := p.cluster.samples[i]; resp.Host != p.cluster.hosts[i] || resp.Load != s.load || resp.MemoryB != s.memoryB {
			t.Errorf("host %d answered %+v, want %+v", i, resp, s)
		}
	}
	if sweeps := l.sweepsSince(mark); len(sweeps) != 1 || sweeps[0] <= 0 {
		t.Errorf("eight back-to-back calls are one sweep, got %v", sweeps)
	}
	if _, err := inv.Invoke(fmt.Sprintf("http://127.0.9.9:%d/NodeStatus/NodeStatusService", l.port)); err == nil {
		t.Error("a host outside the cluster was answered")
	}
}
