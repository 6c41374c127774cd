package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogramMetric(0.1, 1, 10)
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-55.65) > 1e-9 {
		t.Fatalf("Sum = %v, want 55.65", h.Sum())
	}
	counts, _, _ := h.snapshot()
	want := []int64{2, 1, 1, 1} // le=0.1 gets 0.05 and 0.1 (upper bounds inclusive)
	for i, c := range counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, c, want[i], counts)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogramMetric(DiscoveryLatencyBuckets()...)
	var wg sync.WaitGroup
	const goroutines, each = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(1e-4)
			}
		}()
	}
	wg.Wait()
	if h.Count() != goroutines*each {
		t.Fatalf("Count = %d, want %d", h.Count(), goroutines*each)
	}
	if math.Abs(h.Sum()-goroutines*each*1e-4) > 1e-6 {
		t.Fatalf("Sum = %v", h.Sum())
	}
}

func TestExpositionRoundTrip(t *testing.T) {
	e := NewExposition()
	e.Counter("registry_cache_hits_total", "Cache hits.", func() int64 { return 42 })
	e.LabelledCounter("registry_verdicts_total", "Verdicts.", "verdict", "eligible", func() int64 { return 7 })
	e.LabelledCounter("registry_verdicts_total", "Verdicts.", "verdict", "unknown", func() int64 { return 3 })
	e.Gauge("registry_rows", "Rows.", func() float64 { return 12.5 })
	e.GaugeVec("registry_breaker_state", "Breaker state per host.", "host", func() map[string]float64 {
		return map[string]float64{"h1:8080": 0, `h"2\x`: 2}
	})
	h := NewHistogramMetric(0.001, 0.01)
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)
	e.RegisterHistogram("registry_latency_seconds", "Latency.", h)

	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	text := buf.String()
	s, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("round-trip parse failed: %v\n%s", err, text)
	}
	check := func(name string, labels map[string]string, want float64) {
		t.Helper()
		got, ok := s.Value(name, labels)
		if !ok {
			t.Fatalf("missing sample %s %v in:\n%s", name, labels, text)
		}
		if got != want {
			t.Fatalf("%s %v = %v, want %v", name, labels, got, want)
		}
	}
	check("registry_cache_hits_total", nil, 42)
	check("registry_verdicts_total", map[string]string{"verdict": "eligible"}, 7)
	check("registry_verdicts_total", map[string]string{"verdict": "unknown"}, 3)
	check("registry_rows", nil, 12.5)
	check("registry_breaker_state", map[string]string{"host": "h1:8080"}, 0)
	check("registry_breaker_state", map[string]string{"host": `h"2\x`}, 2)
	check("registry_latency_seconds_bucket", map[string]string{"le": "0.001"}, 1)
	check("registry_latency_seconds_bucket", map[string]string{"le": "0.01"}, 2)
	check("registry_latency_seconds_bucket", map[string]string{"le": "+Inf"}, 3)
	check("registry_latency_seconds_count", nil, 3)
	if f := s.Families["registry_verdicts_total"]; f.Type != "counter" || f.Help != "Verdicts." {
		t.Fatalf("family headers = %+v", f)
	}
	// One HELP/TYPE pair per family even with multiple children.
	if n := strings.Count(text, "# TYPE registry_verdicts_total"); n != 1 {
		t.Fatalf("TYPE header appears %d times", n)
	}
}

// TestExpositionPanicsOnBadRegistration holds every naming rule where
// families are registered: each case's last registration must panic with a
// message naming the rule it breaks.
func TestExpositionPanicsOnBadRegistration(t *testing.T) {
	c := func() int64 { return 0 }
	g := func() float64 { return 0 }
	dynamic := "registry_" + strings.ToLower("Dynamic") // a name no literal check could see
	for _, tc := range []struct {
		name string
		reg  func(e *Exposition)
		want string
	}{
		{"counter without _total", func(e *Exposition) { e.Counter("registry_requests", "", c) }, `counter family "registry_requests" must end in _total`},
		{"labelled counter without _total", func(e *Exposition) { e.LabelledCounter("registry_hits", "", "k", "v", c) }, `counter family "registry_hits" must end in _total`},
		{"counter vec without _total", func(e *Exposition) { e.CounterVec("registry_assignments", "", "host", nil) }, `counter family "registry_assignments" must end in _total`},
		{"gauge ending _total", func(e *Exposition) { e.Gauge("registry_open_total", "", g) }, `gauge family "registry_open_total" must not end in _total`},
		{"gauge ending _count", func(e *Exposition) { e.Gauge("registry_segment_count", "", g) }, `gauge family "registry_segment_count" must not end in _count`},
		{"gauge vec ending _total", func(e *Exposition) { e.GaugeVec("registry_depth_total", "", "class", nil) }, `gauge family "registry_depth_total" must not end in _total`},
		{"histogram without unit", func(e *Exposition) { e.RegisterHistogram("registry_latency", "", nil) }, `histogram family "registry_latency" needs a base-unit suffix`},
		{"camel case", func(e *Exposition) { e.Counter("RegistryRequests_total", "", c) }, `metric family "RegistryRequests_total" is not snake_case`},
		{"double underscore", func(e *Exposition) { e.Counter("registry__double_total", "", c) }, `metric family "registry__double_total" is not snake_case`},
		{"space", func(e *Exposition) { e.Counter("bad name", "", c) }, `metric family "bad name" is not snake_case`},
		{"counter over a gauge", func(e *Exposition) {
			e.Gauge("registry_rows", "", g)
			e.Counter("registry_rows", "", c)
		}, `counter family "registry_rows" must end in _total`},
		{"gauge registered twice", func(e *Exposition) {
			e.Gauge("registry_rows", "", g)
			e.Gauge("registry_rows", "", g)
		}, `metric family "registry_rows" already registered as a gauge`},
		{"type conflict", func(e *Exposition) {
			e.Counter("ok_total", "", c)
			e.LabelledCounter("ok_total", "", "k", "v", c)
		}, `metric family "ok_total" already registered as a counter`},
		{"dynamic name", func(e *Exposition) { e.Counter(dynamic, "", c) }, `counter family "registry_dynamic" must end in _total`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want one naming %q", msg, tc.want)
				}
			}()
			tc.reg(NewExposition())
		})
	}
}

// TestExpositionAcceptsConventionalNames registers well-named families of
// every kind, the labelled-counter enumeration idiom included, without a
// panic.
func TestExpositionAcceptsConventionalNames(t *testing.T) {
	e := NewExposition()
	c := func() int64 { return 0 }
	g := func() float64 { return 0 }
	h := NewHistogramMetric(1)
	e.Counter("registry_requests_total", "", c)
	e.CounterVec("registry_balance_assignments_total", "", "host", nil)
	e.Gauge("registry_wal_segments", "", g)
	e.Gauge("registry_snapshot_age_seconds", "", g)
	e.GaugeVec("registry_slo_availability_burn_rate", "", "window", nil)
	e.RegisterHistogram("registry_discovery_latency_seconds", "", h)
	e.RegisterHistogram("registry_wal_segment_bytes", "", h)
	e.RegisterHistogram("registry_hit_ratio", "", h)
	e.GaugeVec("registry_wal_recovery_seconds", "", "phase", nil)
	e.GaugeVec("registry_repl_position", "", "part", nil)
	e.Gauge("registry_repl_lag_records", "", g)
	e.Gauge("registry_repl_lag_seconds", "", g)
	e.Gauge("registry_repl_connected", "", g)
	e.Counter("registry_repl_applied_total", "", c)
	e.Counter("registry_repl_streams_total", "", c)
	e.Counter("registry_repl_errors_total", "", c)
	for _, v := range []string{"stock", "degraded", "fallback"} {
		e.LabelledCounter("registry_verdicts_total", "", "verdict", v, c)
	}
	for _, enc := range []string{"json", "soap"} {
		e.LabelledCounter("registry_respcache_renders_total", "", "encoding", enc, c)
	}
	if len(e.families) != 18 {
		t.Fatalf("%d families registered, want 18", len(e.families))
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE": "orphan_total 1\n",
		"bad value":           "# TYPE m counter\nm abc\n",
		"bad type":            "# TYPE m widget\nm 1\n",
		"duplicate sample":    "# TYPE m counter\nm 1\nm 2\n",
		"dup labelled":        "# TYPE m counter\nm{a=\"x\"} 1\nm{a=\"x\"} 2\n",
		"unterminated label":  "# TYPE m counter\nm{a=\"x 1\n",
		"unquoted label":      "# TYPE m counter\nm{a=x} 1\n",
		"non-cumulative hist": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"inf mismatch":        "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
		"hist missing count":  "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\n",
		"bucket without le":   "# TYPE h histogram\nh_bucket{x=\"1\"} 3\nh_sum 1\nh_count 3\n",
		"type after samples":  "# HELP m x\nm 1\n# TYPE m counter\n",
		"bad header name":     "# TYPE 9bad counter\n",
	}
	for name, doc := range cases {
		if _, err := ParseExposition(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: parse accepted malformed input:\n%s", name, doc)
		}
	}
}

func TestParseAcceptsEscapesAndComments(t *testing.T) {
	doc := "# scrape generated for test\n" +
		"# HELP m A help with \\\\ backslash\n" +
		"# TYPE m gauge\n" +
		"m{path=\"a\\\\b\\\"c\\nd\"} 1 1650000000000\n" +
		"\n" +
		"# TYPE inf gauge\ninf +Inf\nneg -Inf\n"
	// neg has no TYPE of its own — move it under a declared family instead.
	doc = strings.Replace(doc, "neg -Inf\n", "", 1)
	s, err := ParseExposition(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	v, ok := s.Value("m", map[string]string{"path": "a\\b\"c\nd"})
	if !ok || v != 1 {
		t.Fatalf("escaped label sample = %v, %v", v, ok)
	}
	if v, ok := s.Value("inf", nil); !ok || !math.IsInf(v, 1) {
		t.Fatalf("inf sample = %v, %v", v, ok)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"WARN": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Error("ParseLevel(verbose) should fail")
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "warn", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hidden")
	lg.Warn("shown", "component", "test")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json log output unparseable: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "shown" || rec["component"] != "test" {
		t.Fatalf("record = %v", rec)
	}
	if strings.Contains(buf.String(), "hidden") {
		t.Fatal("info record leaked past warn level")
	}

	buf.Reset()
	lg, err = NewLogger(&buf, "info", "text")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hello")
	if !strings.Contains(buf.String(), "msg=hello") {
		t.Fatalf("text output = %q", buf.String())
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Fatal("bad format should fail")
	}
	if _, err := NewLogger(&buf, "loud", "text"); err == nil {
		t.Fatal("bad level should fail")
	}
}

func TestNopLoggerAndOrNop(t *testing.T) {
	lg := NopLogger()
	if lg.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("nop logger claims Enabled")
	}
	lg.Error("goes nowhere", "k", "v") // must not panic
	if OrNop(nil) == nil {
		t.Fatal("OrNop(nil) = nil")
	}
	real := slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil))
	if OrNop(real) != real {
		t.Fatal("OrNop should pass through non-nil loggers")
	}
}
