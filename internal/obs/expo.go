package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Exposition renders registered metrics in the Prometheus text exposition
// format (version 0.0.4) without any client library: each registration
// binds a metric family to a closure that reads the live value at scrape
// time, so the instrumented components keep their own counters (the
// internal/metrics atomics) and pay nothing between scrapes.
//
// Registration happens once at registry construction; WriteTo may then be
// called concurrently from any number of scrapes.
type Exposition struct {
	families []*family
	byName   map[string]*family
}

// family is one metric name: HELP/TYPE header plus its sample sources.
type family struct {
	name, help, typ string
	// plain samples: fixed label (possibly empty) -> value closure.
	samples []expoSample
	// vec, when non-nil, yields a dynamic label-value -> value map.
	vecLabel string
	vec      func() map[string]float64
	// hist, when non-nil, is a histogram family.
	hist *Histogram
	// children marks a family registered through LabelledCounter, the one
	// registration that may repeat.
	children bool
}

type expoSample struct {
	labels string // pre-rendered {k="v"} clause, or ""
	fn     func() float64
}

var metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// snakeCase is the shape every registered family name must have:
// lowercase ASCII segments joined by single underscores.
var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// NewExposition creates an empty exposition.
func NewExposition() *Exposition {
	return &Exposition{byName: make(map[string]*family)}
}

// familyFor registers the family name of type typ and enforces the naming
// conventions at the one place every family passes through, so a family
// that would go out misnamed — and bind dashboards and alerts to the wrong
// name for good — panics at registry construction instead:
//
//   - every name is snake_case;
//   - a counter ends in _total;
//   - a gauge ends in neither _total (counter semantics) nor _count
//     (a histogram series);
//   - a histogram carries its base unit (_seconds, _bytes or _ratio), since
//     its _sum is meaningless without one;
//   - a family is registered once. LabelledCounter (child true) is the
//     exception: it adds one labelled child per call, so repeated calls for
//     the same family are how its label values are enumerated.
func (e *Exposition) familyFor(name, help, typ string, child bool) *family {
	if !snakeCase.MatchString(name) {
		panic("obs: metric family " + strconv.Quote(name) + " is not snake_case (lowercase segments joined by single underscores)")
	}
	switch typ {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			panic("obs: counter family " + strconv.Quote(name) + " must end in _total")
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") {
			panic("obs: gauge family " + strconv.Quote(name) + " must not end in _total (that suffix claims counter semantics)")
		}
		if strings.HasSuffix(name, "_count") {
			panic("obs: gauge family " + strconv.Quote(name) + " must not end in _count (that suffix claims histogram-series semantics)")
		}
	case "histogram":
		if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") && !strings.HasSuffix(name, "_ratio") {
			panic("obs: histogram family " + strconv.Quote(name) + " needs a base-unit suffix (_seconds, _bytes, _ratio)")
		}
	}
	if f, ok := e.byName[name]; ok {
		if !child || !f.children {
			panic("obs: metric family " + strconv.Quote(name) + " already registered as a " + f.typ)
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, children: child}
	e.families = append(e.families, f)
	e.byName[name] = f
	return f
}

// Counter registers a monotonic counter read from fn at scrape time.
func (e *Exposition) Counter(name, help string, fn func() int64) {
	f := e.familyFor(name, help, "counter", false)
	f.samples = append(f.samples, expoSample{fn: func() float64 { return float64(fn()) }})
}

// LabelledCounter registers one labelled child of a counter family, e.g.
// verdicts_total{verdict="eligible"}. Children registered under the same
// name share one HELP/TYPE header.
func (e *Exposition) LabelledCounter(name, help, label, value string, fn func() int64) {
	f := e.familyFor(name, help, "counter", true)
	f.samples = append(f.samples, expoSample{
		labels: renderLabels(label, value),
		fn:     func() float64 { return float64(fn()) },
	})
}

// Gauge registers an instantaneous value read from fn at scrape time.
func (e *Exposition) Gauge(name, help string, fn func() float64) {
	f := e.familyFor(name, help, "gauge", false)
	f.samples = append(f.samples, expoSample{fn: fn})
}

// CounterVec registers a counter family whose children are the entries of
// the map fn returns at scrape time, labelled by label (e.g. per-host
// discovery assignment counts, where the host set is only known at
// runtime).
func (e *Exposition) CounterVec(name, help, label string, fn func() map[string]int64) {
	f := e.familyFor(name, help, "counter", false)
	f.vecLabel = label
	f.vec = func() map[string]float64 {
		m := fn()
		out := make(map[string]float64, len(m))
		for k, v := range m {
			out[k] = float64(v)
		}
		return out
	}
}

// GaugeVec registers a gauge family whose children are the entries of the
// map fn returns at scrape time, labelled by label (e.g. per-host breaker
// states).
func (e *Exposition) GaugeVec(name, help, label string, fn func() map[string]float64) {
	f := e.familyFor(name, help, "gauge", false)
	f.vecLabel, f.vec = label, fn
}

// RegisterHistogram exposes h as a Prometheus histogram family.
func (e *Exposition) RegisterHistogram(name, help string, h *Histogram) {
	f := e.familyFor(name, help, "histogram", false)
	f.hist = h
}

// WriteTo renders every registered family, in registration order, in the
// text exposition format.
func (e *Exposition) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	for _, f := range e.families {
		fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.samples {
			fmt.Fprintf(&sb, "%s%s %s\n", f.name, s.labels, formatValue(s.fn()))
		}
		if f.vec != nil {
			m := f.vec()
			keys := make([]string, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&sb, "%s%s %s\n", f.name, renderLabels(f.vecLabel, k), formatValue(m[k]))
			}
		}
		if f.hist != nil {
			writeHistogram(&sb, f.name, f.hist)
		}
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

func writeHistogram(sb *strings.Builder, name string, h *Histogram) {
	// _count is taken from the bucket total, not the separate counter, so
	// the +Inf bucket always equals _count even when observations race the
	// scrape.
	counts, sum, _ := h.snapshot()
	cum := int64(0)
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatValue(h.bounds[i])
		}
		fmt.Fprintf(sb, "%s_bucket%s %d\n", name, renderLabels("le", le), cum)
	}
	fmt.Fprintf(sb, "%s_sum %s\n", name, formatValue(sum))
	fmt.Fprintf(sb, "%s_count %d\n", name, cum)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func renderLabels(label, value string) string {
	return "{" + label + `="` + labelEscaper.Replace(value) + `"}`
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Histogram is a fixed-bucket histogram safe for concurrent Observe calls
// from request goroutines: bucket counts are atomics and the sum is kept
// as CAS-updated float bits, so observation takes no lock. The exposition
// renders it with cumulative Prometheus bucket semantics.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; implicit +Inf final bucket
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// NewHistogramMetric creates a concurrent histogram with the given
// ascending upper bounds.
func NewHistogramMetric(bounds ...float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// DiscoveryLatencyBuckets are the default upper bounds (seconds) for the
// discovery latency histogram: the in-process fast path sits in the
// microsecond buckets, a cold parse or contended sweep in the millisecond
// ones, and anything beyond 250 ms lands in the overflow bucket.
func DiscoveryLatencyBuckets() []float64 {
	return []float64{
		25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
		1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3,
	}
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// CountAtOrBelow returns how many observations landed in buckets whose
// upper bound is <= bound — the cumulative count Prometheus would report
// for le="bound". The SLO engine uses it to derive the fraction of
// requests beyond the latency objective without a second histogram.
func (h *Histogram) CountAtOrBelow(bound float64) int64 {
	var cum int64
	for i, b := range h.bounds {
		if b > bound {
			break
		}
		cum += h.counts[i].Load()
	}
	return cum
}

// snapshot returns per-bucket (non-cumulative) counts, the sum, and the
// total count. Concurrent observations may land between the loads; the
// scrape is a best-effort view, as with any live histogram.
func (h *Histogram) snapshot() (counts []int64, sum float64, count int64) {
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.Sum(), h.Count()
}
