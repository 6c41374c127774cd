// Package metricnamesclean is the negative fixture: well-named
// registrations, the labelled-counter enumeration pattern, receivers that
// are not an Exposition, and a dynamic name the analyzer must skip.
package metricnamesclean

type Exposition struct{}

func (e *Exposition) Counter(name, help string, fn func() int64)                       {}
func (e *Exposition) LabelledCounter(name, help, label, value string, fn func() int64) {}
func (e *Exposition) CounterVec(name, help, label string, fn func() map[string]int64)  {}
func (e *Exposition) Gauge(name, help string, fn func() float64)                       {}
func (e *Exposition) GaugeVec(name, help, label string, fn func() map[string]float64)  {}
func (e *Exposition) RegisterHistogram(name, help string, h *struct{})                 {}

func register(e *Exposition) {
	e.Counter("registry_requests_total", "", nil)
	e.CounterVec("registry_balance_assignments_total", "", "host", nil)
	e.Gauge("registry_wal_segments", "", nil)
	e.Gauge("registry_snapshot_age_seconds", "", nil)
	e.GaugeVec("registry_slo_availability_burn_rate", "", "window", nil)
	e.RegisterHistogram("registry_discovery_latency_seconds", "", nil)
	e.RegisterHistogram("registry_wal_segment_bytes", "", nil)
	e.RegisterHistogram("registry_hit_ratio", "", nil)
	e.GaugeVec("registry_wal_recovery_seconds", "", "phase", nil)

	// The replication families: gauges stay bare (position, lag,
	// connected), counters end in _total.
	e.GaugeVec("registry_repl_position", "", "part", nil)
	e.Gauge("registry_repl_lag_records", "", nil)
	e.Gauge("registry_repl_lag_seconds", "", nil)
	e.Gauge("registry_repl_connected", "", nil)
	e.Counter("registry_repl_applied_total", "", nil)
	e.Counter("registry_repl_streams_total", "", nil)
	e.Counter("registry_repl_errors_total", "", nil)

	// One child per label value: repeated LabelledCounter registrations of
	// the same family are the enumeration idiom, not a conflict.
	e.LabelledCounter("registry_verdicts_total", "", "verdict", "stock", nil)
	e.LabelledCounter("registry_verdicts_total", "", "verdict", "degraded", nil)
	e.LabelledCounter("registry_verdicts_total", "", "verdict", "fallback", nil)

	// A loop over label values reaches the same call site once per value.
	for _, enc := range []string{"json", "soap"} {
		e.LabelledCounter("registry_respcache_renders_total", "", "encoding", enc, nil)
	}

	// A runtime-built name cannot be checked statically.
	name := "registry_" + suffix()
	e.Counter(name, "", nil)
}

func suffix() string { return "dynamic" }

// notExpo has the same method set but a different type name; the analyzer
// must leave it alone.
type notExpo struct{}

func (notExpo) Counter(name, help string, fn func() int64) {}
func (notExpo) Gauge(name, help string, fn func() float64) {}

func other() {
	var n notExpo
	n.Counter("whatever", "", nil)
	n.Gauge("also_total", "", nil)
}
