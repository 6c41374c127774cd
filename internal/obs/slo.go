// slo.go derives multi-window burn rates from the cumulative discovery
// counters, Google-SRE style: a burn rate of 1 means the error budget is
// being consumed exactly as fast as the SLO allows; sustained rates far
// above 1 on the short window mean the budget will be gone within hours.
// Samples are cut each collector sweep on the registry clock (wall or
// simulated), so the engine is deterministic under simclock tests.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// SLOConfig fixes the objectives the burn rates are computed against.
type SLOConfig struct {
	// AvailabilityTarget is the success-rate objective, e.g. 0.999.
	AvailabilityTarget float64
	// LatencyObjectiveSeconds is the latency threshold, e.g. 0.25.
	LatencyObjectiveSeconds float64
	// LatencyTargetQuantile is the fraction of requests that must land
	// at or below the threshold, e.g. 0.99.
	LatencyTargetQuantile float64
	// Windows are the lookback spans burn rates are reported over.
	Windows []SLOWindow
}

// SLOWindow is one burn-rate lookback span.
type SLOWindow struct {
	Name string
	Span time.Duration
}

// DefaultSLOConfig is the registry's stock objective: 99.9% of discovery
// requests succeed and 99% finish within 250ms (the top finite bucket of
// the discovery latency histogram), judged over 5-minute and 1-hour
// windows.
func DefaultSLOConfig() SLOConfig {
	return SLOConfig{
		AvailabilityTarget:      0.999,
		LatencyObjectiveSeconds: 0.25,
		LatencyTargetQuantile:   0.99,
		Windows: []SLOWindow{
			{Name: "5m", Span: 5 * time.Minute},
			{Name: "1h", Span: time.Hour},
		},
	}
}

// sloSample is one cumulative-counter cut.
type sloSample struct {
	at                          time.Time
	total, errors, latCnt, slow int64
}

// sloRingSize bounds sample history. At a 10s sweep period it holds ~11
// hours; a window longer than the retained history is judged over all of
// it (the standard young-process approximation).
const sloRingSize = 4096

// SLOBurn is one window's burn-rate pair.
type SLOBurn struct {
	Availability float64 `json:"availability"`
	Latency      float64 `json:"latency"`
}

// SLO turns cumulative counter cuts into per-window burn rates. Safe on
// a nil receiver.
type SLO struct {
	cfg SLOConfig

	mu      sync.Mutex
	samples [sloRingSize]sloSample
	n       int // samples ever recorded

	burns atomic.Pointer[map[string]SLOBurn]
}

// NewSLO creates a burn-rate engine for cfg.
func NewSLO(cfg SLOConfig) *SLO {
	s := &SLO{cfg: cfg}
	zero := make(map[string]SLOBurn, len(cfg.Windows))
	for _, w := range cfg.Windows {
		zero[w.Name] = SLOBurn{}
	}
	s.burns.Store(&zero)
	return s
}

// Config returns the objectives the engine judges against.
func (s *SLO) Config() SLOConfig {
	if s == nil {
		return SLOConfig{}
	}
	return s.cfg
}

// Record cuts one sample of the cumulative discovery counters at now:
// requests served, requests failed, latency observations, and latency
// observations above the objective. It recomputes every window's burn
// rates so scrapes are pure loads.
func (s *SLO) Record(now time.Time, total, errors, latCnt, slow int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples[s.n%sloRingSize] = sloSample{at: now, total: total, errors: errors, latCnt: latCnt, slow: slow}
	s.n++
	next := make(map[string]SLOBurn, len(s.cfg.Windows))
	for _, w := range s.cfg.Windows {
		base := s.baselineLocked(now.Add(-w.Span))
		next[w.Name] = SLOBurn{
			Availability: burnRate(errors-base.errors, total-base.total, 1-s.cfg.AvailabilityTarget),
			Latency:      burnRate(slow-base.slow, latCnt-base.latCnt, 1-s.cfg.LatencyTargetQuantile),
		}
	}
	s.burns.Store(&next)
}

// baselineLocked returns the newest retained sample at or before cutoff,
// or the zero sample when history is shorter than the window.
func (s *SLO) baselineLocked(cutoff time.Time) sloSample {
	retained := s.n
	if retained > sloRingSize {
		retained = sloRingSize
	}
	// Walk newest to oldest; samples are recorded in time order.
	for i := 1; i <= retained; i++ {
		smp := s.samples[(s.n-i)%sloRingSize]
		if !smp.at.After(cutoff) {
			return smp
		}
	}
	return sloSample{}
}

// burnRate is (bad/total) / budget: the rate the error budget is being
// consumed relative to the objective. An empty window burns nothing.
func burnRate(bad, total int64, budget float64) float64 {
	if total <= 0 || budget <= 0 {
		return 0
	}
	if bad < 0 {
		bad = 0
	}
	return (float64(bad) / float64(total)) / budget
}

// BurnRates returns the most recent per-window burn rates.
func (s *SLO) BurnRates() map[string]SLOBurn {
	if s == nil {
		return map[string]SLOBurn{}
	}
	return *s.burns.Load()
}
