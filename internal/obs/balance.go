// balance.go measures how well the registry's discovery decisions spread
// clients across hosts — the paper's central claim. The decision path
// bumps a per-host assignment counter (lock-free after the first sweep);
// each collector sweep rolls the counts up into Jain's fairness index and
// a capacity-weighted skew, so the exported gauges describe the *recent*
// assignment mix, not the since-boot average, and recover visibly after a
// quarantine or surge ends.
package obs

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// StalenessBuckets are the upper bounds (seconds) for the decision
// staleness histogram: how old the NodeState snapshot behind each served
// discovery answer was. Sub-second buckets cover a healthy collector;
// the upper ones show brownout ExtraStaleness at work.
func StalenessBuckets() []float64 {
	return []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
}

// Balance accumulates per-host assignment counts and publishes rollup
// aggregates. NoteAssignment and NoteStaleness are safe on a nil receiver
// so callers need no guard on the hot path.
type Balance struct {
	assignments metrics.CounterSet
	staleness   *Histogram
	rollups     metrics.Counter

	mu   sync.Mutex       // serialises Rollup
	prev map[string]int64 // assignment counts at the previous rollup

	fairnessBits atomic.Uint64
	skewBits     atomic.Uint64
}

// NewBalance creates a balance tracker. Fairness starts at 1 (a registry
// that has assigned nothing is trivially fair) and skew at 1.
func NewBalance() *Balance {
	b := &Balance{staleness: NewHistogramMetric(StalenessBuckets()...)}
	b.fairnessBits.Store(math.Float64bits(1))
	b.skewBits.Store(math.Float64bits(1))
	return b
}

// NoteAssignment counts one discovery answer that directed a client to
// host.
func (b *Balance) NoteAssignment(host string) {
	if b == nil || host == "" {
		return
	}
	b.assignments.Inc(host)
}

// NoteStaleness records how old the snapshot behind one decision was.
func (b *Balance) NoteStaleness(seconds float64) {
	if b == nil {
		return
	}
	b.staleness.Observe(seconds)
}

// Rollup folds the assignments since the previous rollup into the
// fairness and skew gauges. weights carries each host's capacity proxy
// (missing or non-positive entries weigh 1); hosts that received no
// assignments in the interval but have weight still count, with share
// zero, so a starved host *lowers* fairness rather than vanishing. An
// interval with no assignments at all keeps the previous aggregates —
// an idle registry is not suddenly unfair.
func (b *Balance) Rollup(weights map[string]float64) {
	if b == nil {
		return
	}
	snap := b.assignments.Snapshot()
	b.mu.Lock()
	defer b.mu.Unlock()
	var total int64
	deltas := make(map[string]int64, len(snap))
	for host, n := range snap {
		d := n - b.prev[host]
		deltas[host] = d
		total += d
	}
	for host := range weights {
		if _, ok := deltas[host]; !ok {
			deltas[host] = 0
		}
	}
	b.prev = snap
	b.rollups.Inc()
	if total <= 0 {
		return
	}
	xs := make([]float64, 0, len(deltas))
	for _, d := range deltas {
		xs = append(xs, float64(d))
	}
	b.fairnessBits.Store(math.Float64bits(metrics.JainFairness(xs)))
	b.skewBits.Store(math.Float64bits(capacitySkew(deltas, weights, total)))
}

// capacitySkew is the worst-case ratio of a host's assignment share to
// its capacity share: 1 means every host got exactly its capacity-
// proportional cut, 2 means some host got double its due. Hosts without
// a weight entry weigh 1, so with no capacity data the skew degenerates
// to share/equal-share — raw imbalance.
func capacitySkew(deltas map[string]int64, weights map[string]float64, total int64) float64 {
	var totalW float64
	for host := range deltas {
		totalW += weightOf(weights, host)
	}
	if totalW <= 0 {
		return 1
	}
	skew := 0.0
	for host, d := range deltas {
		share := float64(d) / float64(total)
		capShare := weightOf(weights, host) / totalW
		if capShare <= 0 {
			continue
		}
		if r := share / capShare; r > skew {
			skew = r
		}
	}
	if skew == 0 {
		return 1
	}
	return skew
}

func weightOf(weights map[string]float64, host string) float64 {
	if w, ok := weights[host]; ok && w > 0 {
		return w
	}
	return 1
}

// FairnessIndex returns the Jain's fairness index of the most recent
// non-idle rollup interval (1 = perfectly even).
func (b *Balance) FairnessIndex() float64 {
	if b == nil {
		return 1
	}
	return math.Float64frombits(b.fairnessBits.Load())
}

// CapacitySkew returns the capacity-weighted skew of the most recent
// non-idle rollup interval (1 = capacity-proportional).
func (b *Balance) CapacitySkew() float64 {
	if b == nil {
		return 1
	}
	return math.Float64frombits(b.skewBits.Load())
}

// Rollups returns how many rollups have run.
func (b *Balance) Rollups() int64 {
	if b == nil {
		return 0
	}
	return b.rollups.Value()
}

// AssignmentsSnapshot returns the since-boot per-host assignment counts.
func (b *Balance) AssignmentsSnapshot() map[string]int64 {
	if b == nil {
		return map[string]int64{}
	}
	return b.assignments.Snapshot()
}

// StalenessHistogram exposes the decision-staleness histogram for
// registration.
func (b *Balance) StalenessHistogram() *Histogram { return b.staleness }
