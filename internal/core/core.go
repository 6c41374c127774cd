// Package core implements the thesis's primary contribution: the modified
// discovery path of freebXML's ServiceDAO / ServiceBindingDAO / LoadStatus
// classes (Figs. 3.5–3.6). When a Web Service is looked up, the registry
//
//  1. asks ServiceConstraint whether the service's description carries a
//     valid <constraint> block and whether its time-of-day window admits
//     the current time, and if so
//  2. asks LoadStatus which deployment hosts currently satisfy the
//     resource constraints, by consulting the NodeState table the
//     collector maintains, and
//  3. arranges the service's bindings so that "hosts that currently
//     provide optimal service conditions are given preference over the
//     ones that don't" (§3.2) — or are excluded outright.
//
// The thesis describes both a strict filter ("access URIs of only those
// hosts that satisfy these performance constraints are returned") and a
// reordering ("we rearrange the access URI ... given preference"); the
// Policy type exposes both behaviours plus a least-loaded refinement so
// the experiment harness can ablate the choice (DESIGN.md, ablation 1).
package core

import (
	"time"

	"repro/internal/constraint"
	"repro/internal/flight"
	"repro/internal/store"
)

// Policy selects how constrained bindings are arranged at discovery time.
type Policy int

// Arrangement policies.
const (
	// PolicyStock is the unmodified freebXML behaviour: bindings in
	// stored order, constraints ignored. This is the baseline the thesis
	// motivates against (§3.2: "increased load on one particular host").
	PolicyStock Policy = iota
	// PolicyFilter returns only the bindings whose hosts satisfy the
	// constraints, in stored order — the thesis's primary description.
	PolicyFilter
	// PolicyRankFirst returns satisfying bindings first (stored order),
	// then hosts with unknown state, then unsatisfying hosts — the
	// thesis's "rearrange ... given preference" reading.
	PolicyRankFirst
	// PolicyLeastLoaded returns satisfying bindings ordered by ascending
	// observed CPU load, then unknown-state hosts; unsatisfying hosts are
	// dropped. This is the refinement ablated in EXPERIMENTS.md.
	PolicyLeastLoaded
)

// String names the policy for reports.
func (p Policy) String() string {
	switch p {
	case PolicyStock:
		return "stock"
	case PolicyFilter:
		return "filter"
	case PolicyRankFirst:
		return "rank-first"
	case PolicyLeastLoaded:
		return "least-loaded"
	default:
		return "unknown-policy"
	}
}

// TimeWindowMode selects what happens when the request time falls outside
// a service's <starttime>/<endtime> window. The thesis's ServiceConstraint
// "returns false ... if the time constraint is not satisfied", which makes
// the discovery path fall through to stock behaviour; a stricter reading
// makes the service unavailable. Both are implemented (ablation 4).
type TimeWindowMode int

// Time-window handling modes.
const (
	// TimeWindowSkipFiltering reproduces the thesis literally: outside
	// the window, resource filtering is skipped and all bindings are
	// returned in stored order.
	TimeWindowSkipFiltering TimeWindowMode = iota
	// TimeWindowExclude treats the service as unavailable outside its
	// window: no bindings are returned.
	TimeWindowExclude
)

// DegradedMode selects what discovery serves when filtering leaves nothing
// at all — every candidate host quarantined, stale, or ineligible and no
// fallback produced output. This is the graceful-degradation policy for a
// cluster that is entirely unhealthy from the collector's point of view.
type DegradedMode int

// Degradation modes.
const (
	// DegradedEmpty preserves the strict behaviour: an empty binding list.
	DegradedEmpty DegradedMode = iota
	// DegradedStatic serves the stored binding order — what vanilla
	// freebXML would return — on the theory that a registry with no
	// health information should behave like one that never collected any.
	DegradedStatic
)

// String names the mode for flags and reports.
func (m DegradedMode) String() string {
	switch m {
	case DegradedEmpty:
		return "empty"
	case DegradedStatic:
		return "static"
	default:
		return "unknown-degraded-mode"
	}
}

// Balancer is the constraint-enforcement engine attached to the registry's
// query path.
type Balancer struct {
	// Table is the NodeState table populated by the nodestate collector.
	Table *store.NodeStateTable
	// Policy selects the arrangement behaviour; the zero value is
	// PolicyStock (no load balancing).
	Policy Policy
	// TimeMode selects out-of-window handling.
	TimeMode TimeWindowMode
	// Freshness, when positive, treats NodeState rows older than this as
	// unknown (ablation 2). Zero disables the staleness cutoff.
	Freshness time.Duration
	// FallbackAll, when true, returns all bindings in ascending-load
	// order if no host satisfies the constraints, instead of an empty
	// list (ablation 3). Quarantined hosts stay excluded from the
	// fallback; only Degraded can resurrect them.
	FallbackAll bool
	// Degraded selects what to serve when filtering and fallback leave
	// nothing (e.g. every host quarantined). The zero value keeps the
	// strict empty answer.
	Degraded DegradedMode
	// SnapshotMaxAge is the staleness guard on the NodeState RCU
	// snapshot: while the published snapshot is no older than this,
	// discovery reads it lock-free even if the collector has written
	// rows since it was taken. Zero keeps reads fully coherent — the
	// snapshot is republished whenever the table has changed.
	SnapshotMaxAge time.Duration
	// Brownout, when non-nil, supplies the degradation overrides of the
	// admission controller's brownout ladder (see internal/admit), read at
	// every arrangement. Nil means no overrides.
	Brownout Brownout
}

// Brownout is what the brownout ladder's current tier means to the
// balancer: extra tolerated NodeState snapshot staleness, and a forced
// static fallback when filtering leaves nothing. *admit.Controller
// implements it from its own tier and configuration.
type Brownout interface {
	ExtraStaleness() time.Duration
	ForceStatic() bool
}

// snapshotMaxAge is the snapshot staleness guard under the current
// overrides.
func (b *Balancer) snapshotMaxAge() time.Duration {
	if b.Brownout == nil {
		return b.SnapshotMaxAge
	}
	return b.SnapshotMaxAge + b.Brownout.ExtraStaleness()
}

// forceStatic reports whether the overrides force the static fallback.
func (b *Balancer) forceStatic() bool {
	return b.Brownout != nil && b.Brownout.ForceStatic()
}

// Verdict classifies one binding's host against the constraints.
type Verdict int

// Binding verdicts.
const (
	VerdictEligible Verdict = iota
	VerdictIneligible
	VerdictUnknown
	// VerdictQuarantined marks a host whose collector breaker is open; it
	// is excluded from every arrangement, including FallbackAll.
	VerdictQuarantined
	numVerdicts
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictEligible:
		return "eligible"
	case VerdictIneligible:
		return "ineligible"
	case VerdictQuarantined:
		return "quarantined"
	default:
		return "unknown"
	}
}

// Decision reports what the balancer did for one discovery, for audit and
// experiments.
type Decision struct {
	// Constraint is the parsed block, nil when the description has none.
	Constraint *constraint.Constraint
	// ConstraintErr is non-nil when a block was present but malformed;
	// the thesis treats this as "no valid constraints" and serves stock
	// order, but the error is surfaced for logging.
	ConstraintErr error
	// TimeWindowOK reports whether the window admitted the request time.
	TimeWindowOK bool
	// Filtered is true when resource filtering actually ran.
	Filtered bool
	// FellBack is true when no host was eligible and FallbackAll served
	// the full load-ordered list.
	FellBack bool
	// Degraded is true when even the fallback produced nothing and the
	// DegradedStatic policy served the stored binding order.
	Degraded bool
	// SnapshotGen is the publish generation of the NodeState snapshot
	// the decision read, for audit: two decisions with the same gen saw
	// the identical host-state world. Zero when resource filtering never
	// consulted the table.
	SnapshotGen uint64
	// FreshUntil is the earliest freshness horizon (Updated + Freshness)
	// over the rows the constraint was evaluated against: past it one of
	// them reads as unknown, so the answer may change with no write and no
	// snapshot movement. Zero when Freshness is off or no row was evaluated.
	FreshUntil time.Time

	// tally counts the bindings by verdict and servedHost is the host of
	// the first URI served; arrange fills both in the loop that classifies,
	// so that accounting an answer — on every cache hit too — scans nothing.
	tally      [numVerdicts]int
	servedHost string
}

// Eligible returns the number of eligible bindings in the decision.
func (d *Decision) Eligible() int { return d.tally[VerdictEligible] }

// Unknown returns the number of unknown-state bindings.
func (d *Decision) Unknown() int { return d.tally[VerdictUnknown] }

// Ineligible returns the number of constraint-failing bindings.
func (d *Decision) Ineligible() int { return d.tally[VerdictIneligible] }

// Quarantined returns the number of breaker-quarantined bindings.
func (d *Decision) Quarantined() int { return d.tally[VerdictQuarantined] }

// ServedHost returns the host of the first URI of the answer the balancer
// arranged — where a client following it lands — or "" when the answer is
// empty or no host was classified for it.
func (d *Decision) ServedHost() string { return d.servedHost }

// ArrangeURIs is the URI-level core of the scheme: given a service
// description (which may embed a constraint block) and the stored-order
// access URIs, it returns the URIs to present, plus the full decision. The
// description is parsed on every call: this is the reference the stored
// view's memoized digest is held against.
func (b *Balancer) ArrangeURIs(description string, uris []string, now time.Time) ([]string, Decision) {
	return b.arrange(store.DiscoveryView{Description: description, URIs: uris}, now, nil)
}

// ArrangeView is the discovery entry point: it arranges a
// store.DiscoveryView, reading the view's digest — memoized when the view
// came from the store — instead of parsing anything.
func (b *Balancer) ArrangeView(view store.DiscoveryView, now time.Time) ([]string, Decision) {
	return b.arrange(view, now, nil)
}

// ArrangeViewTimed is ArrangeView adding the time each step took to st, the
// stage timer of a sampled request's flight record. A nil st is the common
// case (the request was not sampled) and costs only nil-receiver calls,
// keeping the fast path's allocation budget intact.
func (b *Balancer) ArrangeViewTimed(view store.DiscoveryView, now time.Time, st *flight.StageTimer) ([]string, Decision) {
	return b.arrange(view, now, st)
}

// SnapshotMeta returns the generation the NodeState snapshot would have if
// a discovery ran at now — republishing a dirty or stale table exactly as
// arrange would — and the instant that snapshot was taken. The response
// cache keys entries by the generation, so a hit is served without
// consulting the table at all, and the edge stamps flight records with
// both it and how stale that view was.
func (b *Balancer) SnapshotMeta(now time.Time) (gen uint64, taken time.Time) {
	if b.Table == nil {
		return 0, time.Time{}
	}
	snap := b.Table.Snapshot(now, b.snapshotMaxAge())
	return snap.Gen(), snap.Taken()
}

// arrange never returns view.URIs nor reorders it: a stored view's slice is
// shared by every reader of the service, so each answer is a fresh slice.
func (b *Balancer) arrange(view store.DiscoveryView, now time.Time, st *flight.StageTimer) ([]string, Decision) {
	dec := Decision{TimeWindowOK: true}
	uris := view.URIs

	if b.Policy == PolicyStock {
		return stockOrder(uris), dec
	}

	// Step 1: ServiceConstraint — the block as it parsed when this version
	// of the description was first discovered.
	begin := st.Begin()
	dg := view.Digest()
	st.End(flight.StageConstraint, begin)
	if dg.Err != nil {
		// Invalid constraints behave like no constraints (§3.2:
		// "ServiceConstraint returns false if no valid service
		// constraints are specified").
		dec.ConstraintErr = dg.Err
		return stockOrder(uris), dec
	}
	c := dg.Constraint
	if c.IsZero() {
		return stockOrder(uris), dec
	}
	dec.Constraint = c

	// Step 2: the time-of-day window is validated at request time.
	if !c.TimeSatisfied(now) {
		dec.TimeWindowOK = false
		switch b.TimeMode {
		case TimeWindowExclude:
			return nil, dec
		default:
			return stockOrder(uris), dec
		}
	}
	if !c.HasResourceClauses() {
		// Window-only constraint and the window is open.
		return stockOrder(uris), dec
	}

	// Step 3: LoadStatus — classify each host against NodeState. Hosts are
	// read from an immutable RCU snapshot (one atomic load in the steady
	// state) so discovery never contends with a collector sweep. Every URI
	// gets its row at its own index of a stack scratch that holds only what
	// the arrangement below reads; the verdicts are tallied here, once.
	dec.Filtered = true
	begin = st.Begin()
	snap := b.Table.Snapshot(now, b.snapshotMaxAge())
	st.End(flight.StageSnapshot, begin)
	dec.SnapshotGen = snap.Gen()
	begin = st.Begin()
	var scratch [64]classified
	rows := scratch[:0]
	for i := range uris {
		var cl classified
		row, ok := snap.Get(dg.Hosts[i])
		switch {
		case ok && row.Health == store.HealthQuarantined:
			// An open collector breaker: the host takes no part in any
			// arrangement, fallback included.
			cl.verdict = VerdictQuarantined
		case !ok || row.Failures != 0 || (b.Freshness > 0 && now.Sub(row.Updated) > b.Freshness):
			cl.verdict = VerdictUnknown
		default:
			cl.load = row.Load
			sample := constraint.Sample{Load: row.Load, MemoryB: row.MemoryB, SwapB: row.SwapB, NetDelayMs: row.NetDelayMs}
			if c.SatisfiedBy(sample) {
				cl.verdict = VerdictEligible
			} else {
				cl.verdict = VerdictIneligible
			}
			if b.Freshness > 0 {
				if h := row.Updated.Add(b.Freshness); dec.FreshUntil.IsZero() || h.Before(dec.FreshUntil) {
					dec.FreshUntil = h
				}
			}
		}
		dec.tally[cl.verdict]++
		rows = append(rows, cl)
	}
	st.End(flight.StageEvaluate, begin)

	// Step 4: arrange per policy. order holds indexes into rows, in serving
	// order; a service's bindings are few enough to keep it on the stack.
	begin = st.Begin()
	var stack [64]int
	order := stack[:0]
	switch b.Policy {
	case PolicyFilter:
		order = pick(order, rows, VerdictEligible)
	case PolicyRankFirst:
		order = pick(order, rows, VerdictEligible)
		order = pick(order, rows, VerdictUnknown)
		order = pick(order, rows, VerdictIneligible)
	case PolicyLeastLoaded:
		order = pick(order, rows, VerdictEligible)
		sortByLoad(order, rows)
		order = pick(order, rows, VerdictUnknown)
	default:
		for i := range rows {
			order = append(order, i)
		}
	}

	if len(order) == 0 && b.FallbackAll && dec.tally[VerdictQuarantined] < len(rows) {
		dec.FellBack = true
		for i := range rows {
			if rows[i].verdict != VerdictQuarantined {
				order = append(order, i)
			}
		}
		sortByLoad(order, rows)
	}
	// An empty least-loaded answer has always been nil — "uris": null on the
	// wire, where the other policies say [] — and clients can tell.
	var out []string
	if len(order) > 0 || b.Policy != PolicyLeastLoaded {
		out = make([]string, len(order))
	}
	for k, i := range order {
		out[k] = uris[i]
	}
	if len(order) > 0 {
		dec.servedHost = dg.Hosts[order[0]]
	}

	// Step 5: graceful degradation — when nothing at all survived (e.g.
	// every host quarantined), DegradedStatic serves the stored order as
	// vanilla freebXML would, rather than an empty answer. The brownout
	// ladder's TierStatic forces the same behaviour under sustained
	// overload; the two compose idempotently (one degradation, not two).
	if len(out) == 0 && (b.Degraded == DegradedStatic || b.forceStatic()) {
		dec.Degraded = true
		out = stockOrder(uris)
		if len(uris) > 0 {
			dec.servedHost = dg.Hosts[0]
		}
	}
	st.End(flight.StageArrange, begin)
	return out, dec
}

// stockOrder copies uris so callers can serve the stored order without
// aliasing the (shared, immutable) view slice.
func stockOrder(uris []string) []string {
	return append([]string(nil), uris...)
}

// classified is one URI's row in arrange's scratch: its verdict and, when
// the constraint was evaluated against a fresh NodeState row, that row's
// load.
type classified struct {
	verdict Verdict
	load    float64
}

// pick appends to order the indexes of the rows with verdict v, in stored
// order.
func pick(order []int, rows []classified, v Verdict) []int {
	for i := range rows {
		if rows[i].verdict == v {
			order = append(order, i)
		}
	}
	return order
}

// sortByLoad stable-sorts order — indexes into rows — in place: rows with a
// freshly collected load first, in ascending load order; the others keep
// their relative order after them. An insertion sort keeps the hot path
// free of sort.SliceStable's interface boxing and less-func closure —
// candidate sets are a service's bindings (a handful), where it also beats
// the general algorithm outright.
func sortByLoad(order []int, rows []classified) {
	for i := 1; i < len(order); i++ {
		cur := order[i]
		j := i
		for j > 0 && lessLoad(&rows[cur], &rows[order[j-1]]) {
			order[j] = order[j-1]
			j--
		}
		order[j] = cur
	}
}

// lessLoad orders a strictly before b: rows with a collected load precede
// those without, collected loads ascend, and the others tie (so the
// insertion sort leaves their stored order untouched — stability).
func lessLoad(a, b *classified) bool {
	aOK, bOK := a.hasLoad(), b.hasLoad()
	if aOK != bOK {
		return aOK
	}
	return aOK && a.load < b.load
}

// hasLoad reports whether load was read from a fresh row: exactly the rows
// the constraint was evaluated against.
func (cl *classified) hasLoad() bool {
	return cl.verdict == VerdictEligible || cl.verdict == VerdictIneligible
}
