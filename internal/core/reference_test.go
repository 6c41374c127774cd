package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/rim"
	"repro/internal/store"
)

// referenceRow records how referenceArrange classified one binding.
type referenceRow struct {
	AccessURI string
	Host      string
	Verdict   Verdict
	Load      float64
	HasRow    bool
	Updated   time.Time // the NodeState row's collection instant when HasRow
}

// referenceArrange is the arrangement as it was written before discovery
// read a digest: parse the description, take each URI's host, classify
// every binding into a row, build every class list, sort by a URI-keyed
// load map, and find the served host by matching the first URI against the
// rows. It is kept, unoptimised, as the definition arrange is held
// against: the rows define the verdict counts, the served host and the
// freshness horizon that arrange's Decision carries without them.
func referenceArrange(b *Balancer, description string, uris []string, now time.Time) ([]string, Decision, string, []referenceRow) {
	dec := Decision{TimeWindowOK: true}
	if b.Policy == PolicyStock {
		return stockOrder(uris), dec, "", nil
	}
	c, _, err := constraint.FromDescription(description)
	if err != nil {
		dec.ConstraintErr = err
		return stockOrder(uris), dec, "", nil
	}
	if c.IsZero() {
		return stockOrder(uris), dec, "", nil
	}
	dec.Constraint = c
	if !c.TimeSatisfied(now) {
		dec.TimeWindowOK = false
		if b.TimeMode == TimeWindowExclude {
			return nil, dec, "", nil
		}
		return stockOrder(uris), dec, "", nil
	}
	if !c.HasResourceClauses() {
		return stockOrder(uris), dec, "", nil
	}

	dec.Filtered = true
	snap := b.Table.Snapshot()
	dec.SnapshotGen = snap.Gen()
	var unknown, ineligible, candidates []string
	eligible := make([]string, 0, len(uris))
	rows := make([]referenceRow, 0, len(uris))
	loadOf := make(map[string]float64, len(uris))
	for _, uri := range uris {
		host := rim.HostOfURI(uri)
		bd := referenceRow{AccessURI: uri, Host: host}
		row, ok := snap.Get(host)
		if ok {
			bd.Updated = row.Updated
		}
		if ok && row.Health == store.HealthQuarantined {
			bd.Verdict = VerdictQuarantined
			bd.HasRow = true
			rows = append(rows, bd)
			continue
		}
		candidates = append(candidates, uri)
		fresh := ok && row.Failures == 0 &&
			(b.Freshness <= 0 || now.Sub(row.Updated) <= b.Freshness)
		if !fresh {
			bd.Verdict = VerdictUnknown
			bd.HasRow = ok
			unknown = append(unknown, uri)
		} else {
			bd.HasRow = true
			bd.Load = row.Load
			loadOf[uri] = row.Load
			sample := constraint.Sample{Load: row.Load, MemoryB: row.MemoryB, SwapB: row.SwapB, NetDelayMs: row.NetDelayMs}
			if c.SatisfiedBy(sample) {
				bd.Verdict = VerdictEligible
				eligible = append(eligible, uri)
			} else {
				bd.Verdict = VerdictIneligible
				ineligible = append(ineligible, uri)
			}
		}
		rows = append(rows, bd)
	}

	var out []string
	switch b.Policy {
	case PolicyFilter:
		out = eligible
	case PolicyRankFirst:
		out = make([]string, 0, len(eligible)+len(unknown)+len(ineligible))
		out = append(append(append(out, eligible...), unknown...), ineligible...)
	case PolicyLeastLoaded:
		byLoad := append([]string(nil), eligible...)
		referenceSortByLoad(byLoad, loadOf)
		out = append(byLoad, unknown...)
	}
	if len(out) == 0 && b.FallbackAll && len(candidates) > 0 {
		dec.FellBack = true
		out = append([]string(nil), candidates...)
		referenceSortByLoad(out, loadOf)
	}
	if len(out) == 0 && (b.Degraded == DegradedStatic || b.forceStatic()) {
		dec.Degraded = true
		out = stockOrder(uris)
	}
	host := ""
	if len(out) > 0 {
		for i := range rows {
			if rows[i].AccessURI == out[0] {
				host = rows[i].Host
				break
			}
		}
	}
	return out, dec, host, rows
}

// freshHorizon is the earliest Updated + Freshness over the rows the
// constraint was evaluated against, zero with Freshness off.
func freshHorizon(b *Balancer, rows []referenceRow) time.Time {
	var min time.Time
	for _, r := range rows {
		if b.Freshness <= 0 || (r.Verdict != VerdictEligible && r.Verdict != VerdictIneligible) {
			continue
		}
		if h := r.Updated.Add(b.Freshness); min.IsZero() || h.Before(min) {
			min = h
		}
	}
	return min
}

// verdictCount counts the rows with verdict v.
func verdictCount(rows []referenceRow, v Verdict) int {
	n := 0
	for _, r := range rows {
		if r.Verdict == v {
			n++
		}
	}
	return n
}

func referenceSortByLoad(uris []string, load map[string]float64) {
	less := func(a, b string) bool {
		la, aOK := load[a]
		lb, bOK := load[b]
		if aOK != bOK {
			return aOK
		}
		return aOK && la < lb
	}
	for i := 1; i < len(uris); i++ {
		for j := i; j > 0 && less(uris[j], uris[j-1]); j-- {
			uris[j], uris[j-1] = uris[j-1], uris[j]
		}
	}
}

// TestArrangeMatchesReference draws clusters, services and balancer
// settings from a seed and holds arrange — over a hand-built view and over
// a stored, memoized one — against referenceArrange: the same URIs (nil and
// empty told apart), the same Decision, counts and served host.
func TestArrangeMatchesReference(t *testing.T) {
	descriptions := []string{
		"plain",
		"<constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>",
		"<constraint><cpuLoad>load ls 0.3</cpuLoad><memory>memory gr 2GB</memory></constraint>",
		"<constrain><swapmemory>swapmemory gr 1GB</swapmemory></constrain>",
		"<constraint><cpuLoad>load ls 0.0</cpuLoad></constraint>",
		"<constraint><cpuLoad>load ls 1.0</cpuLoad><starttime>1000</starttime><endtime>1200</endtime></constraint>",
		"<constraint><cpuLoad>load ls 1.0</cpuLoad><starttime>0100</starttime><endtime>0200</endtime></constraint>",
		"<constraint><starttime>1000</starttime><endtime>1200</endtime></constraint>",
		"<constraint><cpuLoad>load</cpuLoad></constraint>",
		"<constraint><cpuLoad>load ls 1.0</cpuLoad>",
	}
	for seed := int64(1); seed <= 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := store.NewNodeStateTable()
		hosts := 1 + rng.Intn(8)
		for h := 0; h < hosts; h++ {
			if rng.Intn(5) == 0 {
				continue // no row: unknown
			}
			row := store.NodeState{
				Host:    fmt.Sprintf("h%d.example", h),
				Load:    float64(rng.Intn(8)) / 4, // few distinct loads: ties matter
				MemoryB: int64(rng.Intn(5)) << 30,
				SwapB:   int64(rng.Intn(3)) << 30,
				Updated: t0.Add(-time.Duration(rng.Intn(90)) * time.Second),
			}
			switch rng.Intn(6) {
			case 0:
				row.Health = store.HealthQuarantined
			case 1:
				row.Failures = 2
			}
			tab.Upsert(row)
		}
		var uris []string
		for n := rng.Intn(10); n > 0; n-- {
			// Several bindings may share a host, or be the same URI twice.
			uris = append(uris, fmt.Sprintf("http://h%d.example:8080/svc%d", rng.Intn(hosts+1), rng.Intn(2)))
		}
		if rng.Intn(8) == 0 {
			uris = []string{}
		}
		b := &Balancer{
			Table:       tab,
			Policy:      Policy(rng.Intn(4)),
			TimeMode:    TimeWindowMode(rng.Intn(2)),
			FallbackAll: rng.Intn(2) == 0,
			Degraded:    DegradedMode(rng.Intn(2)),
		}
		if rng.Intn(2) == 0 {
			b.Freshness = 45 * time.Second
		}
		desc := descriptions[rng.Intn(len(descriptions))]

		want, wantDec, wantHost, rows := referenceArrange(b, desc, uris, t0)
		wantCounts := [numVerdicts]int{}
		for v := range wantCounts {
			wantCounts[v] = verdictCount(rows, Verdict(v))
		}
		wantFresh := freshHorizon(b, rows)

		s := store.New()
		svc := rim.NewService("svc", desc)
		for _, u := range uris {
			// Not AddBinding: it would drop the repeated URIs.
			svc.Bindings = append(svc.Bindings, rim.NewServiceBinding(svc.ID, u))
		}
		if err := s.Put(svc); err != nil {
			t.Fatal(err)
		}
		stored, err := s.ServiceView(svc.ID)
		if err != nil {
			t.Fatal(err)
		}
		views := map[string]store.DiscoveryView{
			"hand-built":       {Description: desc, URIs: uris},
			"stored":           stored,
			"stored, digested": stored,
		}
		for _, kind := range []string{"hand-built", "stored", "stored, digested"} {
			got, dec := b.ArrangeView(views[kind], t0)
			where := fmt.Sprintf("seed %d, %s view, policy %v, %q, %d URIs", seed, kind, b.Policy, desc, len(uris))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s:\n got %#v\nwant %#v", where, got, want)
			}
			if dec.ServedHost() != wantHost {
				t.Fatalf("%s: served host %q, want %q", where, dec.ServedHost(), wantHost)
			}
			counts := [numVerdicts]int{VerdictEligible: dec.Eligible(), VerdictUnknown: dec.Unknown(),
				VerdictIneligible: dec.Ineligible(), VerdictQuarantined: dec.Quarantined()}
			if counts != wantCounts {
				t.Fatalf("%s: tallied %v, the rows say %v", where, counts, wantCounts)
			}
			if !dec.FreshUntil.Equal(wantFresh) {
				t.Fatalf("%s: FreshUntil %v, the rows' earliest horizon is %v", where, dec.FreshUntil, wantFresh)
			}
			// What is left must agree field for field, errors by message.
			if (dec.ConstraintErr == nil) != (wantDec.ConstraintErr == nil) ||
				dec.ConstraintErr != nil && dec.ConstraintErr.Error() != wantDec.ConstraintErr.Error() {
				t.Fatalf("%s: ConstraintErr %v, want %v", where, dec.ConstraintErr, wantDec.ConstraintErr)
			}
			dec.ConstraintErr, dec.tally, dec.servedHost, dec.FreshUntil = wantDec.ConstraintErr, wantDec.tally, "", wantDec.FreshUntil
			if !reflect.DeepEqual(dec, wantDec) {
				t.Fatalf("%s:\n got %+v\nwant %+v", where, dec, wantDec)
			}
		}
	}
}
