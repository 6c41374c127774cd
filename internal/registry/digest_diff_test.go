package registry

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rim"
	"repro/internal/store"
)

// TestDigestNeverDisagreesWithParseOnRead drives a leader and its follower
// through a seeded sequence of life-cycle writes — submit, every kind of
// description edit, binding add/remove/reorder, rename into and out of a
// duplicate name, delete, a non-service under a probed id — with a
// collector sweep, a replication catch-up and now and then a Save→Load
// between them, while readers hammer discovery on both nodes and scribble
// over every answer they get. After every step, discovery through the query
// manager, by id and by name, on both nodes, must equal
// Balancer.ArrangeURIs over the object as stored: the same URIs in the same
// order, the same Decision, the same error. No hook tells the entry about a
// write; it is the very next discovery that has to see it.
func TestDigestNeverDisagreesWithParseOnRead(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			digestDifferential(t, seed)
		})
	}
}

var diffDescriptions = []string{
	"plain text, no block",
	"<constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>",
	"tight <constraint><cpuLoad>load ls 0.3</cpuLoad><memory>memory gr 2GB</memory></constraint> block",
	"<constrain><swapmemory>swapmemory gr 1GB</swapmemory></constrain>",
	"<constraint><cpuLoad>load ls 1.0</cpuLoad><starttime>1000</starttime><endtime>1200</endtime></constraint>",
	"<constraint><cpuLoad>load ls 1.0</cpuLoad><starttime>0100</starttime><endtime>0200</endtime></constraint>",
	"<constraint><cpuLoad>not a clause</cpuLoad></constraint>",
	"<constraint><cpuLoad>load ls 1.0</cpuLoad>", // unterminated
	"",
}

func digestDifferential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	leader, _, follower, _, f := newReplPair(t)
	nodes := []*Registry{leader, follower}
	for _, n := range nodes {
		n.Balancer.Policy = core.Policy(seed % 4)
		n.Balancer.FallbackAll = seed%3 == 0
		n.Balancer.Degraded = core.DegradedMode(seed % 2)
		n.Balancer.Freshness = time.Duration(seed%2) * 40 * time.Second
	}
	ctx := leader.AdminContext()

	const slots, hosts = 6, 6
	ids := make([]string, slots)
	for i := range ids {
		ids[i] = fmt.Sprintf("urn:uuid:00000000-0000-0000-0000-%012d", i)
	}
	names := []string{"alpha", "beta", "gamma", "Alpha"} // alpha and Alpha collide
	uri := func(h int) string { return fmt.Sprintf("http://h%d.example:8080/svc", h) }

	sweep := func() {
		for h := 0; h < hosts; h++ {
			row := store.NodeState{
				Host:    fmt.Sprintf("h%d.example", h),
				Load:    float64(rng.Intn(8)) / 4,
				MemoryB: int64(rng.Intn(5)) << 30,
				SwapB:   int64(rng.Intn(3)) << 30,
				Updated: t0.Add(-time.Duration(rng.Intn(80)) * time.Second),
			}
			switch rng.Intn(8) {
			case 0:
				row.Health = store.HealthQuarantined
			case 1:
				row.Failures = 1
			case 2:
				for _, n := range nodes {
					n.Store.NodeState().Delete(row.Host)
				}
				continue
			}
			for _, n := range nodes {
				n.Store.NodeState().Upsert(row)
			}
		}
	}

	// Readers run across every write. What they read is in flux, so they
	// assert nothing; they are here for the race detector, and to write to
	// every slice discovery hands out. Each does a fixed batch per step and
	// is joined before the step's answers are compared.
	readerRngs := make([]*rand.Rand, 4)
	for r := range readerRngs {
		readerRngs[r] = rand.New(rand.NewSource(seed*100 + int64(r)))
	}
	read := func(n *Registry, rng *rand.Rand) {
		for i := 0; i < 40; i++ {
			var uris []string
			if rng.Intn(2) == 0 {
				uris, _, _ = n.QM.GetServiceBindings(ids[rng.Intn(slots)])
			} else {
				uris, _, _ = n.QM.GetServiceBindingsByName(names[rng.Intn(len(names))])
			}
			scribble(uris)
		}
	}

	// write performs one seeded life-cycle operation on the slot id through
	// the leader's LCM and says what it did.
	write := func(id string) string {
		var cur *rim.Service
		if o, err := leader.Store.Get(id); err == nil {
			cur, _ = o.(*rim.Service)
		}
		var err error
		what := "noop"
		switch op := rng.Intn(10); {
		case !leader.Store.Has(id) && op == 0:
			what = "submit organization"
			org := rim.NewOrganization(names[rng.Intn(len(names))])
			org.ID = id
			err = leader.LCM.SubmitObjects(ctx, org)
		case !leader.Store.Has(id):
			what = "submit"
			svc := rim.NewService(names[rng.Intn(len(names))], diffDescriptions[rng.Intn(len(diffDescriptions))])
			svc.ID = id
			for n := rng.Intn(hosts + 1); n > 0; n-- {
				svc.AddBinding(uri(rng.Intn(hosts + 1))) // h6 has no row, ever
			}
			err = leader.LCM.SubmitObjects(ctx, svc)
		case op == 0 || cur == nil:
			what = "delete"
			err = leader.LCM.RemoveObjects(ctx, id)
		case op <= 4:
			what = "edit description"
			cur.Description = rim.NewIString(diffDescriptions[rng.Intn(len(diffDescriptions))])
			err = leader.LCM.UpdateObjects(ctx, cur)
		case op == 5:
			what = "add binding"
			cur.AddBinding(uri(rng.Intn(hosts + 1)))
			err = leader.LCM.UpdateObjects(ctx, cur)
		case op == 6:
			what = "remove binding"
			if len(cur.Bindings) > 0 {
				cur.RemoveBinding(cur.Bindings[rng.Intn(len(cur.Bindings))].AccessURI)
			}
			err = leader.LCM.UpdateObjects(ctx, cur)
		case op == 7:
			what = "reorder bindings"
			rng.Shuffle(len(cur.Bindings), func(i, j int) { cur.Bindings[i], cur.Bindings[j] = cur.Bindings[j], cur.Bindings[i] })
			err = leader.LCM.UpdateObjects(ctx, cur)
		default:
			what = "rename"
			cur.Name = rim.NewIString(names[rng.Intn(len(names))])
			err = leader.LCM.UpdateObjects(ctx, cur)
		}
		if err != nil {
			t.Errorf("%s %s: %v", what, id, err)
		}
		return what
	}

	for step := 0; step < 60; step++ {
		var readers sync.WaitGroup
		for r, rng := range readerRngs {
			readers.Add(1)
			go func(n *Registry, rng *rand.Rand) {
				defer readers.Done()
				read(n, rng)
			}(nodes[r%2], rng)
		}

		id := ids[rng.Intn(slots)]
		what := write(id)
		followerCatchUp(t, f, leader)
		if rng.Intn(6) == 0 {
			what += ", save and load"
			n := nodes[rng.Intn(2)]
			var snap bytes.Buffer
			if err := n.Store.Save(&snap); err != nil {
				t.Error(err)
			} else if err := n.Store.Load(&snap); err != nil {
				t.Error(err)
			}
		}
		sweep()
		readers.Wait()
		if t.Failed() {
			return
		}

		for ni, n := range nodes {
			where := fmt.Sprintf("step %d (%s %s), node %d", step, what, id, ni)
			for _, id := range ids {
				got, dec, err := n.QM.GetServiceBindings(id)
				o, refErr := n.Store.Get(id)
				if refErr == nil {
					if _, ok := o.(*rim.Service); !ok {
						refErr = fmt.Errorf("store: %s is not a service", id)
					}
				}
				sameAnswer(t, where+", by id "+id, n, o, refErr, got, dec, err)
				scribble(got)
			}
			for _, name := range names {
				got, dec, err := n.QM.GetServiceBindingsByName(name)
				o, refErr := n.Store.FindOneByName(rim.TypeService, name)
				sameAnswer(t, where+", by name "+name, n, o, refErr, got, dec, err)
				scribble(got)
			}
		}
	}
}

// sameAnswer holds one discovery answer against parse-on-read over the
// stored object o (or against refErr when the lookup has to fail).
func sameAnswer(t *testing.T, where string, n *Registry, o rim.Object, refErr error, got []string, dec core.Decision, err error) {
	t.Helper()
	if refErr != nil {
		if err == nil || err.Error() != refErr.Error() || errors.Is(err, store.ErrNotFound) != errors.Is(refErr, store.ErrNotFound) {
			t.Fatalf("%s: discovery says %v, the store %v", where, err, refErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	svc := o.(*rim.Service)
	want, wantDec := n.Balancer.ArrangeURIs(svc.Description.String(), svc.AccessURIs(), n.Clock.Now())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %q\n got %#v\nwant %#v", where, svc.Description, got, want)
	}
	if !reflect.DeepEqual(dec, wantDec) {
		t.Fatalf("%s: %q\n got %+v\nwant %+v", where, svc.Description, dec, wantDec)
	}
	if dec.ServedHost() != wantDec.ServedHost() || dec.Eligible() != wantDec.Eligible() {
		t.Fatalf("%s: served host %q eligible %d, want %q %d", where, dec.ServedHost(), dec.Eligible(), wantDec.ServedHost(), wantDec.Eligible())
	}
}

func scribble(uris []string) {
	for i := range uris {
		uris[i] = "scribbled"
	}
}
