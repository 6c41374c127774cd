package registry

// One table of the causes a cached discovery answer depends on, driven on a
// leader and a follower with admission on and manual clocks: for each, an
// answer cached before the cause is recomputed after it, and an answer
// computed across it never validates.

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/nodestatus"
	"repro/internal/repl"
	"repro/internal/respcache"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/store"
)

// loadInvoker answers NodeStatus with a settable load per host.
type loadInvoker struct {
	clock simclock.Clock
	mu    sync.Mutex
	load  map[string]float64 // guarded by mu; absent means 0.2
}

func (l *loadInvoker) Invoke(uri string) (nodestatus.Response, error) {
	host := rim.HostOfURI(uri)
	l.mu.Lock()
	load, ok := l.load[host]
	l.mu.Unlock()
	if !ok {
		load = 0.2
	}
	return nodestatus.Response{Host: host, Load: load, MemoryB: 4 << 30, SwapB: 1 << 30,
		Timestamp: l.clock.Now().UTC().Format(time.RFC3339Nano)}, nil
}

func (l *loadInvoker) set(host string, load float64) {
	l.mu.Lock()
	l.load[host] = load
	l.mu.Unlock()
}

// replPair is newReplPairWith's result.
type replPair struct {
	leader, follower *Registry
	lsrv, fsrv       *httptest.Server
	f                *repl.Follower
}

var causeHosts = []string{"h00.sdsu.edu", "h01.sdsu.edu", "h02.sdsu.edu"}

// newCausePair boots a filtering leader and follower under admission, with
// a NodeStatus deployment and a constrained Worker on causeHosts, one
// collector sweep, and the follower bootstrapped from a checkpoint taken
// after both.
func newCausePair(t *testing.T) (*replPair, *loadInvoker) {
	t.Helper()
	adm := admitTestConfig()
	clk := simclock.NewManual(t0)
	inv := &loadInvoker{clock: clk, load: map[string]float64{}}
	var p replPair
	p.leader, p.lsrv, p.follower, p.fsrv, p.f = newReplPairWith(t, Config{
		Clock: clk, Policy: core.PolicyFilter, Admission: &adm, Invoker: inv,
	})
	ns := rim.NewService("NodeStatus", "")
	for _, h := range causeHosts {
		ns.AddBinding("http://" + h + ":8080/NodeStatus/nodeStatus")
	}
	if err := p.leader.LCM.SubmitObjects(p.leader.AdminContext(), ns); err != nil {
		t.Fatal(err)
	}
	seedWorker(t, p.leader, causeHosts...)
	p.leader.Collector.CollectOnce()
	if err := p.leader.Durable.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	return &p, inv
}

// widenWorker updates the leader's Worker with a binding on a host no
// NodeState row describes, which changes every answer's counts.
func widenWorker(t *testing.T, leader *Registry) {
	t.Helper()
	got, err := leader.QM.GetServiceByName("Worker")
	if err != nil {
		t.Fatal(err)
	}
	got.AddBinding("http://h09.sdsu.edu:8080/Worker/workerService")
	if err := leader.LCM.UpdateObjects(leader.AdminContext(), got); err != nil {
		t.Fatal(err)
	}
}

// TestReplCacheInvalidationCauses: each cause a discovery answer depends
// on makes the answer cached before it be recomputed after it — one render
// more, and a different body where the cause alters the answer. Nor is an
// entry served whose stamp straddles the cause, as a request's does when
// the cause lands between its reads: discover reads the epoch, then the
// generation, then the tier. For a cause the epoch counts, the epoch is
// read before it and the rest after; for a republish, which only the
// generation sees, the epoch and the generation before it.
func TestReplCacheInvalidationCauses(t *testing.T) {
	for _, row := range []struct {
		name     string
		follower bool // the answer is cached on the follower
		counted  bool // the cause advances the epoch
		setup    func(*testing.T, *replPair)
		cause    func(*testing.T, *replPair, *loadInvoker)
	}{
		{name: "lcm write on the leader", counted: true, cause: func(t *testing.T, p *replPair, _ *loadInvoker) {
			widenWorker(t, p.leader)
		}},
		{name: "record applied on the follower", follower: true, counted: true, cause: func(t *testing.T, p *replPair, _ *loadInvoker) {
			widenWorker(t, p.leader)
			if n, err := p.f.Poll(context.Background()); err != nil || n != 1 {
				t.Fatalf("poll applied %d records (%v), want the one write", n, err)
			}
		}},
		{name: "follower re-bootstrap", follower: true, counted: true, cause: func(t *testing.T, p *replPair, _ *loadInvoker) {
			widenWorker(t, p.leader)
			if err := p.leader.Durable.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := p.f.Bootstrap(context.Background()); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "collector republish", cause: func(_ *testing.T, p *replPair, inv *loadInvoker) {
			inv.set("h01.sdsu.edu", 5)
			p.leader.Collector.CollectOnce()
		}},
		{name: "tier transition to static, all quarantined", counted: true, setup: func(_ *testing.T, p *replPair) {
			for _, h := range causeHosts {
				p.leader.Store.NodeState().SetHealth(h, store.HealthQuarantined)
			}
		}, cause: func(t *testing.T, p *replPair, _ *loadInvoker) {
			driveDiscoveryOverload(p.leader, 5*time.Second)
			if got := p.leader.Admission.Tier(); got != admit.TierStatic {
				t.Fatalf("tier after sustained overload = %v, want TierStatic", got)
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			p, inv := newCausePair(t)
			if row.setup != nil {
				row.setup(t, p)
			}
			reg, srv := p.leader, p.lsrv
			if row.follower {
				reg, srv = p.follower, p.fsrv
			}
			renders := func() int64 { return reg.renders[encJSON].Value() }

			before, _ := getBindings(t, srv, "Worker")
			if again, _ := getBindings(t, srv, "Worker"); again != before {
				t.Fatalf("the cached answer differs from the rendered one:\n%q\n%q", again, before)
			}
			r0 := renders()
			preGen, _ := reg.Balancer.SnapshotMeta(reg.Clock.Now())
			preEpoch := reg.RespCache.Epoch()

			row.cause(t, p, inv)
			after, _ := getBindings(t, srv, "Worker")
			if got := renders(); got != r0+1 {
				t.Fatalf("renders after the cause = %d, want %d: the cached answer was served", got, r0+1)
			}
			if after == before {
				t.Fatalf("the answer did not change across the cause: %q", after)
			}

			const stale = "stale\n"
			gen := preGen
			if row.counted {
				gen, _ = reg.Balancer.SnapshotMeta(reg.Clock.Now())
			}
			reg.RespCache.StoreAt(respcache.SpaceName, "Worker", &respcache.Entry{
				Gen: gen, Tier: reg.edgeTier(), JSON: []byte(stale),
			}, preEpoch)
			if got, _ := getBindings(t, srv, "Worker"); got == stale || renders() != r0+2 {
				t.Fatalf("an entry stamped before the cause validated: served %q, renders %d", got, renders()-r0)
			}
		})
	}
}
