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

// submitNoise publishes a service on the leader that no answer reads.
func submitNoise(t *testing.T, leader *Registry) {
	t.Helper()
	noise := rim.NewService("Noise", "")
	noise.AddBinding("http://noise.sdsu.edu:8080/Noise/n")
	if err := leader.LCM.SubmitObjects(leader.AdminContext(), noise); err != nil {
		t.Fatal(err)
	}
}

// pollOne applies the leader's one new record on the follower.
func pollOne(t *testing.T, p *replPair) {
	t.Helper()
	if n, err := p.f.Poll(context.Background()); err != nil || n != 1 {
		t.Fatalf("poll applied %d records (%v), want the one write", n, err)
	}
}

// rebootstrap has the follower load a checkpoint the leader takes now.
func rebootstrap(t *testing.T, p *replPair) {
	t.Helper()
	if err := p.leader.Durable.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// What part of an answer's stamp a cause leaves behind when the cause lands
// between a request's reads: discover reads the epoch, then the
// generation, then the tier, and puts the answer on the entry of the view
// it computed from.
const (
	straddlesNothing = iota // the cause does not touch the answer
	straddlesView           // the answer goes on the entry the cause replaced
	straddlesGen            // the answer carries the generation before it
	straddlesEpoch          // the answer carries the epoch before it
)

// TestReplCacheInvalidationCauses: each cause a discovery answer depends
// on makes the answer cached before it be recomputed after it — one render
// more, and a different body where the cause alters the answer — and what
// the answer does not depend on leaves it a hit. Nor is an answer served
// whose stamp straddles the cause, as a request's does when the cause
// lands between its reads.
func TestReplCacheInvalidationCauses(t *testing.T) {
	for _, row := range []struct {
		name      string
		follower  bool // the answer is cached on the follower
		straddles int  // what an answer computed across the cause holds stale
		same      bool // the answer is recomputed but does not change
		setup     func(*testing.T, *replPair)
		cause     func(*testing.T, *replPair, *loadInvoker)
	}{
		{name: "lcm write on the leader", straddles: straddlesView, cause: func(t *testing.T, p *replPair, _ *loadInvoker) {
			widenWorker(t, p.leader)
		}},
		{name: "lcm write to another service on the leader", cause: func(t *testing.T, p *replPair, _ *loadInvoker) {
			submitNoise(t, p.leader)
		}},
		{name: "record applied on the follower", follower: true, straddles: straddlesView, cause: func(t *testing.T, p *replPair, _ *loadInvoker) {
			widenWorker(t, p.leader)
			pollOne(t, p)
		}},
		{name: "record for another service applied on the follower", follower: true, cause: func(t *testing.T, p *replPair, _ *loadInvoker) {
			submitNoise(t, p.leader)
			pollOne(t, p)
		}},
		{name: "follower re-bootstrap", follower: true, straddles: straddlesView, cause: func(t *testing.T, p *replPair, _ *loadInvoker) {
			widenWorker(t, p.leader)
			rebootstrap(t, p)
		}},
		{name: "follower re-bootstrap without a write to the service", follower: true, straddles: straddlesView, same: true,
			cause: func(t *testing.T, p *replPair, _ *loadInvoker) {
				submitNoise(t, p.leader)
				rebootstrap(t, p)
			}},
		{name: "collector republish", straddles: straddlesGen, cause: func(_ *testing.T, p *replPair, inv *loadInvoker) {
			inv.set("h01.sdsu.edu", 5)
			p.leader.Collector.CollectOnce()
		}},
		{name: "tier transition to static, all quarantined", straddles: straddlesEpoch, setup: func(_ *testing.T, p *replPair) {
			tab := p.leader.Store.NodeState()
			for _, h := range causeHosts {
				row, _ := tab.Snapshot().Get(h)
				row.Health = store.HealthQuarantined
				tab.Upsert(row)
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
			preView, _ := reg.Store.LookupService("Worker", false)
			preGen, _ := reg.Balancer.SnapshotMeta(reg.Clock.Now())
			preEpoch := reg.RespCache.Epoch()

			row.cause(t, p, inv)
			after, _ := getBindings(t, srv, "Worker")
			if row.straddles == straddlesNothing {
				if got := renders(); got != r0 || after != before {
					t.Fatalf("after a cause the answer does not read: renders %d, want none; answer %q, want %q", got-r0, after, before)
				}
				return
			}
			if got := renders(); got != r0+1 {
				t.Fatalf("renders after the cause = %d, want %d: the cached answer was served", got, r0+1)
			}
			if changed := after != before; changed == row.same {
				t.Fatalf("the answer across the cause went from %q to %q", before, after)
			}

			const stale = "stale\n"
			gen, _ := reg.Balancer.SnapshotMeta(reg.Clock.Now())
			epoch := reg.RespCache.Epoch()
			switch row.straddles {
			case straddlesGen:
				gen = preGen
			case straddlesEpoch:
				epoch = preEpoch
			}
			old, _ := preView.Answer().(*respcache.Entry)
			respcache.Put(preView, old, &respcache.Entry{Epoch: epoch, Gen: gen, Tier: reg.edgeTier(), JSON: []byte(stale)})
			if got, _ := getBindings(t, srv, "Worker"); got != after {
				t.Fatalf("an answer stamped across the cause was served: %q, want %q", got, after)
			}
		})
	}
}

// hookCtx runs hook the first time discovery checks its deadline, which
// the miss path does between loading the view and arranging it.
type hookCtx struct {
	context.Context
	once sync.Once
	hook func()
}

func (c *hookCtx) Err() error {
	c.once.Do(c.hook)
	return c.Context.Err()
}

// TestReplicatedChangeMidFlightNeverValidates: a followed record that
// replaces the service between the miss path's view load and its arrange
// leaves the answer computed from the old version on the old entry, where
// nothing reads it: the next request computes from the record's version.
func TestReplicatedChangeMidFlightNeverValidates(t *testing.T) {
	p, _ := newCausePair(t)
	widenWorker(t, p.leader)
	ctx := &hookCtx{Context: context.Background(), hook: func() { pollOne(t, p) }}
	reg := p.follower
	mid, err := reg.discover(ctx, nil, false, "Worker", reg.Clock.Now(), encJSON, false)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := getBindings(t, p.fsrv, "Worker")
	if got == string(mid.JSON) {
		t.Fatalf("the answer computed from the replaced version was served: %q", got)
	}
	if again, _ := getBindings(t, p.fsrv, "Worker"); again != got {
		t.Fatalf("the recomputed answer is not the one cached:\n%q\n%q", again, got)
	}
	if n := reg.renders[encJSON].Value(); n != 2 {
		t.Fatalf("renders = %d, want the mid-flight one and its recompute", n)
	}
}
