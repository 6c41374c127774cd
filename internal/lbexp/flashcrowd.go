// flashcrowd.go is experiment H8: the overload-resilience layer under a
// flash crowd. A population of closed-loop discovery clients runs against
// the assembled registry with admission control enabled; partway through,
// a crowd roughly ten times the baseline population piles on and later
// leaves. The experiment demonstrates the serving edge's contract under
// that surge: admitted goodput stays pinned at capacity instead of
// collapsing, per-request latency stays inside the class deadline because
// excess load is shed early with 503 + Retry-After instead of queuing,
// the brownout ladder climbs while pressure persists and steps back down
// to nominal once the crowd leaves — and, because every admission
// decision is a deterministic function of arrival order and virtual
// time, a same-seed replay is byte-identical.
//
// The simulation is a single-threaded event loop over the manual clock:
// a binary heap of (time, sequence)-ordered events drives the
// controller's non-blocking core (TryAdmit / Release / CancelQueued)
// directly, and every admitted request performs a real discovery call
// through the JAXR connection so the full registry read path — balancer,
// brownout overrides, snapshot staleness — sits under the load.
package lbexp

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/hostsim"
	"repro/internal/metrics"
	"repro/internal/rim"
)

// Phases of an H8 run, indexing the per-phase assignment counts.
const (
	PhaseWarmup = iota
	PhaseSurge
	PhaseCooldown
	phaseCount
)

// PhaseNames labels the H8 phases in index order.
var PhaseNames = [phaseCount]string{"warmup", "surge", "cooldown"}

// FlashCrowdConfig sizes experiment H8.
type FlashCrowdConfig struct {
	// Hosts is the simulated deployment size.
	Hosts int
	// BaselineClients run closed-loop for the whole experiment;
	// SurgeClients additionally run during the surge window only. The
	// defaults put the surge population at 10x baseline.
	BaselineClients int
	SurgeClients    int
	// Warmup precedes the surge, Surge is the crowd's stay, Cooldown is
	// the recovery tail (long enough for the brownout ladder to walk all
	// the way back to nominal). Goodput and latency are measured over
	// the surge window in both the baseline and the surge run.
	Warmup   time.Duration
	Surge    time.Duration
	Cooldown time.Duration
	// Think is a client's mean pause between a completed request and its
	// next one; Service is the mean in-registry service time. Both get
	// deterministic seeded jitter in [0.5, 1.5) of the mean.
	Think   time.Duration
	Service time.Duration
	// Seed drives every stochastic draw (stagger, think, service,
	// backoff); a fixed seed makes the whole run replayable.
	Seed int64
	// Admission tunes the controller under test.
	Admission admit.Config
}

// DefaultFlashCrowd is the H8 configuration recorded in EXPERIMENTS.md:
// discovery capacity MaxInFlight/Service = 400 req/s, a baseline offering
// ~75% of that, and a surge population 10x the baseline. QueueTimeout +
// worst-case service fits inside the class deadline, so admitted p99 is
// structurally bounded by construction — the experiment verifies it.
func DefaultFlashCrowd(seed int64) FlashCrowdConfig {
	return FlashCrowdConfig{
		Hosts:           4,
		BaselineClients: 24,
		SurgeClients:    216,
		Warmup:          5 * time.Second,
		Surge:           20 * time.Second,
		Cooldown:        30 * time.Second,
		Think:           60 * time.Millisecond,
		Service:         20 * time.Millisecond,
		Seed:            seed,
		Admission: admit.Config{
			Discovery: admit.ClassLimits{
				MaxInFlight:  8,
				MaxQueue:     16,
				QueueTimeout: 100 * time.Millisecond,
				Deadline:     250 * time.Millisecond,
			},
			Tick:             100 * time.Millisecond,
			RetryAfter:       100 * time.Millisecond,
			BrownoutEscalate: 2 * time.Second,
			BrownoutCalm:     4 * time.Second,
		},
	}
}

// FlashCrowdResult is one run's measurement. Offered through LatMax are
// taken over the surge window; Stats and the tier fields cover the whole
// run.
type FlashCrowdResult struct {
	Name string
	// Offered counts admission attempts in the window; Completed counts
	// requests served; Shed counts early rejections (including queue
	// timeouts, broken out in QueueTimeouts).
	Offered       int
	Completed     int
	Shed          int
	QueueTimeouts int
	// GoodputPerSec is Completed over the surge window.
	GoodputPerSec float64
	// LatP50/LatP99/LatMax are admitted-request latencies in seconds,
	// measured from the admission attempt (queue wait included).
	LatP50 float64
	LatP99 float64
	LatMax float64
	// Deadline is the discovery class's budget the latencies are judged
	// against.
	Deadline time.Duration
	// MaxTier is the highest brownout rung reached; FinalTier the rung
	// at the end of the cooldown; TierChanges the total transitions.
	MaxTier     admit.Tier
	FinalTier   admit.Tier
	TierChanges int64
	// Stats is the discovery class's final counter snapshot.
	Stats admit.ClassStats
	// PhaseAssignments counts which host each admitted discovery chose,
	// split by run phase; PhaseFairness is Jain's index over each phase's
	// per-host counts — how well the balancer held the paper's uniformity
	// claim while the surge (and the brownout ladder) distorted the view.
	PhaseAssignments [phaseCount]map[string]int
	PhaseFairness    [phaseCount]float64
}

// Event kinds of the flash-crowd loop.
const (
	fcArrive uint8 = iota
	fcComplete
	fcTimeout
	fcSweep
)

// fcCollectionPeriod is H8's NodeStatus sweep cadence. The run's phases
// are seconds long, so the thesis-default 25 s period would leave the
// balancer deciding on a single stale snapshot for a whole phase; one
// sweep per second keeps the load view fresh enough that placement
// responds to the surge within a phase.
const fcCollectionPeriod = time.Second

// fcEvent is one scheduled simulation step.
type fcEvent struct {
	at  time.Time
	seq uint64
	// heapIndex is maintained by container/heap.
	heapIndex int
	kind      uint8
	cl        *fcClient
	// arrived (fcComplete) is when the finishing request first asked for
	// admission; latency is measured from here.
	arrived time.Time
	// ticket (fcTimeout) is the queued admission awaiting a slot.
	ticket *admit.Ticket
}

// fcClient is one closed-loop discovery client.
type fcClient struct {
	id    int
	surge bool
}

// fcHeap orders events by time, ties broken by scheduling sequence so
// the run is deterministic.
type fcHeap []*fcEvent

func (h fcHeap) Len() int { return len(h) }
func (h fcHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h fcHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIndex = i
	h[j].heapIndex = j
}
func (h *fcHeap) Push(x interface{}) {
	e := x.(*fcEvent)
	e.heapIndex = len(*h)
	*h = append(*h, e)
}
func (h *fcHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// fcSim is one flash-crowd run in progress.
type fcSim struct {
	cfg   FlashCrowdConfig
	setup *Setup
	ctrl  *admit.Controller
	rng   *rand.Rand

	events fcHeap
	seq    uint64
	// tickets maps a queued admission back to its waiting client so a
	// promotion inside Release can start that client's service.
	tickets map[*admit.Ticket]*fcClient

	surgeStart time.Time
	surgeEnd   time.Time
	runEnd     time.Time

	// Surge-window measurements.
	wOffered   int
	wCompleted int
	wShed      int
	wTimeouts  int
	latencies  []float64

	// trace fingerprints the processed event stream for the replay
	// check: kind, client, virtual time, and decision of every event.
	trace    hash.Hash64
	maxTier  admit.Tier
	tierHist []admit.Tier

	// hostCounts tallies each admitted discovery's chosen host, split by
	// run phase (warmup / surge / cooldown).
	hostCounts [phaseCount]map[string]int
}

// flashRun executes one flash-crowd configuration with the given surge
// population (0 = the baseline run).
func flashRun(cfg FlashCrowdConfig, surgeClients int) (*fcSim, error) {
	adm := cfg.Admission
	setup, err := NewSetup(Config{
		Hosts:            cfg.Hosts,
		RegistryPolicy:   core.PolicyLeastLoaded,
		FallbackAll:      true,
		CollectionPeriod: fcCollectionPeriod,
		Admission:        &adm,
	})
	if err != nil {
		return nil, err
	}
	if setup.Registry.Admission == nil {
		return nil, fmt.Errorf("lbexp: flash-crowd setup built no admission controller")
	}
	start := setup.Clock.Now()
	f := &fcSim{
		cfg:        cfg,
		setup:      setup,
		ctrl:       setup.Registry.Admission,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		tickets:    make(map[*admit.Ticket]*fcClient),
		surgeStart: start.Add(cfg.Warmup),
		runEnd:     start.Add(cfg.Warmup + cfg.Surge + cfg.Cooldown),
		trace:      fnv.New64a(),
	}
	f.surgeEnd = f.surgeStart.Add(cfg.Surge)
	for i := range f.hostCounts {
		f.hostCounts[i] = make(map[string]int)
	}
	// Stagger the baseline population over the first second and the
	// crowd over the surge's first two seconds; the draws happen in
	// client order, so the schedule is a pure function of the seed.
	for i := 0; i < cfg.BaselineClients; i++ {
		cl := &fcClient{id: i}
		f.push(start.Add(time.Duration(f.rng.Float64()*float64(time.Second))), fcArrive, cl, time.Time{}, nil)
	}
	ramp := 2 * time.Second
	if ramp > cfg.Surge/2 {
		ramp = cfg.Surge / 2
	}
	for i := 0; i < surgeClients; i++ {
		cl := &fcClient{id: cfg.BaselineClients + i, surge: true}
		f.push(f.surgeStart.Add(time.Duration(f.rng.Float64()*float64(ramp))), fcArrive, cl, time.Time{}, nil)
	}
	// NodeStatus sweeps ride the same event heap, so the balancer's view
	// refreshes on the virtual clock exactly as the collector would.
	f.push(start.Add(fcCollectionPeriod), fcSweep, nil, time.Time{}, nil)
	if err := f.run(); err != nil {
		return nil, err
	}
	return f, nil
}

// push schedules one event.
func (f *fcSim) push(at time.Time, kind uint8, cl *fcClient, arrived time.Time, t *admit.Ticket) {
	f.seq++
	heap.Push(&f.events, &fcEvent{at: at, seq: f.seq, kind: kind, cl: cl, arrived: arrived, ticket: t})
}

// run drains the event heap, advancing the manual clock to each event.
// Arrivals stop scheduling at runEnd, so the heap empties shortly after.
func (f *fcSim) run() error {
	for f.events.Len() > 0 {
		e := heap.Pop(&f.events).(*fcEvent)
		f.setup.Clock.Set(e.at)
		var err error
		switch e.kind {
		case fcArrive:
			err = f.arrive(e.cl, e.at)
		case fcComplete:
			err = f.complete(e.cl, e.arrived, e.at)
		case fcTimeout:
			err = f.timeout(e.cl, e.ticket, e.at)
		case fcSweep:
			f.sweep(e.at)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// inWindow reports whether t falls in the measured surge window.
func (f *fcSim) inWindow(t time.Time) bool {
	return !t.Before(f.surgeStart) && t.Before(f.surgeEnd)
}

// sweep advances the simulated hosts (progressing the service work
// startService submitted, so load averages track the traffic) and runs
// one synchronous NodeStatus collection, then books the next sweep.
func (f *fcSim) sweep(now time.Time) {
	f.setup.Cluster.AdvanceTo(now)
	f.setup.Collector.CollectOnce()
	if next := now.Add(fcCollectionPeriod); !next.After(f.runEnd) {
		f.push(next, fcSweep, nil, time.Time{}, nil)
	}
}

// phase maps a virtual time to its run phase.
func (f *fcSim) phase(t time.Time) int {
	switch {
	case t.Before(f.surgeStart):
		return PhaseWarmup
	case t.Before(f.surgeEnd):
		return PhaseSurge
	default:
		return PhaseCooldown
	}
}

// note folds one processed event into the replay fingerprint.
func (f *fcSim) note(kind uint8, cl *fcClient, now time.Time, tag byte, extra uint64) {
	var buf [22]byte
	buf[0] = kind
	binary.LittleEndian.PutUint32(buf[1:5], uint32(cl.id))
	binary.LittleEndian.PutUint64(buf[5:13], uint64(now.UnixNano()))
	buf[13] = tag
	binary.LittleEndian.PutUint64(buf[14:22], extra)
	f.trace.Write(buf[:])
}

// jitter draws a duration in [0.5, 1.5) of the mean.
func (f *fcSim) jitter(mean time.Duration) time.Duration {
	return mean/2 + time.Duration(f.rng.Float64()*float64(mean))
}

// backoff is a shed client's pause before retrying: the server's
// advisory Retry-After plus one think's worth of jitter. A flash crowd
// is impatient — it retries on the order of its think time rather than
// politely waiting out the incident, which is exactly the load shape the
// shedder and brownout ladder exist for.
func (f *fcSim) backoff() time.Duration {
	return f.ctrl.RetryAfter() + f.jitter(f.cfg.Think)
}

// scheduleNext books a client's next arrival; surge clients leave with
// the crowd, and nobody arrives past the end of the run.
func (f *fcSim) scheduleNext(cl *fcClient, at time.Time) {
	if cl.surge && at.After(f.surgeEnd) {
		return
	}
	if at.After(f.runEnd) {
		return
	}
	f.push(at, fcArrive, cl, time.Time{}, nil)
}

// arrive runs one admission attempt.
func (f *fcSim) arrive(cl *fcClient, now time.Time) error {
	if f.inWindow(now) {
		f.wOffered++
	}
	outcome, ticket := f.ctrl.TryAdmit(admit.ClassDiscovery, now)
	f.noteTier()
	f.note(fcArrive, cl, now, byte(outcome), 0)
	switch outcome {
	case admit.Admitted:
		return f.startService(cl, now, now)
	case admit.Queued:
		f.tickets[ticket] = cl
		f.push(now.Add(f.ctrl.Limits(admit.ClassDiscovery).QueueTimeout), fcTimeout, cl, time.Time{}, ticket)
	case admit.Shed:
		if f.inWindow(now) {
			f.wShed++
		}
		f.scheduleNext(cl, now.Add(f.backoff()))
	}
	return nil
}

// noteTier records the ladder transition the controller call just made,
// if any: a call makes at most one, so the tier differs from the last one
// recorded exactly when it did.
func (f *fcSim) noteTier() {
	last := admit.TierNominal
	if n := len(f.tierHist); n > 0 {
		last = f.tierHist[n-1]
	}
	t := f.ctrl.Tier()
	if t == last {
		return
	}
	f.tierHist = append(f.tierHist, t)
	if t > f.maxTier {
		f.maxTier = t
	}
}

// startService performs the admitted request's actual discovery call and
// schedules its completion. arrived is the admission-attempt time (for a
// promoted ticket, its original TryAdmit time), so the eventual latency
// sample includes the queue wait.
func (f *fcSim) startService(cl *fcClient, arrived, now time.Time) error {
	uris, _, err := f.setup.Conn.ServiceBindings("Worker")
	if err != nil {
		return fmt.Errorf("lbexp: flash-crowd discovery: %w", err)
	}
	if len(uris) == 0 {
		return fmt.Errorf("lbexp: flash-crowd discovery returned no URIs")
	}
	host := rim.HostOfURI(uris[0])
	f.hostCounts[f.phase(now)][host]++
	svc := f.jitter(f.cfg.Service)
	// The request's service time is real work on the chosen host: submit
	// it to the simulated machine so its load average — what the next
	// sweep reports and the balancer ranks by — tracks the traffic.
	if h := f.setup.Cluster.Host(host); h != nil {
		f.seq++
		_ = h.Submit(hostsim.Task{
			ID:         fmt.Sprintf("fc-%d", f.seq),
			CPUSeconds: svc.Seconds(),
			MemB:       1 << 20,
		}, now)
	}
	f.push(now.Add(svc), fcComplete, cl, arrived, nil)
	return nil
}

// complete finishes an admitted request: records its latency, releases
// the slot (possibly promoting a queued client, whose service then
// starts immediately), and books the client's next think-time arrival.
func (f *fcSim) complete(cl *fcClient, arrived, now time.Time) error {
	lat := now.Sub(arrived)
	if f.inWindow(now) {
		f.wCompleted++
		f.latencies = append(f.latencies, lat.Seconds())
	}
	f.note(fcComplete, cl, now, 0, uint64(lat))
	promoted := f.ctrl.Release(admit.ClassDiscovery, arrived, now)
	f.noteTier()
	if promoted != nil {
		pcl := f.tickets[promoted]
		delete(f.tickets, promoted)
		if pcl != nil {
			if err := f.startService(pcl, promoted.Arrived(), now); err != nil {
				return err
			}
		}
	}
	f.scheduleNext(cl, now.Add(f.jitter(f.cfg.Think)))
	return nil
}

// timeout fires when a queued admission has waited out its QueueTimeout.
// Losing the cancel race means the ticket was promoted first and the
// client is already being served; winning it sheds the request.
func (f *fcSim) timeout(cl *fcClient, t *admit.Ticket, now time.Time) error {
	cancelled := f.ctrl.CancelQueued(t, now, true)
	f.noteTier()
	if !cancelled {
		return nil
	}
	delete(f.tickets, t)
	if f.inWindow(now) {
		f.wTimeouts++
		f.wShed++
	}
	f.note(fcTimeout, cl, now, 1, 0)
	f.scheduleNext(cl, now.Add(f.backoff()))
	return nil
}

// result snapshots the finished run.
func (f *fcSim) result(name string) FlashCrowdResult {
	res := FlashCrowdResult{
		Name:          name,
		Offered:       f.wOffered,
		Completed:     f.wCompleted,
		Shed:          f.wShed,
		QueueTimeouts: f.wTimeouts,
		GoodputPerSec: float64(f.wCompleted) / f.cfg.Surge.Seconds(),
		Deadline:      f.ctrl.Limits(admit.ClassDiscovery).Deadline,
		MaxTier:       f.maxTier,
		FinalTier:     f.ctrl.Tier(),
		TierChanges:   f.ctrl.TierChanges(),
		Stats:         f.ctrl.ClassStats(admit.ClassDiscovery),
	}
	if len(f.latencies) > 0 {
		res.LatP50 = metrics.Percentile(f.latencies, 50)
		res.LatP99 = metrics.Percentile(f.latencies, 99)
		for _, l := range f.latencies {
			if l > res.LatMax {
				res.LatMax = l
			}
		}
	}
	hosts := HostNames[:f.cfg.Hosts]
	for p := range f.hostCounts {
		res.PhaseAssignments[p] = f.hostCounts[p]
		counts := make([]float64, len(hosts))
		for i, h := range hosts {
			counts[i] = float64(f.hostCounts[p][h])
		}
		res.PhaseFairness[p] = metrics.JainFairness(counts)
	}
	return res
}

// fingerprint renders the run's complete observable state — the rolling
// event-stream hash plus every counter and the tier history — for the
// byte-identical replay check.
func (f *fcSim) fingerprint() string {
	return fmt.Sprintf("events=%016x offered=%d completed=%d shed=%d timeouts=%d lat=%d stats=%+v tiers=%v final=%v changes=%d",
		f.trace.Sum64(), f.wOffered, f.wCompleted, f.wShed, f.wTimeouts,
		len(f.latencies), f.ctrl.ClassStats(admit.ClassDiscovery),
		f.tierHist, f.ctrl.Tier(), f.ctrl.TierChanges())
}

// FlashCrowd runs experiment H8: the same configuration once without and
// once with the crowd, measuring both over the surge window.
func FlashCrowd(cfg FlashCrowdConfig) (baseline, surge FlashCrowdResult, err error) {
	b, err := flashRun(cfg, 0)
	if err != nil {
		return FlashCrowdResult{}, FlashCrowdResult{}, err
	}
	s, err := flashRun(cfg, cfg.SurgeClients)
	if err != nil {
		return FlashCrowdResult{}, FlashCrowdResult{}, err
	}
	return b.result("baseline"), s.result("flash-crowd"), nil
}

// FlashCrowdTable tabulates the H8 rows for EXPERIMENTS.md and lbsim.
func FlashCrowdTable(rows ...FlashCrowdResult) *metrics.Table {
	tbl := metrics.NewTable("run", "offered", "completed", "goodput/s",
		"shed", "queueTO", "latP50(ms)", "latP99(ms)", "deadline(ms)",
		"maxTier", "finalTier", "tierChanges")
	for _, r := range rows {
		tbl.AddRow(r.Name, r.Offered, r.Completed, round4(r.GoodputPerSec),
			r.Shed, r.QueueTimeouts,
			round4(r.LatP50*1000), round4(r.LatP99*1000),
			round4(r.Deadline.Seconds()*1000),
			r.MaxTier.String(), r.FinalTier.String(), r.TierChanges)
	}
	return tbl
}

// FlashCrowdBalanceTable tabulates a run's per-phase assignment balance:
// Jain's fairness index over the per-host discovery assignments in each
// of the warmup / surge / cooldown windows, with the raw counts alongside
// in HostNames order. It is the H8 view of the paper's uniformity claim —
// balance should dip while the crowd (and the brownout ladder's coarser
// decisions) distort placement, then recover in the cooldown.
func FlashCrowdBalanceTable(hosts int, rows ...FlashCrowdResult) *metrics.Table {
	names := HostNames[:hosts]
	tbl := metrics.NewTable(append([]string{"run", "phase", "fairness"}, names...)...)
	for _, r := range rows {
		for p := range r.PhaseAssignments {
			cells := []interface{}{r.Name, PhaseNames[p], round4(r.PhaseFairness[p])}
			for _, h := range names {
				cells = append(cells, r.PhaseAssignments[p][h])
			}
			tbl.AddRow(cells...)
		}
	}
	return tbl
}

// FlashCrowdReplayIdentical runs the surge configuration twice with the
// same seed and reports whether the two runs' full fingerprints match
// byte for byte — the determinism guarantee the admission controller's
// RNG-free design exists to provide.
func FlashCrowdReplayIdentical(cfg FlashCrowdConfig) (bool, error) {
	a, err := flashRun(cfg, cfg.SurgeClients)
	if err != nil {
		return false, err
	}
	b, err := flashRun(cfg, cfg.SurgeClients)
	if err != nil {
		return false, err
	}
	return a.fingerprint() == b.fingerprint(), nil
}
