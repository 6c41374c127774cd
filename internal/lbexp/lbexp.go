// Package lbexp is the experiment harness behind cmd/lbsim and
// bench_test.go: it assembles the full thesis deployment (registry +
// simulated hosts + published NodeStatus + constrained worker service +
// collector), runs MTC workloads under configurable registry/client
// policies, and renders the tables recorded in EXPERIMENTS.md (experiments
// H1–H4 and the ablations in DESIGN.md).
package lbexp

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/admit"
	"repro/internal/breaker"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hostsim"
	"repro/internal/jaxr"
	"repro/internal/metrics"
	"repro/internal/mtc"
	"repro/internal/nodestate"
	"repro/internal/nodestatus"
	"repro/internal/registry"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/soap"
)

// Epoch is the canonical simulation start: 11:00 on the thesis's approval
// date, safely inside typical business-hours constraints.
var Epoch = time.Date(2011, 4, 22, 11, 0, 0, 0, time.UTC)

// HostNames are the SDSU machines named throughout the thesis.
var HostNames = []string{
	"thermo.sdsu.edu", "exergy.sdsu.edu", "romulus.sdsu.edu",
	"volta.sdsu.edu", "eon.sdsu.edu", "aztec.sdsu.edu",
	"mission.sdsu.edu", "balboa.sdsu.edu",
}

// Config describes one experiment run.
type Config struct {
	// Hosts is the deployment size (capped at len(HostNames)).
	Hosts int
	// Heterogeneous gives hosts differing cores, memory, and ambient
	// background load, which is where state-aware balancing pays off.
	Heterogeneous bool
	// RegistryPolicy is the server-side arrangement policy.
	RegistryPolicy core.Policy
	// TimeMode, Freshness, FallbackAll forward to core.Balancer.
	TimeMode    core.TimeWindowMode
	Freshness   time.Duration
	FallbackAll bool
	// ClientPolicy is the client-side URI pick.
	ClientPolicy mtc.ClientPolicy
	// CollectionPeriod for the NodeStatus collector (default 25 s).
	CollectionPeriod time.Duration
	// Constraint is the worker service's constraint block; empty means
	// the thesis default `load ls <cores+1>`-ish cap below.
	Constraint string
	// NetDelays, when non-empty, assigns per-host network delays (H4).
	NetDelays []float64
	// Workload drives the MTC run.
	Workload mtc.Workload
	// Start overrides the simulation start time (zero = Epoch).
	Start time.Time
	// FaultPlan, when set, wraps the collector's invoker in a
	// deterministic fault injector (H7). Only non-blocking faults (drop,
	// corrupt, flap) are safe here: the MTC driver runs sweeps
	// synchronously off the manual clock, so nothing advances time inside
	// a sweep.
	FaultPlan *faults.Plan
	// Breaker, when set, attaches per-host circuit breakers to the
	// collector.
	Breaker *breaker.Config
	// InvokeTimeout, InvokeRetries, RetryBackoff forward to the collector
	// (see nodestate.WithTimeout / WithRetries).
	InvokeTimeout time.Duration
	InvokeRetries int
	RetryBackoff  time.Duration
	// Degraded forwards to core.Balancer: what discovery serves when every
	// candidate is quarantined or stale.
	Degraded core.DegradedMode
	// Admission, when set, enables the overload-resilient serving edge on
	// the assembled registry (admission control, shedding, deadlines, and
	// the brownout ladder — see internal/admit). The flash-crowd
	// experiment (H8) drives it.
	Admission *admit.Config
}

// DefaultConstraint is the worker constraint used when none is given.
const DefaultConstraint = `<constraint><cpuLoad>load ls 3.0</cpuLoad><memory>memory gr 64MB</memory></constraint>`

// Setup is an assembled experiment environment.
type Setup struct {
	Registry *registry.Registry
	Cluster  *hostsim.Cluster
	Clock    *simclock.Manual
	// Conn is the localCall connection that registered the experimenter
	// and published the deployment. The driver discovers through the
	// registry's serving edge instead, which runs the SOAP codec,
	// admission and the response cache; the answers are the same (thesis
	// §2.2.1).
	Conn      *jaxr.Connection
	Collector *nodestate.Collector
	Driver    *mtc.Driver
	Worker    *rim.Service
	// Injector is the fault injector wrapping the collector's invoker
	// (nil unless Config.FaultPlan was set).
	Injector *faults.Injector
	// Breakers is the collector's breaker set (nil unless Config.Breaker
	// was set).
	Breakers *breaker.Set
}

// NewSetup builds the Fig. 3.7 deployment for cfg.
func NewSetup(cfg Config) (*Setup, error) {
	if cfg.Hosts <= 0 {
		cfg.Hosts = 4
	}
	if cfg.Hosts > len(HostNames) {
		cfg.Hosts = len(HostNames)
	}
	start := cfg.Start
	if start.IsZero() {
		start = Epoch
	}
	clk := simclock.NewManual(start)
	reg, err := registry.New(registry.Config{
		Clock:       clk,
		Policy:      cfg.RegistryPolicy,
		TimeMode:    cfg.TimeMode,
		Freshness:   cfg.Freshness,
		FallbackAll: cfg.FallbackAll,
		Degraded:    cfg.Degraded,
		Admission:   cfg.Admission,
	})
	if err != nil {
		return nil, err
	}

	cluster := hostsim.NewCluster()
	for i := 0; i < cfg.Hosts; i++ {
		hc := hostsim.Config{Name: HostNames[i], Cores: 2, TotalMemB: 4 << 30, TotalSwapB: 2 << 30}
		if cfg.Heterogeneous {
			// Capability spread: 1, 2, 4 cores; 2-8 GB; rising ambient
			// load on later hosts.
			hc.Cores = 1 << uint(i%3)
			hc.TotalMemB = int64(2+2*(i%4)) << 30
			hc.AmbientLoad = 0.4 * float64(i%3)
		}
		if i < len(cfg.NetDelays) {
			hc.NetDelayMs = cfg.NetDelays[i]
		}
		cluster.Add(hostsim.NewHost(hc, start))
	}

	conn := jaxr.ConnectLocal(reg)
	creds, _, err := conn.Register("experimenter", "pw", rim.PersonName{FirstName: "E"})
	if err != nil {
		return nil, err
	}
	if err := conn.Login(creds); err != nil {
		return nil, err
	}

	constraintBlock := cfg.Constraint
	if constraintBlock == "" {
		constraintBlock = DefaultConstraint
	}
	ns := rim.NewService(nodestatus.ServiceName, "Service to monitor node status")
	worker := rim.NewService("Worker", "MTC worker "+constraintBlock)
	for i := 0; i < cfg.Hosts; i++ {
		ns.AddBinding("http://" + HostNames[i] + ":8080/NodeStatus/NodeStatusService")
		worker.AddBinding("http://" + HostNames[i] + ":8080/Worker/workerService")
	}
	org := rim.NewOrganization("San Diego State University (SDSU)")
	assoc1 := rim.NewAssociation(rim.AssocOffersService, org.ID, ns.ID)
	assoc2 := rim.NewAssociation(rim.AssocOffersService, org.ID, worker.ID)
	if _, err := conn.Submit(org, ns, worker, assoc1, assoc2); err != nil {
		return nil, err
	}

	period := cfg.CollectionPeriod
	var opts []nodestate.Option
	if period > 0 {
		opts = append(opts, nodestate.WithPeriod(period))
	}
	if cfg.InvokeTimeout > 0 {
		opts = append(opts, nodestate.WithTimeout(cfg.InvokeTimeout))
	}
	if cfg.InvokeRetries > 0 {
		opts = append(opts, nodestate.WithRetries(cfg.InvokeRetries, cfg.RetryBackoff))
	}
	var breakers *breaker.Set
	if cfg.Breaker != nil {
		breakers = breaker.NewSet(*cfg.Breaker)
		opts = append(opts, nodestate.WithBreakers(breakers))
	}
	invoker := nodestatus.Invoker(hostsim.LocalInvoker{Cluster: cluster, Clock: clk})
	var injector *faults.Injector
	if cfg.FaultPlan != nil {
		injector = faults.New(invoker, clk, *cfg.FaultPlan)
		invoker = injector
	}
	collector := nodestate.New(reg.Store.NodeState(), invoker, clk,
		reg.QM.CollectionTargets, opts...)
	collector.CollectOnce()

	edge := jaxr.Connect("http://registry", &http.Client{
		Transport: handlerTransport{reg.Handler()},
		Timeout:   soap.DefaultTimeout,
	})
	return &Setup{
		Injector:  injector,
		Breakers:  breakers,
		Registry:  reg,
		Cluster:   cluster,
		Clock:     clk,
		Conn:      conn,
		Collector: collector,
		Worker:    worker,
		Driver: &mtc.Driver{
			Conn: edge, Policy: cfg.RegistryPolicy.String(), Cluster: cluster, Clock: clk,
			ServiceName: "Worker", Client: cfg.ClientPolicy,
			Collector: collector, MaxRetries: 2,
		},
	}, nil
}

// handlerTransport is an http.RoundTripper that serves each request by
// calling the registry's handler in process: no socket and no goroutine,
// so an experiment on the manual clock replays exactly.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	w := httptest.NewRecorder()
	t.h.ServeHTTP(w, req)
	if req.Body != nil {
		req.Body.Close()
	}
	return w.Result(), nil
}

// Run assembles and executes one experiment.
func Run(cfg Config) (*mtc.Report, error) {
	s, err := NewSetup(cfg)
	if err != nil {
		return nil, err
	}
	return s.Driver.Run(cfg.Workload)
}

// Combo names one (registry policy, client policy) pairing for H1.
type Combo struct {
	Name     string
	Registry core.Policy
	Client   mtc.ClientPolicy
	// Fallback serves load-ordered URIs when no host satisfies the
	// constraints (instead of dropping the request).
	Fallback bool
}

// H1Combos are the policy pairings of experiment H1: the stock baseline
// with first-URI clients (the overload case the thesis motivates),
// client-side random and round-robin baselines, and the thesis's scheme in
// its filter and least-loaded variants — each with and without the
// empty-result fallback, since strict filtering can drop requests when the
// whole cluster violates the constraint (DESIGN.md ablation 3).
var H1Combos = []Combo{
	{Name: "stock/first-uri", Registry: core.PolicyStock, Client: mtc.ClientFirst},
	{Name: "stock/random", Registry: core.PolicyStock, Client: mtc.ClientRandom},
	{Name: "stock/round-robin", Registry: core.PolicyStock, Client: mtc.ClientRoundRobin},
	{Name: "lb-filter/first-uri", Registry: core.PolicyFilter, Client: mtc.ClientFirst},
	{Name: "lb-filter+fb/first-uri", Registry: core.PolicyFilter, Client: mtc.ClientFirst, Fallback: true},
	{Name: "lb-rank/first-uri", Registry: core.PolicyRankFirst, Client: mtc.ClientFirst},
	{Name: "lb-least-loaded/first-uri", Registry: core.PolicyLeastLoaded, Client: mtc.ClientFirst},
	{Name: "lb-least-loaded+fb/first-uri", Registry: core.PolicyLeastLoaded, Client: mtc.ClientFirst, Fallback: true},
}

// ComparePolicies runs the same workload under each combo and tabulates
// imbalance and latency (tables H1-load / H1-mem of EXPERIMENTS.md).
func ComparePolicies(base Config, combos []Combo) (*metrics.Table, []*mtc.Report, error) {
	tbl := metrics.NewTable("policy", "completed", "dropped",
		"loadFairness", "loadStddev", "loadSpread", "memFairness",
		"latMean(s)", "latP95(s)", "makespan(s)")
	var reports []*mtc.Report
	for _, combo := range combos {
		cfg := base
		cfg.RegistryPolicy = combo.Registry
		cfg.ClientPolicy = combo.Client
		cfg.FallbackAll = combo.Fallback
		rep, err := Run(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("lbexp: combo %s: %w", combo.Name, err)
		}
		reports = append(reports, rep)

		load := rep.FinalLoadSummary()
		lat := rep.LatencySummary()
		memFair := meanMemFairness(rep)
		tbl.AddRow(combo.Name, rep.Completed, rep.Dropped,
			round4(rep.MeanFairness()), round4(load.Stddev), round4(load.Spread()), round4(memFair),
			round4(lat.Mean), round4(metrics.Percentile(rep.Latencies, 95)),
			round4(rep.Makespan.Seconds()))
	}
	return tbl, reports, nil
}

func meanMemFairness(rep *mtc.Report) float64 {
	// Jain fairness of used-memory fractions at each sample, averaged.
	var hosts []string
	for h := range rep.MemSeries {
		hosts = append(hosts, h)
	}
	if len(hosts) == 0 {
		return 1
	}
	n := len(rep.MemSeries[hosts[0]].Values)
	var acc float64
	var samples int
	for i := 0; i < n; i++ {
		var vals []float64
		for _, h := range hosts {
			s := rep.MemSeries[h]
			if i < len(s.Values) {
				vals = append(vals, s.Values[i])
			}
		}
		acc += metrics.JainFairness(vals)
		samples++
	}
	if samples == 0 {
		return 1
	}
	return acc / float64(samples)
}

func round4(v float64) float64 {
	return float64(int64(v*10000+0.5)) / 10000
}

// PeriodSweep runs experiment H2: the same load-balanced workload under
// different collection periods, tabulating imbalance and collector cost.
func PeriodSweep(base Config, periods []time.Duration) (*metrics.Table, error) {
	tbl := metrics.NewTable("period", "sweeps", "loadFairness", "loadStddev", "latMean(s)", "dropped")
	for _, p := range periods {
		cfg := base
		cfg.CollectionPeriod = p
		s, err := NewSetup(cfg)
		if err != nil {
			return nil, err
		}
		rep, err := s.Driver.Run(cfg.Workload)
		if err != nil {
			return nil, err
		}
		sweeps := s.Collector.FaultStats().Sweeps
		tbl.AddRow(p.String(), sweeps, round4(rep.MeanFairness()),
			round4(rep.FinalLoadSummary().Stddev),
			round4(rep.LatencySummary().Mean), rep.Dropped)
	}
	return tbl, nil
}

// TimeOfDayResult is one row of experiment H3.
type TimeOfDayResult struct {
	RequestHour int
	Mode        core.TimeWindowMode
	URIs        int
	Filtered    bool
	WindowOK    bool
}

// TimeOfDay runs experiment H3: a service windowed 1000–1200 queried at
// different hours under both window modes.
func TimeOfDay(hosts int) ([]TimeOfDayResult, *metrics.Table, error) {
	tbl := metrics.NewTable("hour", "mode", "urisReturned", "windowOk")
	var results []TimeOfDayResult
	for _, mode := range []core.TimeWindowMode{core.TimeWindowSkipFiltering, core.TimeWindowExclude} {
		for _, hour := range []int{9, 10, 11, 12, 13, 23} {
			cfg := Config{
				Hosts:          hosts,
				RegistryPolicy: core.PolicyFilter,
				TimeMode:       mode,
				Constraint: `<constraint><cpuLoad>load ls 5.0</cpuLoad>` +
					`<starttime>1000</starttime><endtime>1200</endtime></constraint>`,
				Start: time.Date(2011, 4, 22, hour, 30, 0, 0, time.UTC),
			}
			s, err := NewSetup(cfg)
			if err != nil {
				return nil, nil, err
			}
			uris, dec, err := s.Conn.ServiceBindings("Worker")
			if err != nil {
				return nil, nil, err
			}
			modeName := "skip-filtering"
			if mode == core.TimeWindowExclude {
				modeName = "exclude"
			}
			results = append(results, TimeOfDayResult{
				RequestHour: hour, Mode: mode, URIs: len(uris),
				Filtered: dec.Filtered, WindowOK: dec.WindowOK,
			})
			tbl.AddRow(fmt.Sprintf("%02d:30", hour), modeName, len(uris), dec.WindowOK)
		}
	}
	return results, tbl, nil
}

// FailureResult is one row of experiment H5.
type FailureResult struct {
	Name              string
	Completed         int
	Dropped           int
	Unfinished        int
	Retries           int
	TasksOnFailedHost int
}

// Failure runs experiment H5: the host behind the service's *first* stored
// binding — the one every stock first-URI client lands on — dies partway
// through the workload. A stock registry keeps returning the dead host's
// URI first, so dispatches burn client retries; the load-balanced registry
// stops serving the host after its next failed NodeStatus sweep (the
// collector's failure tracking). The retry totals and the dead host's task
// count expose the difference; Unfinished counts tasks still in flight at
// the drain deadline.
func Failure(base Config, failAfter time.Duration) (*metrics.Table, []FailureResult, error) {
	tbl := metrics.NewTable("registry", "completed", "dropped", "unfinished", "retries", "tasksOnFailedHost")
	var results []FailureResult
	for _, combo := range []Combo{
		{Name: "stock", Registry: core.PolicyStock, Client: mtc.ClientFirst},
		{Name: "lb-least-loaded+fb", Registry: core.PolicyLeastLoaded, Client: mtc.ClientFirst, Fallback: true},
	} {
		cfg := base
		cfg.RegistryPolicy = combo.Registry
		cfg.ClientPolicy = combo.Client
		cfg.FallbackAll = combo.Fallback
		s, err := NewSetup(cfg)
		if err != nil {
			return nil, nil, err
		}
		// Kill the first-binding host (the stock client's target) at the
		// simulated instant failAfter from now.
		failed := s.Cluster.Host(rim.HostOfURI(s.Worker.AccessURIs()[0]))
		failed.SetDownFrom(s.Clock.Now().Add(failAfter))
		rep, err := s.Driver.Run(cfg.Workload)
		if err != nil {
			return nil, nil, err
		}
		res := FailureResult{
			Name:              combo.Name,
			Completed:         rep.Completed,
			Dropped:           rep.Dropped,
			Unfinished:        rep.Tasks - rep.Completed - rep.Dropped,
			Retries:           rep.Retries,
			TasksOnFailedHost: rep.PerHostTasks[failed.Name()],
		}
		results = append(results, res)
		tbl.AddRow(res.Name, res.Completed, res.Dropped, res.Unfinished, res.Retries, res.TasksOnFailedHost)
	}
	return tbl, results, nil
}

// FlakyHosts is how many of the eight hosts the H7 fault injector
// targets (the first FlakyHosts entries of HostNames).
const FlakyHosts = 2

// flakyConfig builds the H7 deployment: the full eight-host homogeneous
// cluster under least-loaded arrangement with fallback and static
// degradation, per-host circuit breakers on the collector, and a fault
// plan dropping the given fraction of NodeStatus invocations on the first
// two hosts. A flap window (100 s down out of every 250 s) is layered on
// top so the faulty hosts reliably accumulate the consecutive sweep
// failures that trip a breaker even at modest drop rates. Only
// non-blocking faults appear here — the MTC driver runs sweeps
// synchronously off the manual clock — and the retry backoff stays zero
// for the same reason.
func flakyConfig(base Config, dropRate float64) Config {
	cfg := base
	cfg.Hosts = len(HostNames)
	cfg.Heterogeneous = false
	cfg.RegistryPolicy = core.PolicyLeastLoaded
	cfg.ClientPolicy = mtc.ClientFirst
	cfg.FallbackAll = true
	cfg.Degraded = core.DegradedStatic
	cfg.InvokeTimeout = 5 * time.Second
	cfg.InvokeRetries = 1
	cfg.RetryBackoff = 0
	// Freshness evicts rows the injector has silenced (staleness), while
	// the breaker quarantines hosts that fail sweeps outright — the two
	// mechanisms H7 is designed to exercise together. The 100 s backoff
	// keeps a tripped host benched for most of a flap's down window.
	cfg.Freshness = 60 * time.Second
	cfg.Breaker = &breaker.Config{
		Seed:        cfg.Workload.Seed,
		BaseBackoff: 100 * time.Second,
		MaxBackoff:  200 * time.Second,
	}
	if dropRate > 0 {
		cfg.FaultPlan = &faults.Plan{
			Hosts:      HostNames[:FlakyHosts],
			DropRate:   dropRate,
			FlapPeriod: 250 * time.Second,
			FlapDuty:   0.4,
			Seed:       cfg.Workload.Seed,
		}
	}
	return cfg
}

// FlakyResult is one row of experiment H7.
type FlakyResult struct {
	DropRate  float64
	Completed int
	Dropped   int
	Fairness  float64
	Stats     nodestate.Stats
	// Trips totals breaker open transitions across all hosts.
	Trips int
	// FaultyTasks and HealthyTasks are the mean per-host task counts on
	// the fault-injected and clean hosts respectively.
	FaultyTasks  float64
	HealthyTasks float64
	// Shares is each host's completed-task count in HostNames order, and
	// TaskFairness is Jain's index over those counts — the assignment-side
	// view of balance, as opposed to Fairness's load-sample view.
	Shares       []float64
	TaskFairness float64
}

// Flaky runs experiment H7: the same workload under increasing NodeStatus
// drop rates on two of eight hosts, tabulating throughput, collector
// fault counters, breaker trips, and how task placement shifts away from
// the flaky hosts while the healthy majority keeps a balanced share.
func Flaky(base Config, dropRates []float64) (*metrics.Table, []FlakyResult, error) {
	tbl := metrics.NewTable("dropRate", "completed", "dropped", "loadFairness",
		"taskFairness", "sweepErrs", "timeouts", "retries", "skips", "trips",
		"faultyTasks", "healthyTasks")
	var results []FlakyResult
	for _, rate := range dropRates {
		res, _, err := flakyRun(base, rate)
		if err != nil {
			return nil, nil, fmt.Errorf("lbexp: flaky rate %g: %w", rate, err)
		}
		results = append(results, res)
		tbl.AddRow(rate, res.Completed, res.Dropped, round4(res.Fairness),
			round4(res.TaskFairness),
			res.Stats.Errs, res.Stats.Timeouts, res.Stats.Retries,
			res.Stats.Skipped, res.Trips,
			round4(res.FaultyTasks), round4(res.HealthyTasks))
	}
	return tbl, results, nil
}

// FlakySharesTable tabulates each H7 run's per-host completed-task
// shares in HostNames order — the raw assignment distribution behind the
// taskFairness column, showing load draining off the quarantined hosts
// and staying even across the healthy majority.
func FlakySharesTable(results []FlakyResult) *metrics.Table {
	tbl := metrics.NewTable(append([]string{"dropRate"}, HostNames...)...)
	for _, res := range results {
		cells := []interface{}{res.DropRate}
		for _, n := range res.Shares {
			cells = append(cells, n)
		}
		tbl.AddRow(cells...)
	}
	return tbl
}

// flakyRun executes one H7 configuration. The returned fingerprint is a
// complete deterministic rendering of the run's observable state —
// placement, collector counters, fault log counts, breaker snapshot —
// used by FlakyReplayIdentical to prove seeded replays are byte-identical.
func flakyRun(base Config, dropRate float64) (FlakyResult, string, error) {
	cfg := flakyConfig(base, dropRate)
	s, err := NewSetup(cfg)
	if err != nil {
		return FlakyResult{}, "", err
	}
	rep, err := s.Driver.Run(cfg.Workload)
	if err != nil {
		return FlakyResult{}, "", err
	}
	res := FlakyResult{
		DropRate:  dropRate,
		Completed: rep.Completed,
		Dropped:   rep.Dropped,
		Fairness:  rep.MeanFairness(),
		Stats:     s.Collector.FaultStats(),
	}
	shares := rep.TaskShare(HostNames)
	res.Shares = shares
	res.TaskFairness = metrics.JainFairness(shares)
	for i, n := range shares {
		if i < FlakyHosts {
			res.FaultyTasks += n / FlakyHosts
		} else {
			res.HealthyTasks += n / float64(len(HostNames)-FlakyHosts)
		}
	}
	var snap []breaker.HostStatus
	if s.Breakers != nil {
		snap = s.Breakers.Snapshot()
		for _, hs := range snap {
			res.Trips += hs.Trips
		}
	}
	var counts map[faults.Kind]int
	if s.Injector != nil {
		counts = s.Injector.Counts()
	}
	fingerprint := fmt.Sprintf("tasks=%v lat=%v stats=%+v faults=%v breakers=%+v",
		rep.PerHostTasks, rep.Latencies, res.Stats, counts, snap)
	return res, fingerprint, nil
}

// FlakyReplayIdentical runs one H7 configuration twice with the same seed
// and reports whether the two runs' full fingerprints match byte for
// byte — the determinism guarantee the fault injector and breakers are
// built around.
func FlakyReplayIdentical(base Config, dropRate float64) (bool, error) {
	_, a, err := flakyRun(base, dropRate)
	if err != nil {
		return false, err
	}
	_, b, err := flakyRun(base, dropRate)
	if err != nil {
		return false, err
	}
	return a == b, nil
}

// NetDelay runs experiment H4 (the §5.2 future-work extension): hosts with
// different network delays, a netdelay constraint, and the count of URIs
// surviving the filter.
func NetDelay(hosts int, limitMs float64) (*metrics.Table, error) {
	delays := make([]float64, hosts)
	for i := range delays {
		delays[i] = float64(5 + 15*i) // 5, 20, 35, 50, ... ms
	}
	cfg := Config{
		Hosts:          hosts,
		RegistryPolicy: core.PolicyFilter,
		NetDelays:      delays,
		Constraint:     fmt.Sprintf(`<constraint><netdelay>netdelay ls %g</netdelay></constraint>`, limitMs),
	}
	s, err := NewSetup(cfg)
	if err != nil {
		return nil, err
	}
	uris, dec, err := s.Conn.ServiceBindings("Worker")
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("host", "netdelay(ms)", "eligible")
	for i := 0; i < hosts; i++ {
		eligible := delays[i] < limitMs
		tbl.AddRow(HostNames[i], delays[i], fmt.Sprintf("%v", eligible))
	}
	tbl.AddRow("returned URIs", float64(len(uris)), fmt.Sprintf("filtered=%v", dec.Filtered))
	return tbl, nil
}
