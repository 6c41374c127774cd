// Package mtc implements the Many-Task Computing workload of thesis §3.1:
// "large numbers of computing resources over short periods of time",
// deployed as a Web Service on multiple hosts and driven through registry
// discovery. The Driver generates tasks, discovers the target service's
// access URIs through the registry on every invocation (Fig. 3.3), picks
// one according to a client policy, and executes the task on the simulated
// cluster — while the registry's NodeStatus collector polls in the
// background on its configured period.
//
// The client policies isolate what the thesis's scheme contributes:
//
//   - ClientFirst always takes the first returned URI — the calling
//     pattern the thesis assumes ("this usually restricts a calling
//     process to a Web Service invocation on one host"). Against a stock
//     registry this is the overload baseline; against the modified
//     registry it inherits the balancer's arrangement.
//   - ClientRandom and ClientRoundRobin are classic client-side baselines
//     that ignore host state.
package mtc

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/hostsim"
	"repro/internal/jaxr"
	"repro/internal/metrics"
	"repro/internal/nodestate"
	"repro/internal/rim"
	"repro/internal/simclock"
)

// ClientPolicy selects how the client picks among returned URIs.
type ClientPolicy int

// Client policies.
const (
	ClientFirst ClientPolicy = iota
	ClientRandom
	ClientRoundRobin
)

// String names the policy.
func (p ClientPolicy) String() string {
	switch p {
	case ClientFirst:
		return "first-uri"
	case ClientRandom:
		return "random"
	case ClientRoundRobin:
		return "round-robin"
	default:
		return "unknown-client"
	}
}

// Workload parameterizes a run.
type Workload struct {
	// Tasks is the number of tasks to dispatch.
	Tasks int
	// MeanInterarrival is the average gap between task submissions;
	// arrivals are exponential (Poisson process) unless Deterministic.
	MeanInterarrival time.Duration
	// Deterministic makes arrivals evenly spaced.
	Deterministic bool
	// TaskCPU is the mean dedicated-core seconds per task; actual values
	// are uniform in [0.5, 1.5]×mean.
	TaskCPU float64
	// TaskMemB is the memory footprint per task.
	TaskMemB int64
	// Seed drives all randomness for reproducibility.
	Seed int64
	// SampleEvery is the metrics sampling interval (default 5 s).
	SampleEvery time.Duration
	// Drain caps how long to wait for in-flight tasks after the last
	// arrival (default 10 min of simulated time).
	Drain time.Duration
}

// Report aggregates a run's outcome.
type Report struct {
	Policy       string
	Client       ClientPolicy
	Tasks        int
	Completed    int
	Dropped      int
	Retries      int
	PerHostTasks map[string]int
	// Latencies collects completed tasks' wall-clock residence times in
	// seconds.
	Latencies []float64
	// LoadSeries tracks each host's load average over time, sampled
	// every SampleEvery.
	LoadSeries map[string]*metrics.Series
	// MemSeries tracks each host's used physical memory fraction.
	MemSeries map[string]*metrics.Series
	// FairnessOverTime is Jain's index across hosts at each sample.
	FairnessOverTime []float64
	// Makespan is the simulated time from first arrival to last
	// completion.
	Makespan time.Duration
}

// TaskShare returns each host's completed-task counts in host-name order
// for the given names.
func (r *Report) TaskShare(names []string) []float64 {
	out := make([]float64, len(names))
	for i, n := range names {
		out[i] = float64(r.PerHostTasks[n])
	}
	return out
}

// MeanFairness averages the per-sample Jain fairness of host loads.
func (r *Report) MeanFairness() float64 {
	return metrics.Summarize(r.FairnessOverTime).Mean
}

// LatencySummary summarizes task latencies.
func (r *Report) LatencySummary() metrics.Summary {
	return metrics.Summarize(r.Latencies)
}

// FinalLoadSummary summarizes the last sampled load across hosts.
func (r *Report) FinalLoadSummary() metrics.Summary {
	var loads []float64
	for _, s := range r.LoadSeries {
		loads = append(loads, s.Last())
	}
	return metrics.Summarize(loads)
}

// Driver executes workloads.
type Driver struct {
	// Conn is the registry connection used for discovery: in localCall
	// mode or over SOAP, the path is the same (thesis §2.2.1).
	Conn *jaxr.Connection
	// Policy names the registry's arrangement policy in the report.
	Policy string
	// Cluster executes the tasks.
	Cluster *hostsim.Cluster
	// Clock must be the same Manual clock the registry uses.
	Clock *simclock.Manual
	// ServiceName is the discovered Web Service.
	ServiceName string
	// Client selects the client-side URI pick.
	Client ClientPolicy
	// Collector, when non-nil, is swept on its own period during the
	// run (the registry's TimeHits timer).
	Collector *nodestate.Collector
	// MaxRetries bounds per-task fallback attempts across the returned
	// URI list when a submit fails (host down / OOM).
	MaxRetries int

	rr int // round-robin cursor
}

// Run drives one workload to completion and reports.
func (d *Driver) Run(w Workload) (*Report, error) {
	if w.Tasks <= 0 {
		return nil, fmt.Errorf("mtc: workload needs Tasks > 0")
	}
	if w.MeanInterarrival <= 0 {
		w.MeanInterarrival = time.Second
	}
	if w.TaskCPU <= 0 {
		w.TaskCPU = 10
	}
	if w.TaskMemB <= 0 {
		w.TaskMemB = 64 << 20
	}
	if w.SampleEvery <= 0 {
		w.SampleEvery = 5 * time.Second
	}
	if w.Drain <= 0 {
		w.Drain = 10 * time.Minute
	}
	rng := rand.New(rand.NewSource(w.Seed))

	rep := &Report{
		Client:       d.Client,
		Tasks:        w.Tasks,
		PerHostTasks: make(map[string]int),
		LoadSeries:   make(map[string]*metrics.Series),
		MemSeries:    make(map[string]*metrics.Series),
	}
	names := d.Cluster.Names()
	for _, n := range names {
		rep.LoadSeries[n] = &metrics.Series{Name: n}
		rep.MemSeries[n] = &metrics.Series{Name: n}
	}

	// Pre-compute arrival offsets.
	arrivals := make([]time.Duration, w.Tasks)
	var at time.Duration
	for i := range arrivals {
		if w.Deterministic {
			at += w.MeanInterarrival
		} else {
			at += time.Duration(rng.ExpFloat64() * float64(w.MeanInterarrival))
		}
		arrivals[i] = at
	}

	start := d.Clock.Now()
	end := start.Add(arrivals[len(arrivals)-1]).Add(w.Drain)
	nextCollect := start
	nextSample := start
	nextArrival := 0
	var firstArrival, lastCompletion time.Time

	const tick = time.Second
	for now := start; !now.After(end); now = now.Add(tick) {
		d.Clock.Set(now)

		// Background collection on the registry's period.
		if d.Collector != nil && !now.Before(nextCollect) {
			d.Collector.CollectOnce()
			nextCollect = now.Add(d.Collector.Period())
		}

		// Dispatch all tasks whose arrival time has come.
		for nextArrival < w.Tasks && !now.Before(start.Add(arrivals[nextArrival])) {
			if firstArrival.IsZero() {
				firstArrival = now
			}
			cpu := w.TaskCPU * (0.5 + rng.Float64())
			task := hostsim.Task{
				ID:         fmt.Sprintf("task-%d", nextArrival),
				CPUSeconds: cpu,
				MemB:       w.TaskMemB,
			}
			if host, retries, ok := d.dispatch(task, rng, now); ok {
				rep.PerHostTasks[host]++
				rep.Retries += retries
			} else {
				rep.Dropped++
				rep.Retries += retries
			}
			nextArrival++
		}

		// Advance hosts; gather completions in host-name order so the
		// report (and anything derived from it) replays byte-identically
		// from the same seed.
		completions := d.Cluster.AdvanceTo(now)
		for _, host := range names {
			for _, c := range completions[host] {
				rep.Completed++
				rep.Latencies = append(rep.Latencies, c.Latency().Seconds())
				if c.Finish.After(lastCompletion) {
					lastCompletion = c.Finish
				}
			}
		}

		// Metrics sampling.
		if !now.Before(nextSample) {
			loads := make([]float64, 0, len(names))
			for _, n := range names {
				h := d.Cluster.Host(n)
				l := h.LoadAvg()
				rep.LoadSeries[n].Add(now, l)
				loads = append(loads, l)
				if s, err := h.Sample(now); err == nil {
					total := h.Config().TotalMemB
					rep.MemSeries[n].Add(now, 1-float64(s.MemoryB)/float64(total))
				}
			}
			rep.FairnessOverTime = append(rep.FairnessOverTime, metrics.JainFairness(loads))
			nextSample = now.Add(w.SampleEvery)
		}

		// Early exit: everything arrived and completed.
		if nextArrival == w.Tasks && rep.Completed+rep.Dropped >= w.Tasks {
			break
		}
	}
	if !lastCompletion.IsZero() && !firstArrival.IsZero() {
		rep.Makespan = lastCompletion.Sub(firstArrival)
	}
	rep.Policy = d.Policy
	return rep, nil
}

// dispatch discovers, picks, and submits one task, retrying down the URI
// list on failure. It returns the executing host name.
func (d *Driver) dispatch(task hostsim.Task, rng *rand.Rand, now time.Time) (host string, retries int, ok bool) {
	uris, _, err := d.Conn.ServiceBindings(d.ServiceName)
	if err != nil || len(uris) == 0 {
		return "", 0, false
	}
	order := d.pickOrder(uris, rng)
	maxTries := d.MaxRetries + 1
	if maxTries > len(order) {
		maxTries = len(order)
	}
	for i := 0; i < maxTries; i++ {
		h := rim.HostOfURI(order[i])
		target := d.Cluster.Host(h)
		if target == nil {
			retries++
			continue
		}
		if err := target.Submit(task, now); err != nil {
			retries++
			continue
		}
		return h, retries, true
	}
	return "", retries, false
}

// pickOrder arranges the candidate URIs according to the client policy.
func (d *Driver) pickOrder(uris []string, rng *rand.Rand) []string {
	out := append([]string(nil), uris...)
	switch d.Client {
	case ClientRandom:
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	case ClientRoundRobin:
		k := d.rr % len(out)
		d.rr++
		out = append(out[k:], out[:k]...)
	}
	return out
}
