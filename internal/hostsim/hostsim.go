// Package hostsim simulates the host machines the thesis deploys Web
// Services on (volta, thermo, exergy, romulus, eon at SDSU). The
// load-balancing scheme observes exactly three scalars per host — CPU load
// (run-queue length), available physical memory, and available swap — so a
// compact queueing simulation reproduces the signals the real testbed
// produced, with the advantage that dynamics are deterministic under the
// simclock and controllable for experiments.
//
// The model:
//
//   - Each host has a fixed number of cores and executes submitted tasks
//     under processor sharing: with n runnable tasks on c cores, every task
//     progresses at rate min(1, c/n). An overloaded host therefore slows
//     all its tasks down, which is what makes poor URI selection costly in
//     the MTC experiments.
//   - CPU load is reported as a Unix-style one-minute exponentially damped
//     load average over the run-queue length (plus any configured ambient
//     load from background processes).
//   - Task memory is charged against physical memory first and spills to
//     swap when RAM is exhausted; a task that fits in neither is rejected.
//   - Hosts can be marked down to simulate failures, now or from a
//     simulated instant on: NodeStatus collection fails and submissions
//     are refused.
//
// All state advances only through AdvanceTo, driven by a simclock, so runs
// are reproducible.
package hostsim

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/constraint"
)

// loadAvgWindow is the e-folding period of the reported load average,
// matching the Unix 1-minute load average the thesis's NodeStatus service
// reads from the OS.
const loadAvgWindow = time.Minute

// Config describes a simulated host.
type Config struct {
	Name        string  // hostname, e.g. "thermo.sdsu.edu"
	Cores       int     // CPU cores; default 1
	TotalMemB   int64   // physical memory capacity in bytes
	TotalSwapB  int64   // swap capacity in bytes
	AmbientLoad float64 // constant background run-queue contribution
	NetDelayMs  float64 // baseline network delay to this host (H4 extension)
}

// Task is one unit of MTC work: it needs CPUSeconds of dedicated-core time
// and holds MemB bytes for its whole run.
type Task struct {
	ID         string
	CPUSeconds float64
	MemB       int64
}

// Completed reports a finished task.
type Completed struct {
	Task     Task
	Start    time.Time
	Finish   time.Time
	SwapUsed bool // true if any of the task's memory lived in swap
}

// Latency returns the task's wall-clock residence time.
func (c Completed) Latency() time.Duration { return c.Finish.Sub(c.Start) }

type runningTask struct {
	task      Task
	start     time.Time
	remaining float64 // CPU seconds still needed
	memRAM    int64
	memSwap   int64
}

// Host is one simulated machine. Methods are safe for concurrent use; time
// only moves via AdvanceTo.
type Host struct {
	cfg Config

	mu        sync.Mutex
	now       time.Time
	loadAvg   float64
	running   []*runningTask
	usedRAM   int64
	usedSwap  int64
	down      bool
	downFrom  time.Time   // zero = no scheduled failure
	completed []Completed // drained by AdvanceTo callers
	submitted int
	rejected  int
}

// NewHost creates a host at the given start time.
func NewHost(cfg Config, start time.Time) *Host {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.TotalMemB <= 0 {
		cfg.TotalMemB = 4 << 30
	}
	if cfg.TotalSwapB < 0 {
		cfg.TotalSwapB = 0
	}
	return &Host{cfg: cfg, now: start, loadAvg: cfg.AmbientLoad}
}

// Name returns the hostname.
func (h *Host) Name() string { return h.cfg.Name }

// Config returns the host's configuration.
func (h *Host) Config() Config { return h.cfg }

// SetDown marks the host failed (true) or recovered (false).
func (h *Host) SetDown(down bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.down = down
}

// SetDownFrom schedules a failure: the host goes down at the simulated
// instant at, as the first Submit, Sample or AdvanceTo that reaches it
// finds, however the caller's goroutines are scheduled.
func (h *Host) SetDownFrom(at time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.downFrom = at
	h.noteDownLocked()
}

// noteDownLocked applies a scheduled failure the host clock has reached.
func (h *Host) noteDownLocked() {
	if !h.downFrom.IsZero() && !h.now.Before(h.downFrom) {
		h.down, h.downFrom = true, time.Time{}
	}
}

// Down reports whether the host is failed.
func (h *Host) Down() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.down
}

// Stats reports lifetime submission counters: submitted accepted tasks and
// rejected ones.
func (h *Host) Stats() (submitted, rejected int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.submitted, h.rejected
}

// Submit starts a task at time now (which must not precede the host
// clock; the host is advanced to now first). It returns an error when the
// host is down or the task's memory fits in neither RAM nor swap.
func (h *Host) Submit(t Task, now time.Time) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.advanceLocked(now)
	if h.down {
		h.rejected++
		return fmt.Errorf("hostsim: host %s is down", h.cfg.Name)
	}
	if t.CPUSeconds <= 0 {
		return fmt.Errorf("hostsim: task %s has non-positive cpu time", t.ID)
	}
	rt := &runningTask{task: t, start: h.now, remaining: t.CPUSeconds}
	free := h.cfg.TotalMemB - h.usedRAM
	if t.MemB <= free {
		rt.memRAM = t.MemB
	} else {
		rt.memRAM = free
		if rt.memRAM < 0 {
			rt.memRAM = 0
		}
		rt.memSwap = t.MemB - rt.memRAM
		if h.usedSwap+rt.memSwap > h.cfg.TotalSwapB {
			h.rejected++
			return fmt.Errorf("hostsim: host %s out of memory for task %s (%d bytes)", h.cfg.Name, t.ID, t.MemB)
		}
	}
	h.usedRAM += rt.memRAM
	h.usedSwap += rt.memSwap
	h.running = append(h.running, rt)
	h.submitted++
	return nil
}

// AdvanceTo moves the host's clock to now, progressing tasks under
// processor sharing and updating the load average. It returns the tasks
// completed since the previous call, in completion order.
func (h *Host) AdvanceTo(now time.Time) []Completed {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.advanceLocked(now)
	done := h.completed
	h.completed = nil
	return done
}

// advanceLocked advances simulation state to now in completion-bounded
// substeps so per-task rates stay correct as the run queue drains.
func (h *Host) advanceLocked(now time.Time) {
	for now.After(h.now) {
		dt := now.Sub(h.now).Seconds()
		n := len(h.running)
		rate := 1.0
		if n > h.cfg.Cores {
			rate = float64(h.cfg.Cores) / float64(n)
		}
		step := dt
		if n > 0 {
			// Time until the first completion at the current rate.
			minRemain := math.Inf(1)
			for _, rt := range h.running {
				if rt.remaining < minRemain {
					minRemain = rt.remaining
				}
			}
			if t := minRemain / rate; t < step {
				step = t
			}
		}
		h.stepLoadLocked(step)
		next := h.now.Add(time.Duration(step * float64(time.Second)))
		if n > 0 {
			keep := h.running[:0]
			for _, rt := range h.running {
				rt.remaining -= rate * step
				if rt.remaining <= 1e-12 {
					h.usedRAM -= rt.memRAM
					h.usedSwap -= rt.memSwap
					h.completed = append(h.completed, Completed{
						Task: rt.task, Start: rt.start, Finish: next, SwapUsed: rt.memSwap > 0,
					})
				} else {
					keep = append(keep, rt)
				}
			}
			h.running = keep
		}
		h.now = next
		if step <= 0 {
			break
		}
	}
	h.noteDownLocked()
}

// stepLoadLocked applies the exponentially damped load-average update for a
// step of dt seconds at the current run-queue length.
func (h *Host) stepLoadLocked(dt float64) {
	if dt <= 0 {
		return
	}
	n := float64(len(h.running)) + h.cfg.AmbientLoad
	k := math.Exp(-dt / loadAvgWindow.Seconds())
	h.loadAvg = h.loadAvg*k + n*(1-k)
}

// Sample returns the host's current NodeStatus measurement after advancing
// to now. It fails when the host is down, mirroring a timed-out NodeStatus
// invocation.
func (h *Host) Sample(now time.Time) (constraint.Sample, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.advanceLocked(now)
	if h.down {
		return constraint.Sample{}, fmt.Errorf("hostsim: host %s is down", h.cfg.Name)
	}
	return constraint.Sample{
		Load:       h.loadAvg,
		MemoryB:    h.cfg.TotalMemB - h.usedRAM,
		SwapB:      h.cfg.TotalSwapB - h.usedSwap,
		NetDelayMs: h.cfg.NetDelayMs,
	}, nil
}

// RunQueue returns the instantaneous number of running tasks.
func (h *Host) RunQueue() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.running)
}

// LoadAvg returns the current damped load average without advancing time.
func (h *Host) LoadAvg() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.loadAvg
}

// Cluster is a named set of hosts advanced together.
type Cluster struct {
	mu    sync.RWMutex
	hosts map[string]*Host
	order []string
}

// NewCluster creates an empty cluster.
func NewCluster() *Cluster {
	return &Cluster{hosts: make(map[string]*Host)}
}

// Add registers a host; adding a duplicate name panics (a configuration
// bug).
func (c *Cluster) Add(h *Host) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.hosts[h.Name()]; dup {
		panic("hostsim: duplicate host " + h.Name())
	}
	c.hosts[h.Name()] = h
	c.order = append(c.order, h.Name())
	sort.Strings(c.order)
}

// Host returns the host with the given name, or nil.
func (c *Cluster) Host(name string) *Host {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hosts[name]
}

// Names returns the host names in sorted order.
func (c *Cluster) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.order...)
}

// Hosts returns the hosts in name order.
func (c *Cluster) Hosts() []*Host {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Host, 0, len(c.order))
	for _, n := range c.order {
		out = append(out, c.hosts[n])
	}
	return out
}

// AdvanceTo advances every host to now and returns all completions keyed by
// host name.
func (c *Cluster) AdvanceTo(now time.Time) map[string][]Completed {
	out := make(map[string][]Completed)
	for _, h := range c.Hosts() {
		if done := h.AdvanceTo(now); len(done) > 0 {
			out[h.Name()] = done
		}
	}
	return out
}

// Loads returns each host's load average in name order.
func (c *Cluster) Loads() []float64 {
	hosts := c.Hosts()
	out := make([]float64, len(hosts))
	for i, h := range hosts {
		out[i] = h.LoadAvg()
	}
	return out
}
