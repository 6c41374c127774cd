package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/simclock"
)

// clk is the bench's only time source (the repo's wallclock lint bans
// bare time.Now outside simclock).
var clk = simclock.Real{}

// harness owns everything a run leaves behind: the regserver binary, the
// child processes and the temporary directory. close undoes all of it and
// is safe to call from the signal handler and from the normal exit path.
type harness struct {
	root  string // repository root (holds cmd/regserver)
	out   string // bench/out, git-ignored
	tmp   string // out/tmp-<pid>, removed by close
	bin   string // the built regserver
	admin *http.Client

	mu      sync.Mutex
	servers []*server // guarded by mu
	closed  bool      // guarded by mu
	nextDir int       // guarded by mu
}

// findRoot walks up from the working directory to the directory that
// holds cmd/regserver, so the bench works from the repository root, from
// bench/ (go run -C bench .) and from a test's package directory.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", fmt.Errorf("bench: getwd: %w", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "regserver", "main.go")); err == nil {
			return dir, nil
		}
		dir = filepath.Dir(dir)
	}
	return "", fmt.Errorf("bench: cmd/regserver not found above the working directory; run from the repository")
}

func newHarness() (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, "bench", "out")
	tmp := filepath.Join(out, "tmp-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, fmt.Errorf("bench: create %s: %w", tmp, err)
	}
	return &harness{
		root:  root,
		out:   out,
		tmp:   tmp,
		bin:   filepath.Join(out, "bin", "regserver"),
		admin: &http.Client{Timeout: 10 * time.Second},
	}, nil
}

// build compiles cmd/regserver from the checkout's own source and returns
// how long that took. The go build cache makes every build after the
// first a no-op, which is why build time is reported apart from setup_s.
func (h *harness) build() (time.Duration, error) {
	start := clk.Now()
	cmd := exec.Command("go", "build", "-o", h.bin, "./cmd/regserver")
	cmd.Dir = h.root
	if outp, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("bench: build regserver: %w\n%s", err, outp)
	}
	return clk.Now().Sub(start), nil
}

// newDir makes a fresh directory under the run's temporary directory.
func (h *harness) newDir(prefix string) (string, error) {
	h.mu.Lock()
	h.nextDir++
	n := h.nextDir
	h.mu.Unlock()
	dir := filepath.Join(h.tmp, fmt.Sprintf("%s-%d", prefix, n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("bench: create %s: %w", dir, err)
	}
	return dir, nil
}

// close kills every child, waits for each to be reaped and removes the
// temporary directory.
func (h *harness) close() {
	h.mu.Lock()
	servers := h.servers
	h.servers = nil
	h.closed = true
	h.mu.Unlock()
	for _, s := range servers {
		s.kill()
	}
	os.RemoveAll(h.tmp)
}

// server is one regserver child process.
type server struct {
	role string
	args []string // everything but -addr, so a reboot reuses them
	dir  string   // -data-dir or -repl-dir
	log  string
	addr string
	base string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
}

// commonFlags is the configuration every workload's servers share; the
// README lists it. Everything else is a regserver default.
var commonFlags = []string{
	"-policy", "filter",
	"-period", "1s",
	"-snapshot-staleness", "1s",
	"-fsync", "always",
	"-admission=true",
	"-trace-sample", "0",
	"-log-level", "error",
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("bench: pick a free port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// startLeader boots a leader on a fresh data directory.
func (h *harness) startLeader() (*server, error) {
	dir, err := h.newDir("leader")
	if err != nil {
		return nil, err
	}
	s := &server{role: "leader", dir: dir, args: append([]string{"-data-dir", dir, "-repl-leader"}, commonFlags...)}
	return s, h.boot(s)
}

// startFollower boots a follower of leader on a fresh state directory.
func (h *harness) startFollower(leader *server) (*server, error) {
	dir, err := h.newDir("follower")
	if err != nil {
		return nil, err
	}
	s := &server{role: "follower", dir: dir, args: append([]string{"-repl-follow", leader.base, "-repl-dir", dir}, commonFlags...)}
	return s, h.boot(s)
}

// boot execs s on a free port and returns once /registry/health answers
// 200. It is also the restart after a kill -9: args and dir are reused.
func (h *harness) boot(s *server) error {
	if err := h.exec(s); err != nil {
		return err
	}
	return h.awaitHealth(s, 60*time.Second)
}

// exec starts the process without waiting for it to serve.
func (h *harness) exec(s *server) error {
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	s.addr, s.base = addr, "http://"+addr
	s.log = s.dir + ".log"
	logf, err := os.OpenFile(s.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("bench: open server log: %w", err)
	}
	defer logf.Close()
	cmd := exec.Command(h.bin, append([]string{"-addr", addr}, s.args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A bench that dies without running close must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return fmt.Errorf("bench: harness closed")
	}
	if err := cmd.Start(); err != nil {
		h.mu.Unlock()
		return fmt.Errorf("bench: start %s: %w", s.role, err)
	}
	s.cmd, s.done = cmd, make(chan struct{})
	h.servers = append(h.servers, s)
	h.mu.Unlock()
	go func(cmd *exec.Cmd, done chan struct{}) {
		cmd.Wait() // the exit status of a killed child carries no information
		close(done)
	}(cmd, s.done)
	return nil
}

func (h *harness) awaitHealth(s *server, limit time.Duration) error {
	deadline := clk.Now().Add(limit)
	for clk.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("bench: %s exited during boot:\n%s", s.role, tail(s.log))
		default:
		}
		resp, err := h.admin.Get(s.base + "/registry/health")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		clk.Sleep(time.Millisecond)
	}
	return fmt.Errorf("bench: %s not healthy after %v:\n%s", s.role, limit, tail(s.log))
}

// kill sends SIGKILL and waits until the process has been reaped.
func (s *server) kill() {
	if s.cmd == nil {
		return
	}
	s.cmd.Process.Kill() // already-exited is fine: done closes either way
	<-s.done
}

func (s *server) pid() int { return s.cmd.Process.Pid }

func tail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	if len(data) > 2048 {
		data = data[len(data)-2048:]
	}
	return string(data)
}

// cpuNs sums the on-CPU time of the given servers so far, in nanoseconds.
// It is the scheduler's own clock (/proc/<pid>/task/<tid>/schedstat, first
// field), not the 10 ms ticks of /proc/<pid>/stat: the timed part of a
// publish batch is 40 ms long. A Go process keeps its threads, so the sum
// only grows.
func cpuNs(servers ...*server) (int64, error) {
	var total int64
	for _, s := range servers {
		tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.pid()))
		if err != nil || len(tasks) == 0 {
			return 0, fmt.Errorf("bench: no schedstat for %s (pid %d); the kernel needs CONFIG_SCHED_INFO", s.role, s.pid())
		}
		for _, path := range tasks {
			ns, err := readSchedstat(path)
			if os.IsNotExist(err) {
				continue // the thread exited between the glob and the read
			}
			if err != nil {
				return 0, err
			}
			total += ns
		}
	}
	return total, nil
}

func readSchedstat(path string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return parseSchedstat(string(data))
}

// parseSchedstat extracts the first field, nanoseconds spent on a CPU.
func parseSchedstat(line string) (int64, error) {
	f := strings.Fields(line)
	if len(f) != 3 {
		return 0, fmt.Errorf("bench: malformed schedstat %q", line)
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bench: non-numeric run time in schedstat %q", line)
	}
	return ns, nil
}

// selfCPUNs is the CPU time the bench process itself has used so far. In a
// closed loop on two connections nearly all of it is the load generator's
// side of the exchanges: it is the yardstick the read workloads are
// normalised by (see window).
func selfCPUNs() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("bench: getrusage: %w", err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), nil
}

// pinnedCPU locks the calling goroutine to its OS thread, for the caller to
// unlock, and returns a reader of that thread's CPU time, which only the
// same goroutine may call. It is publish_follow's yardstick: one write at a
// time uses a twelfth of a core, and the process's whole CPU time then holds
// more of its garbage collector and NodeStatus listener than of the
// exchanges, which doubled the spread. The read workloads do not pin:
// waking a particular thread for every answer cost them a third of their
// throughput.
//
// The clock is CLOCK_THREAD_CPUTIME_ID. The thread's schedstat and
// getrusage(RUSAGE_THREAD) both leave out what the thread has run since
// the scheduler last looked, up to a tick, which is a third of what a
// batch of writes costs the generator.
func pinnedCPU() func() (int64, error) {
	runtime.LockOSThread()
	return func() (int64, error) {
		var ts syscall.Timespec
		if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
			return 0, fmt.Errorf("bench: clock_gettime(CLOCK_THREAD_CPUTIME_ID): %w", errno)
		}
		return ts.Nano(), nil
	}
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID, which package
// syscall does not name.
const clockThreadCPUTimeID = 3

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("bench: read proc status: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64) // "VmHWM:  123456 kB"
			if err != nil {
				return 0, fmt.Errorf("bench: parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in proc status")
}

// maxPeakRSSMB is the largest peak over the given servers.
func maxPeakRSSMB(servers ...*server) (float64, error) {
	var peak float64
	for _, s := range servers {
		v, err := peakRSSMB(s.pid())
		if err != nil {
			return 0, err
		}
		if v > peak {
			peak = v
		}
	}
	return peak, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("bench: walk %s: %w", dir, err)
	}
	return total, nil
}

// scrape is one parsed /registry/metrics document.
type scrape struct{ s *obs.Scrape }

// parseScrape runs the exposition through obs's strict parser, so a
// malformed metrics page fails the run instead of reading as zeros.
func parseScrape(data []byte) (scrape, error) {
	s, err := obs.ParseExposition(bytes.NewReader(data))
	if err != nil {
		return scrape{}, err
	}
	return scrape{s}, nil
}

func (h *harness) scrape(s *server) (scrape, error) {
	resp, err := h.admin.Get(s.base + "/registry/metrics")
	if err != nil {
		return scrape{}, fmt.Errorf("bench: scrape %s: %w", s.role, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return scrape{}, fmt.Errorf("bench: scrape %s: read: %w", s.role, err)
	}
	if resp.StatusCode != http.StatusOK {
		return scrape{}, fmt.Errorf("bench: scrape %s: status %d", s.role, resp.StatusCode)
	}
	return parseScrape(data)
}

// get returns the sample of name whose labels include want; a missing
// series reads as 0 (a counter nothing has bumped yet is not exported by
// every family).
func (sc scrape) get(name string, want map[string]string) float64 {
	v, _ := sc.s.Value(name, want)
	return v
}

// sum adds up every sample of a family (all label values).
func (sc scrape) sum(name string) float64 {
	f, ok := sc.s.Families[name]
	if !ok {
		return 0
	}
	var total float64
	for _, s := range f.Samples {
		total += s.Value
	}
	return total
}
