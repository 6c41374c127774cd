package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/soap"
)

// connections is how many sockets the load generator drives. ISSUE.md
// fixes it: one process, two connections.
const connections = 2

// checkEvery is how often a timed response is fully parsed and compared
// with the oracle; the others need status 200 and a non-empty body. Every
// warm-up response is checked.
const checkEvery = 16

// client is one keep-alive HTTP/1.1 connection. Requests are written as
// prepared bytes and responses read with net/http's own parser, so the
// generator spends little CPU next to the servers it shares two cores
// with and still understands chunked bodies.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("bench: dial %s: %w", addr, err)
	}
	return &client{addr: addr, conn: conn, br: bufio.NewReaderSize(conn, 16<<10)}, nil
}

func (c *client) close() { c.conn.Close() }

// do sends one prepared request and returns the status and body. The body
// is only valid until the next call.
func (c *client) do(req []byte) (int, []byte, error) {
	c.conn.SetDeadline(clk.Now().Add(10 * time.Second)) // a failed arm surfaces as the I/O error below
	if _, err := c.conn.Write(req); err != nil {
		return 0, nil, fmt.Errorf("bench: write request: %w", err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("bench: read response: %w", err)
	}
	c.body = c.body[:0]
	buf := c.body[:cap(c.body)]
	n := 0
	for {
		if n == len(buf) {
			buf = append(buf, make([]byte, 4096+len(buf))...)
		}
		m, err := resp.Body.Read(buf[n:])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			resp.Body.Close()
			return 0, nil, fmt.Errorf("bench: read body: %w", err)
		}
	}
	resp.Body.Close()
	c.body = buf[:n]
	if resp.Close {
		return 0, nil, fmt.Errorf("bench: server closed the connection (status %d)", resp.StatusCode)
	}
	return resp.StatusCode, c.body, nil
}

// restRequest prepares GET /registry/bindings?service=<name>.
func restRequest(host, name string) []byte {
	return []byte("GET /registry/bindings?service=" + name + " HTTP/1.1\r\nHost: " + host + "\r\n\r\n")
}

// soapRequest prepares a POST of payload to path as a SOAP envelope.
func soapRequest(host, path string, payload interface{}) ([]byte, error) {
	env, err := soap.Marshal(payload)
	if err != nil {
		return nil, err
	}
	head := "POST " + path + " HTTP/1.1\r\nHost: " + host + "\r\nContent-Type: " + soap.ContentType +
		"\r\nContent-Length: " + strconv.Itoa(len(env)) + "\r\n\r\n"
	return append([]byte(head), env...), nil
}

// sample is one correct response. Times are nanoseconds.
type sample struct {
	at   int64 // when it was due (open loop) or sent (closed loop), since the phase began
	lat  int64
	soap bool
}

// done is when the response had arrived, since the phase began.
func (s sample) done() int64 { return s.at + s.lat }

// phase is what one load phase measured.
type phase struct {
	samples   []sample
	late      []int64 // send time − due time (open loop only)
	attempted int
	failed    int
	firstErr  string
}

// latencies returns every sample's latency.
func (p *phase) latencies() []int64 {
	out := make([]int64, len(p.samples))
	for i, s := range p.samples {
		out[i] = s.lat
	}
	return out
}

func anyProtocol(sample) bool { return true }
func overREST(s sample) bool  { return !s.soap }
func overSOAP(s sample) bool  { return s.soap }

// windowLen is the slice of a saturated phase a statistic is first taken
// over; the run reports the median over its windows.
const windowLen = time.Second

// window is one slice of a saturated (closed-loop) phase: what completed
// in it, and the CPU time the servers and the load generator spent
// meanwhile.
//
// This sandbox's two vCPUs share a host whose speed moves by a quarter
// from one second to the next and from one minute to the next, and the
// cost of everything in a saturated phase moves with it: server CPU per
// request, round-trip time and their inverse, throughput. The load
// generator's own CPU time per exchange moves the same way at the same
// moments (r = 0.99 over the windows of a run: it is the same kind of
// work, socket calls and wake-ups, done in lockstep with the server's).
// It is the yardstick: a window's speed index is what an exchange cost
// the generator in it over what it costs nominally, and the time-like
// statistics of the window are divided by that index before the median
// over the windows is taken. What is reported is the time at nominal
// machine speed, steady to 1-3 % where the raw value is steady to 10-25 %.
type window struct {
	elapsed   time.Duration
	samples   []sample // primary operations that completed correctly in it
	exchanges int      // HTTP exchanges the generator completed in it
	serverNs  int64    // CPU time of the workload's regserver processes
	clientNs  int64    // CPU time of the load generator
}

// speed is the window's speed index: the generator's CPU time per
// exchange over nominalUs, the workload's nominal cost of one. Above 1 the
// machine ran slower than nominal.
func (w window) speed(nominalUs float64) float64 {
	return float64(w.clientNs) / 1e3 / float64(w.exchanges) / nominalUs
}

// latencies returns the latency of every sample of the window that passes
// keep.
func (w window) latencies(keep func(sample) bool) []int64 {
	out := make([]int64, 0, len(w.samples))
	for _, s := range w.samples {
		if keep(s) {
			out = append(out, s.lat)
		}
	}
	return out
}

// usable reports whether the window holds enough to take a statistic of.
func (w window) usable() bool { return len(w.samples) > 0 && w.exchanges > 0 && w.clientNs > 0 }

// windows is a saturated phase.
type windows []window

// perWindow applies f to every usable window.
func (ws windows) perWindow(f func(window) float64) []float64 {
	out := make([]float64, 0, len(ws))
	for _, w := range ws {
		if w.usable() {
			out = append(out, f(w))
		}
	}
	return out
}

// quantileMs is the median over the windows of the q-quantile latency of
// the samples that pass keep, in milliseconds at nominal speed.
func (ws windows) quantileMs(keep func(sample) bool, q, nominalUs float64) float64 {
	return medianFloat(ws.perWindow(func(w window) float64 {
		return quantilesMs(w.latencies(keep), q)[0] / w.speed(nominalUs)
	}))
}

// throughput is the median over the windows of operations per second at
// nominal speed.
func (ws windows) throughput(nominalUs float64) float64 {
	return medianFloat(ws.perWindow(func(w window) float64 {
		return float64(len(w.samples)) / w.elapsed.Seconds() * w.speed(nominalUs)
	}))
}

// total adds the windows up.
func (ws windows) total() window {
	var t window
	for _, w := range ws {
		t.elapsed += w.elapsed
		t.samples = append(t.samples, w.samples...)
		t.exchanges += w.exchanges
		t.serverNs += w.serverNs
		t.clientNs += w.clientNs
	}
	return t
}

// cpuPerOpUs is the servers' CPU microseconds per operation over the
// whole phase at nominal speed. It is a ratio of totals, not a median of
// windows, so that what happens once in a while (a checkpoint, a garbage
// collection) is in it.
func (ws windows) cpuPerOpUs(nominalUs float64) float64 {
	t := ws.total()
	if !t.usable() {
		return 0
	}
	return float64(t.serverNs) / 1e3 / float64(len(t.samples)) / t.speed(nominalUs)
}

// clock is a reading of the two CPU clocks at a window boundary: the
// servers' and the generator's.
type clock struct {
	at       time.Time
	serverNs int64
	clientNs int64
}

// readClock reads the servers' clock first at the start of a window and
// last at its end, so that what reading /proc costs is outside both.
func readClock(servers, generator func() (int64, error), opening bool) (clock, error) {
	var c clock
	var err error
	if opening {
		if c.serverNs, err = servers(); err != nil {
			return c, err
		}
		c.clientNs, err = generator()
		c.at = clk.Now()
	} else {
		c.at = clk.Now()
		if c.clientNs, err = generator(); err != nil {
			return c, err
		}
		c.serverNs, err = servers()
	}
	return c, err
}

// target is what a load phase drives: prepared requests by sequence entry
// and the oracle check for a response.
type target struct {
	addr    string
	payload func(request) []byte
	// verify reports whether the response is acceptable; full asks for the
	// parse-and-compare check against the oracle.
	verify func(r request, status int, body []byte, full bool) bool
	// cpu returns the CPU nanoseconds the serving processes have used so far.
	cpu func() (int64, error)
}

// job is one request of a phase: the n-th, due at due in an open loop.
type job struct {
	req request
	due time.Time
	n   int
}

// worker is one connection of a phase; merge adds the workers up.
type worker struct {
	c     *client
	start time.Time // of the phase
	out   phase
}

func (w *worker) run(t *target, j job, everyN int) {
	// A closed-loop job has no due time: its latency runs from the send.
	sent := clk.Now()
	due := j.due
	if due.IsZero() {
		due = sent
	} else {
		w.out.late = append(w.out.late, int64(sent.Sub(due)))
	}
	status, body, err := w.c.do(t.payload(j.req))
	lat := int64(clk.Now().Sub(due))
	w.out.attempted++
	ok := err == nil && t.verify(j.req, status, body, j.n%everyN == 0)
	if !ok {
		w.out.failed++
		if w.out.firstErr == "" {
			w.out.firstErr = fmt.Sprintf("request %d (service %d, soap=%v): status %d, err %v, body %.200q", j.n, j.req.service, j.req.soap, status, err, body)
		}
		if err != nil {
			// The connection's framing is lost; start over on a new one.
			w.c.close()
			if c, derr := dial(w.c.addr); derr == nil {
				w.c = c
			}
		}
		return
	}
	w.out.samples = append(w.out.samples, sample{at: int64(due.Sub(w.start)), lat: lat, soap: j.req.soap})
}

// newWorkers dials the connections; the phase begins when they are up.
func newWorkers(addr string) ([]*worker, time.Time, error) {
	ws := make([]*worker, connections)
	for i := range ws {
		c, err := dial(addr)
		if err != nil {
			for _, w := range ws[:i] {
				w.c.close()
			}
			return nil, time.Time{}, err
		}
		ws[i] = &worker{c: c}
	}
	start := clk.Now()
	for _, w := range ws {
		w.start = start
	}
	return ws, start, nil
}

func merge(ws []*worker) phase {
	var p phase
	for _, w := range ws {
		w.c.close()
		p.samples = append(p.samples, w.out.samples...)
		p.late = append(p.late, w.out.late...)
		p.attempted += w.out.attempted
		p.failed += w.out.failed
		if p.firstErr == "" {
			p.firstErr = w.out.firstErr
		}
	}
	return p
}

// openLoop sends seq[k] at its due time for dur, whatever the servers do.
// Arrivals are Poisson at the given mean rate, the gaps drawn from seed:
// this sandbox delivers a wake-up to an idle vCPU on its next 1 ms timer
// tick, and evenly spaced due times (500 µs apart at 2000/s) sit at two
// fixed phases of that tick for a whole run, which moved the median by
// 40 % from one run to the next. Short sleeps also round up to about a
// millisecond, so the dispatcher waits for each due time in a Gosched
// spin, and every latency is measured from the due time, not the send.
func openLoop(t *target, seq []request, seed int64, rate int, dur time.Duration) (phase, error) {
	ws, start, err := newWorkers(t.addr)
	if err != nil {
		return phase{}, err
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for j := range jobs {
				w.run(t, j, checkEvery)
			}
		}(w)
	}
	gaps := rand.New(rand.NewSource(seed ^ 0x6a95))
	mean := float64(time.Second) / float64(rate)
	end := start.Add(dur)
	due := start
	for k := 0; due.Before(end); k++ {
		for clk.Now().Before(due) {
			runtime.Gosched()
		}
		jobs <- job{req: seq[k%len(seq)], due: due, n: k}
		due = due.Add(time.Duration(gaps.ExpFloat64() * mean))
	}
	close(jobs)
	wg.Wait()
	return merge(ws), nil
}

// closedLoop keeps one request outstanding on each connection for dur:
// each connection sends its next request when the previous one completes.
// It returns the phase and, cut at every windowLen, its windows.
func closedLoop(t *target, seq []request, dur time.Duration, everyN int) (phase, windows, error) {
	ws, start, err := newWorkers(t.addr)
	if err != nil {
		return phase{}, nil, err
	}
	var next atomic.Int64
	end := start.Add(dur)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for clk.Now().Before(end) {
				k := int(next.Add(1) - 1)
				w.run(t, job{req: seq[k%len(seq)], n: k}, everyN)
			}
		}(w)
	}
	// The CPU clocks are read at every window boundary.
	clocks := make([]clock, 0, int(dur/windowLen)+1)
	var clockErr error
	for i := 0; clockErr == nil && start.Add(time.Duration(i)*windowLen).Before(end.Add(windowLen/2)); i++ {
		if d := start.Add(time.Duration(i) * windowLen).Sub(clk.Now()); d > 0 {
			clk.Sleep(d)
		}
		var c clock
		c, clockErr = readClock(t.cpu, selfCPUNs, false)
		clocks = append(clocks, c)
	}
	wg.Wait()
	if clockErr != nil {
		return phase{}, nil, clockErr
	}
	p := merge(ws)
	return p, cut(p.samples, start, clocks), nil
}

// cut bins a phase's samples by the time they completed into the windows
// between consecutive clock readings. In a closed loop every completed
// operation is one exchange.
func cut(samples []sample, start time.Time, clocks []clock) windows {
	if len(clocks) < 2 {
		return nil
	}
	out := make(windows, len(clocks)-1)
	bounds := make([]int64, len(clocks))
	for i, c := range clocks {
		bounds[i] = int64(c.at.Sub(start))
		if i > 0 {
			out[i-1] = window{elapsed: c.at.Sub(clocks[i-1].at), serverNs: c.serverNs - clocks[i-1].serverNs, clientNs: c.clientNs - clocks[i-1].clientNs}
		}
	}
	for _, s := range samples {
		d := s.done()
		// The first boundary at or after d closes the sample's window.
		i := sort.Search(len(bounds), func(i int) bool { return bounds[i] >= d })
		if i == 0 || i == len(bounds) {
			continue // before the first reading or after the last
		}
		out[i-1].samples = append(out[i-1].samples, s)
		out[i-1].exchanges++
	}
	return out
}

// percentile returns the q-quantile (0..1) of sorted by linear
// interpolation between the two closest ranks; 0 for no samples.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]) + frac*float64(sorted[lo+1]-sorted[lo])
}

// quantilesNs sorts a copy of ns and returns the given quantiles.
func quantilesNs(ns []int64, qs ...float64) []float64 {
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = percentile(sorted, q)
	}
	return out
}

// quantilesMs is quantilesNs in milliseconds.
func quantilesMs(ns []int64, qs ...float64) []float64 {
	out := quantilesNs(ns, qs...)
	for i := range out {
		out[i] /= 1e6
	}
	return out
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
