package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"repro/internal/auth"
	"repro/internal/jaxr"
	"repro/internal/registry"
	"repro/internal/rim"
	"repro/internal/soap"
)

// submitBatch is how many services one SubmitObjectsRequest carries
// during population: every object still goes through the LCM, with an
// eighth of the round trips and fsyncs of one request per service.
const submitBatch = 16

// visibleLimit bounds the wait for a write to show on the follower.
const visibleLimit = 5 * time.Second

// registryReq mirrors the server's /soap/registry union for the three
// protocols the bench prepares by hand.
type registryReq struct {
	XMLName  struct{}                       `xml:"RegistryRequest"`
	Submit   *registry.SubmitObjectsRequest `xml:"SubmitObjectsRequest,omitempty"`
	Update   *registry.UpdateObjectsRequest `xml:"UpdateObjectsRequest,omitempty"`
	Bindings *registry.GetBindingsRequest   `xml:"GetBindingsRequest,omitempty"`
}

// authReq mirrors the /soap/auth union.
type authReq struct {
	XMLName   struct{}                   `xml:"AuthRequest"`
	Challenge *registry.ChallengeRequest `xml:"ChallengeRequest,omitempty"`
	Login     *registry.LoginRequest     `xml:"LoginRequest,omitempty"`
}

// env is one set-up cluster: the NodeStatus listener, the servers and the
// published population.
type env struct {
	h        *harness
	spec     workloadSpec
	pop      *population
	ns       *statusListener
	leader   *server
	follower *server
	creds    *auth.Credentials // of the bench user
	authMs   float64           // register + login

	expect  [][]string // oracle answer per service
	swept   []int      // services whose right answer shows that the collector has swept
	restReq [][]byte   // prepared REST discovery per service, for the read node
	soapReq [][]byte   // prepared SOAP discovery per service
}

// readNode is where discovery traffic goes: the follower when there is one.
func (e *env) readNode() *server {
	if e.follower != nil {
		return e.follower
	}
	return e.leader
}

func (e *env) servers() []*server {
	if e.follower != nil {
		return []*server{e.leader, e.follower}
	}
	return []*server{e.leader}
}

func (e *env) teardown() {
	for _, s := range e.servers() {
		if s != nil {
			s.kill()
		}
	}
	if e.ns != nil {
		e.ns.close()
	}
}

// setup boots the cluster of spec and publishes its population. The
// returned duration is setup_s: boot + register/login + populate +
// follower converged + first sweep seen.
func (h *harness) setup(spec workloadSpec, seed int64) (*env, time.Duration, error) {
	start := clk.Now()
	e := &env{h: h, spec: spec}
	var err error
	if e.ns, err = startStatusListener(); err != nil {
		return nil, 0, err
	}
	ok := false
	defer func() {
		if !ok {
			e.teardown()
		}
	}()
	e.pop = generate(seed, spec.services, spec.hostsPer, spec.statusHosts, e.ns.port)
	if err := e.ns.answer(e.pop.cluster); err != nil {
		return nil, 0, err
	}
	if e.leader, err = h.startLeader(); err != nil {
		return nil, 0, err
	}
	if spec.follower {
		if e.follower, err = h.startFollower(e.leader); err != nil {
			return nil, 0, err
		}
	}
	if err := e.publish(); err != nil {
		return nil, 0, err
	}
	e.prepare()
	if err := e.awaitReady(); err != nil {
		return nil, 0, err
	}
	ok = true
	return e, clk.Now().Sub(start), nil
}

// publish registers the bench user and submits the population over SOAP
// through the repo's own client.
func (e *env) publish() error {
	conn := jaxr.Connect(e.leader.base, &http.Client{Timeout: 60 * time.Second})
	authStart := clk.Now()
	creds, _, err := conn.Register("bench", "bench-password", rim.PersonName{FirstName: "Bench"})
	if err != nil {
		return fmt.Errorf("bench: register: %w", err)
	}
	if err := conn.Login(creds); err != nil {
		return fmt.Errorf("bench: login: %w", err)
	}
	e.authMs = float64(clk.Now().Sub(authStart)) / 1e6
	e.creds = creds
	if _, err := conn.Submit(e.pop.nodeStatus); err != nil {
		return fmt.Errorf("bench: publish NodeStatus: %w", err)
	}
	batch := make([]rim.Object, 0, submitBatch)
	for i, s := range e.pop.services {
		batch = append(batch, s.obj)
		if len(batch) == submitBatch || i == len(e.pop.services)-1 {
			if _, err := conn.Submit(batch...); err != nil {
				return fmt.Errorf("bench: publish services: %w", err)
			}
			batch = batch[:0]
		}
	}
	return nil
}

// login opens a second session of the bench user and returns its token.
// The timed writes are prepared by hand, which needs the token jaxr keeps
// to itself.
func (e *env) login() (string, error) {
	creds := e.creds
	var ch registry.ChallengeResponse
	if err := soap.Post(e.h.admin, e.leader.base+"/soap/auth", &authReq{Challenge: &registry.ChallengeRequest{Alias: creds.Alias}}, &ch); err != nil {
		return "", fmt.Errorf("bench: challenge: %w", err)
	}
	nonce, err := base64.StdEncoding.DecodeString(ch.Nonce)
	if err != nil {
		return "", fmt.Errorf("bench: decode nonce: %w", err)
	}
	sig, err := creds.SignChallenge(nonce)
	if err != nil {
		return "", fmt.Errorf("bench: sign challenge: %w", err)
	}
	var login registry.LoginResponse
	err = soap.Post(e.h.admin, e.leader.base+"/soap/auth", &authReq{Login: &registry.LoginRequest{
		Alias: creds.Alias, Signature: base64.StdEncoding.EncodeToString(sig),
	}}, &login)
	if err != nil {
		return "", fmt.Errorf("bench: second login: %w", err)
	}
	return login.Token, nil
}

// prepare computes the oracle's answers and the request bytes.
func (e *env) prepare() {
	host := e.readNode().addr
	for i, s := range e.pop.services {
		e.expect = append(e.expect, e.pop.expected(s, s.spec))
		// Before its first sweep a server knows no host's state: it answers a
		// constrained service with no URI and an unconstrained one with all.
		// Only a constrained service with a non-empty right answer tells the
		// two states apart.
		if !s.spec.none && len(e.expect[i]) > 0 {
			e.swept = append(e.swept, i)
		}
		e.restReq = append(e.restReq, restRequest(host, s.name))
		req, err := soapRequest(host, "/soap/registry", &registryReq{Bindings: &registry.GetBindingsRequest{ServiceName: s.name}})
		if err != nil {
			panic(err) // marshalling a two-field struct cannot fail
		}
		e.soapReq = append(e.soapReq, req)
	}
}

func (e *env) payload(r request) []byte {
	if r.soap {
		return e.soapReq[r.service]
	}
	return e.restReq[r.service]
}

// restBody is the part of the REST discovery answer the oracle checks.
type restBody struct {
	URIs []string `json:"uris"`
}

// parseURIs extracts the URI list of a discovery answer.
func parseURIs(body []byte, isSOAP bool) ([]string, bool) {
	if isSOAP {
		var resp registry.GetBindingsResponse
		if err := soap.Unmarshal(body, &resp); err != nil {
			return nil, false
		}
		return resp.URIs, true
	}
	var b restBody
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, false
	}
	return b.URIs, true
}

func (e *env) verify(r request, status int, body []byte, full bool) bool {
	if status != http.StatusOK || len(body) == 0 {
		return false
	}
	if !full {
		return true
	}
	got, ok := parseURIs(body, r.soap)
	return ok && sameStrings(got, e.expect[r.service])
}

// serverCPU is the CPU time all the workload's servers have used so far.
func (e *env) serverCPU() (int64, error) { return cpuNs(e.servers()...) }

func (e *env) target() *target {
	return &target{addr: e.readNode().addr, payload: e.payload, verify: e.verify,
		cpu: e.serverCPU}
}

// discovers reports whether node currently serves the oracle's answer for
// service i over REST.
func (e *env) discovers(c *client, node *server, i int) bool {
	status, body, err := c.do(restRequest(node.addr, e.pop.services[i].name))
	if err != nil || status != http.StatusOK {
		return false
	}
	got, ok := parseURIs(body, false)
	return ok && sameStrings(got, e.expect[i])
}

// awaitDiscovery polls node until it answers service i correctly.
func (e *env) awaitDiscovery(node *server, i int, limit time.Duration) error {
	deadline := clk.Now().Add(limit)
	var c *client
	defer func() {
		if c != nil {
			c.close()
		}
	}()
	for clk.Now().Before(deadline) {
		if c == nil {
			c, _ = dial(node.addr) // not listening yet reads as not ready
		}
		if c != nil {
			if e.discovers(c, node, i) {
				return nil
			}
			// A failed exchange may have lost the framing; redial.
			c.close()
			c = nil
		}
		clk.Sleep(time.Millisecond)
	}
	return fmt.Errorf("bench: %s does not serve the oracle's answer for %s after %v:\n%s",
		node.role, e.pop.services[i].name, limit, tail(node.log))
}

// awaitReady waits until the follower has applied everything the leader
// committed and the node that serves reads has swept all hosts: the first
// and the last service of e.swept are answered as the oracle says.
func (e *env) awaitReady() error {
	if e.follower != nil {
		deadline := clk.Now().Add(60 * time.Second)
		for {
			ls, err := e.h.scrape(e.leader)
			if err != nil {
				return err
			}
			fs, err := e.h.scrape(e.follower)
			if err != nil {
				return err
			}
			seq := map[string]string{"part": "seq"}
			if l := ls.get("registry_repl_position", seq); l > 0 && l == fs.get("registry_repl_position", seq) {
				break
			}
			if clk.Now().After(deadline) {
				return fmt.Errorf("bench: follower did not converge:\n%s", tail(e.follower.log))
			}
			clk.Sleep(2 * time.Millisecond)
		}
	}
	if len(e.swept) == 0 {
		return fmt.Errorf("bench: no service of the population has a constraint some host satisfies")
	}
	for _, i := range []int{e.swept[0], e.swept[len(e.swept)-1]} {
		if err := e.awaitDiscovery(e.readNode(), i, 30*time.Second); err != nil {
			return err
		}
	}
	return nil
}

// runResult is what one run of one workload measured.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	BuildS    float64            `json:"build_s"`
	WallS     float64            `json:"wall_s"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Extra     map[string]float64 `json:"extra"`               // informational, ungated
	Layers    map[string]float64 `json:"per_layer,omitempty"` // complete on traced runs only
	Invalid   []string           `json:"invalid,omitempty"`   // why the run must not be used
}

func (r *runResult) count(p phase) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	if p.firstErr != "" {
		r.Invalid = append(r.Invalid, "wrong or failed response: "+p.firstErr)
	}
}

// saturated fills the end-to-end metrics a saturated phase gives, at
// nominal machine speed, and beside them what the phase measured raw.
func (r *runResult) saturated(ws windows, nominalUs float64) {
	r.EndToEnd["primary_p50_ms"] = ws.quantileMs(anyProtocol, 0.5, nominalUs)
	r.EndToEnd["primary_p90_ms"] = ws.quantileMs(anyProtocol, 0.9, nominalUs)
	r.EndToEnd["throughput_ops"] = ws.throughput(nominalUs)
	r.EndToEnd["cpu_us_per_op"] = ws.cpuPerOpUs(nominalUs)
	t := ws.total()
	if !t.usable() {
		r.Invalid = append(r.Invalid, "the saturated phase completed nothing")
		return
	}
	r.Layers["loadgen.samples"] = float64(len(t.samples))
	r.Layers["loadgen.client_cpu_us"] = float64(t.clientNs) / 1e3 / float64(t.exchanges)
	r.Layers["loadgen.speed_index"] = t.speed(nominalUs)
	r.Layers["loadgen.raw_p50_ms"] = quantilesMs(t.latencies(anyProtocol), 0.5)[0]
	r.Layers["loadgen.raw_throughput_ops"] = float64(len(t.samples)) / t.elapsed.Seconds()
	r.Layers["loadgen.raw_cpu_us_per_op"] = float64(t.serverNs) / 1e3 / float64(len(t.samples))
}

// counters is the servers' exposition around the timed phases, one scrape
// per server, the leader first.
type counters []scrape

// leader is the leader's scrape; read is that of the node serving reads.
func (c counters) leader() scrape { return c[0] }
func (c counters) read() scrape   { return c[len(c)-1] }

// total adds a family up over every label and every server.
func (c counters) total(name string) float64 {
	var t float64
	for _, n := range c {
		t += n.sum(name)
	}
	return t
}

func (e *env) counters() (counters, error) {
	var c counters
	for _, s := range e.servers() {
		sc, err := e.h.scrape(s)
		if err != nil {
			return nil, err
		}
		c = append(c, sc)
	}
	return c, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// finish fills the disk metric, which every workload reports the same
// way, and the scraped per-layer numbers, from the counters before and
// after the timed phases.
func (e *env) finish(r *runResult, before, after counters, sweepsNs []int64) error {
	rss, err := maxPeakRSSMB(e.servers()...)
	if err != nil {
		return err
	}
	disk, err := dirBytes(e.leader.dir)
	if err != nil {
		return err
	}
	r.EndToEnd["disk_bytes_per_object"] = ratio(float64(disk), after.leader().get("registry_objects", nil))

	L := r.Layers
	L["proc.rss_peak_mb"] = rss
	readDelta := func(name string) float64 { return after.read().get(name, nil) - before.read().get(name, nil) }
	L["admit.shed_total"] = after.total("registry_admission_shed_total") - before.total("registry_admission_shed_total")
	L["admit.queued_total"] = after.total("registry_admission_queued_total") - before.total("registry_admission_queued_total")
	L["admit.tier_max"] = 0
	for _, n := range after {
		L["admit.tier_max"] = max(L["admit.tier_max"], n.get("registry_brownout_tier", nil))
	}
	if after.total("registry_brownout_transitions_total") > 0 && L["admit.tier_max"] == 0 {
		L["admit.tier_max"] = 1 // the ladder climbed and came back down between scrapes
	}
	hits, misses := readDelta("registry_respcache_hits_total"), readDelta("registry_respcache_misses_total")
	L["respcache.hit_ratio"] = ratio(hits, hits+misses)
	L["respcache.invalidations"] = readDelta("registry_respcache_invalidations_total")
	chits, cmiss := readDelta("registry_constraint_cache_hits_total"), readDelta("registry_constraint_cache_misses_total")
	L["constraint.hit_ratio"] = ratio(chits, chits+cmiss)
	// The WAL numbers cover the leader's whole life, population included.
	appends := after.leader().get("registry_wal_appends_total", nil)
	L["wal.fsyncs_per_write"] = ratio(after.leader().get("registry_wal_fsyncs_total", nil), appends)
	L["wal.bytes_per_write"] = ratio(after.leader().get("registry_wal_bytes_total", nil), appends)
	L["wal.checkpoints"] = after.leader().get("registry_checkpoints_total", nil)
	L["wal.replayed_records"] = after.leader().get("registry_wal_replay_records_total", nil)
	L["repl.errors"] = after.total("registry_repl_errors_total")
	L["repl.lag_records_max"] = after.read().get("registry_repl_lag_records", nil)
	L["nodestate.errors"] = after.read().get("registry_collector_errors_total", nil) + after.read().get("registry_collector_timeouts_total", nil)
	if len(sweepsNs) > 0 {
		L["nodestate.sweep_http_ms"] = quantilesMs(sweepsNs, 0.5)[0]
	}
	L["auth.register_login_ms"] = e.authMs
	return nil
}

// idleSweeps lets the collectors sweep with no client traffic for d and
// reports server CPU per sweep and the sweeps the listener saw.
func (e *env) idleSweeps(d time.Duration) (cpuMsPerSweep float64, sweepsNs []int64, err error) {
	node := e.readNode()
	before, err := e.h.scrape(node)
	if err != nil {
		return 0, nil, err
	}
	cpu0, err := cpuNs(node)
	if err != nil {
		return 0, nil, err
	}
	mark := e.ns.mark()
	clk.Sleep(d)
	cpu1, err := cpuNs(node)
	if err != nil {
		return 0, nil, err
	}
	after, err := e.h.scrape(node)
	if err != nil {
		return 0, nil, err
	}
	sweeps := after.get("registry_collector_sweeps_total", nil) - before.get("registry_collector_sweeps_total", nil)
	return ratio(float64(cpu1-cpu0)/1e6, sweeps), e.ns.sweepsSince(mark), nil
}

// seqLen is the length of the seeded discovery sequence; the phases walk
// it cyclically from different offsets.
const seqLen = 1 << 16

// runRead measures rest_hot and mixed_cold: a closed-loop warm-up
// (discarded, every answer checked), then the closed loop on both
// connections for seconds. Every end-to-end number comes from that
// saturated phase; the open loop at the workload's fixed rate is part of
// the traced run (see traceExtras).
func (e *env) runRead(r *runResult, seed int64, seconds int) error {
	seq := sequence(seed, seqLen, len(e.pop.services), e.spec.soapShare)
	t := e.target()
	warm := time.Duration(seconds) * time.Second / 8
	if warm < 2*time.Second {
		warm = 2 * time.Second
	}
	wp, _, err := closedLoop(t, seq, warm, 1)
	if err != nil {
		return err
	}
	if wp.failed > 0 {
		return fmt.Errorf("bench: %d of %d warm-up answers disagree with the oracle: %s", wp.failed, wp.attempted, wp.firstErr)
	}
	before, err := e.counters()
	if err != nil {
		return err
	}
	mark := e.ns.mark()
	closed, ws, err := closedLoop(t, seq[seqLen/2:], time.Duration(seconds)*time.Second, checkEvery)
	if err != nil {
		return err
	}
	after, err := e.counters()
	if err != nil {
		return err
	}
	sweeps := e.ns.sweepsSince(mark)
	r.count(closed)
	r.saturated(ws, e.spec.nominalClientUs)
	if e.spec.soapShare > 0 {
		r.Layers["loadgen.rest_p50_ms"] = ws.quantileMs(overREST, 0.5, e.spec.nominalClientUs)
		r.Layers["loadgen.soap_p50_ms"] = ws.quantileMs(overSOAP, 0.5, e.spec.nominalClientUs)
	} else {
		r.Layers["loadgen.rest_p50_ms"] = r.EndToEnd["primary_p50_ms"]
	}
	return e.finish(r, before, after, sweeps)
}

// runOpen is the open-loop phase of a read workload: Poisson arrivals at
// the workload's fixed rate for dur, latency from the due time. Its
// numbers are raw and ungated: at a tenth of capacity a request finds the
// server's vCPU halted, and what it then measures is how long this
// sandbox takes to wake one (0 to 1 ms, uniformly).
func (e *env) runOpen(r *runResult, seed int64, dur time.Duration) error {
	seq := sequence(seed, seqLen, len(e.pop.services), e.spec.soapShare)
	open, err := openLoop(e.target(), seq[seqLen/4:], seed, e.spec.rate, dur)
	if err != nil {
		return err
	}
	r.count(open)
	q := quantilesMs(open.latencies(), 0.5, 0.9, 0.99, 0.999)
	late := quantilesMs(open.late, 0.5, 0.99)
	r.Layers["loadgen.open_p50_ms"], r.Layers["loadgen.open_p90_ms"], r.Layers["loadgen.open_p99_ms"] = q[0], q[1], q[2]
	r.Extra["loadgen.open_p999_ms"] = q[3]
	r.Extra["loadgen.open_samples"] = float64(open.attempted)
	r.Extra["loadgen.late_p50_ms"], r.Extra["loadgen.late_p99_ms"] = late[0], late[1]
	if late[0] > 0.05 {
		r.Invalid = append(r.Invalid, fmt.Sprintf("open loop ran late: loadgen.late_p50_ms = %.4f > 0.05", late[0]))
	}
	return nil
}

// publishBatch is how many writes publish_follow sends back to back
// before it waits for the follower and reads them back.
const publishBatch = 32

// publishWindow is how much write time makes one window of publish_follow
// (about six batches). Every 8 MiB of WAL the leader writes a checkpoint,
// which holds one write for 0.2 to 0.8 s as the store grows; with windows
// this short the few that hold such a write do not move the median.
const publishWindow = windowLen / 4

// diskBatches is how many batches publish_follow's disk_bytes_per_object
// covers: about half of what a 20 s run completes on the sandbox this was
// written on, so a machine twice as slow still reaches it.
const diskBatches = 128

// write is one prepared write of a publish_follow batch.
type write struct {
	payload []byte
	service int  // index into e.pop.services / e.expect
	submit  bool // a new service, not a new constraint on a base service
}

// prepareBatch draws the next publishBatch writes, alternately a new
// 4-binding service and a new constraint on a base service that no other
// write of the batch touches (thesis E4.3), updates the oracle's answers
// and marshals the requests, all before the batch's clocks start.
func (e *env) prepareBatch(rng *rand.Rand, token string, base int, iter *int) ([]write, error) {
	batch := make([]write, 0, publishBatch)
	touched := make(map[int]bool, publishBatch)
	for len(batch) < publishBatch {
		var req registryReq
		var written int
		if *iter%2 == 0 {
			s := e.pop.newService(fmt.Sprintf("new-%06d", *iter/2), 4)
			wire, err := registry.ToWire(s.obj)
			if err != nil {
				return nil, err
			}
			req.Submit = &registry.SubmitObjectsRequest{Session: token, Objects: []registry.WireObject{*wire}}
			e.pop.services = append(e.pop.services, s)
			e.expect = append(e.expect, e.pop.expected(s, s.spec))
			written = len(e.pop.services) - 1
		} else {
			for written = rng.Intn(base); touched[written]; written = rng.Intn(base) {
			}
			s := e.pop.services[written]
			// Redraw until the answer changes, or the follower applying the
			// update could not be told from the follower not having it yet.
			for {
				spec := drawConstraint(rng)
				if want := e.pop.expected(s, spec); !sameStrings(want, e.expect[written]) {
					s.spec, e.expect[written] = spec, want
					break
				}
			}
			s.obj.Description = rim.NewIString(s.spec.description(s.name))
			wire, err := registry.ToWire(s.obj)
			if err != nil {
				return nil, err
			}
			req.Update = &registry.UpdateObjectsRequest{Session: token, Objects: []registry.WireObject{*wire}}
		}
		*iter++
		touched[written] = true
		payload, err := soapRequest(e.leader.addr, "/soap/registry", &req)
		if err != nil {
			return nil, err
		}
		batch = append(batch, write{payload, written, req.Submit != nil})
	}
	return batch, nil
}

// runPublish measures publish_follow: one client, one connection in use
// at a time. For seconds it repeats: (1) publishBatch writes on the
// leader, back to back; (2) poll the follower until it serves the
// oracle's answer for the last of them; (3) read every service of the
// batch back from the follower, which must by then serve the oracle's
// answer for each. The primary operation is the write, and only step (1)
// is on the clocks: while it runs the leader acknowledges and the follower
// fetches and applies, and every exchange of the generator is a write, so
// its CPU time per exchange is a yardstick (see window). Steps (2) and (3)
// prove the writes arrived and report raw times of their own. The write
// phases are gathered into windows of publishWindow of write time, and the
// windows are read as those of a saturated read phase.
//
// An earlier form polled the follower after every single write and timed
// the whole cycle. The polling loop (8 to 290 polls a write, depending on
// where a checkpoint or the follower's long poll fell) then made up most of
// the exchanges and of the servers' CPU time, and no statistic of it was
// steady to better than 10-17 %.
func (e *env) runPublish(r *runResult, seed int64, seconds int) error {
	rng := rand.New(rand.NewSource(seed ^ 0x9ab11c))
	token, err := e.login()
	if err != nil {
		return err
	}
	lc, err := dial(e.leader.addr)
	if err != nil {
		return err
	}
	defer func() { lc.close() }()
	fc, err := dial(e.follower.addr)
	if err != nil {
		return err
	}
	defer func() { fc.close() }()

	before, err := e.counters()
	if err != nil {
		return err
	}
	mark := e.ns.mark()
	fail := func(format string, args ...interface{}) {
		r.Failed++
		if len(r.Invalid) < 3 {
			r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
		}
	}
	redial := func(c **client, node *server) error {
		(*c).close()
		var err error
		*c, err = dial(node.addr)
		return err
	}
	generatorCPU := pinnedCPU()
	defer runtime.UnlockOSThread()
	base := len(e.pop.services)
	var ws windows
	var cur window // the window being gathered
	var visibles, reads []int64
	// Disk use is a sawtooth: the WAL grows by 8 MiB, then a checkpoint
	// prunes it, and where on it the run stops moved the end-of-run value by
	// 4 %. So it is sampled after every batch, with the services submitted
	// by then, and the run reports the mean ratio over its first diskBatches
	// batches: bytes per object falls as the store grows, and a mean over as
	// many batches as the machine's speed allowed would follow the machine.
	type diskSample struct {
		bytes   int64
		submits int
	}
	var disk []diskSample
	submits := 0
	start := clk.Now()
	end := start.Add(time.Duration(seconds) * time.Second)
	for iter := 0; clk.Now().Before(end); {
		batch, err := e.prepareBatch(rng, token, base, &iter)
		if err != nil {
			return err
		}
		opened, err := readClock(e.serverCPU, generatorCPU, true)
		if err != nil {
			return err
		}
		// (1) the writes: the timed part of the batch.
		var acked []write
		for _, w := range batch {
			r.Attempted++
			t0 := clk.Now()
			status, body, err := lc.do(w.payload)
			lat := clk.Now().Sub(t0)
			cur.exchanges++
			if err != nil || status != http.StatusOK {
				fail("write to %s: status %d, err %v, body %.200q", e.pop.services[w.service].name, status, err, body)
				if err != nil {
					if err := redial(&lc, e.leader); err != nil {
						return err
					}
				}
				continue
			}
			cur.samples = append(cur.samples, sample{at: int64(t0.Sub(start)), lat: int64(lat)})
			acked = append(acked, w)
			if w.submit {
				submits++
			}
		}
		closed, err := readClock(e.serverCPU, generatorCPU, false)
		if err != nil {
			return err
		}
		cur.elapsed += closed.at.Sub(opened.at)
		cur.serverNs += closed.serverNs - opened.serverNs
		cur.clientNs += closed.clientNs - opened.clientNs
		if cur.elapsed >= publishWindow {
			ws = append(ws, cur)
			cur = window{}
		}
		// (2) wait until the follower serves the last acknowledged write.
		if len(acked) > 0 {
			r.Attempted++
			last := acked[len(acked)-1].service
			poll := restRequest(e.follower.addr, e.pop.services[last].name)
			for limit := closed.at.Add(visibleLimit); ; {
				status, body, err := fc.do(poll)
				now := clk.Now()
				if err != nil {
					if err := redial(&fc, e.follower); err != nil {
						return err
					}
				} else if status == http.StatusOK {
					if got, ok := parseURIs(body, false); ok && sameStrings(got, e.expect[last]) {
						visibles = append(visibles, int64(now.Sub(closed.at)))
						break
					}
				}
				if now.After(limit) {
					fail("write to %s not visible on the follower after %v", e.pop.services[last].name, visibleLimit)
					break
				}
			}
		}
		// (3) read the batch back: the log is applied in order, so every
		// earlier write is visible too, and each read follows an
		// apply-driven invalidation.
		for _, w := range acked {
			r.Attempted++
			t0 := clk.Now()
			status, body, err := fc.do(restRequest(e.follower.addr, e.pop.services[w.service].name))
			if err != nil || !e.verify(request{service: w.service}, status, body, true) {
				fail("read back of %s: status %d, err %v, body %.200q", e.pop.services[w.service].name, status, err, body)
				if err != nil {
					if err := redial(&fc, e.follower); err != nil {
						return err
					}
				}
				continue
			}
			reads = append(reads, int64(clk.Now().Sub(t0)))
		}
		bytes, err := dirBytes(e.leader.dir)
		if err != nil {
			return err
		}
		disk = append(disk, diskSample{bytes, submits})
	}
	after, err := e.counters()
	if err != nil {
		return err
	}
	r.saturated(ws, e.spec.nominalClientUs)
	r.Layers["loadgen.visible_p50_ms"] = quantilesMs(visibles, 0.5)[0]
	r.Layers["loadgen.read_after_write_p50_ms"] = quantilesMs(reads, 0.5)[0]
	r.Extra["loadgen.visible_p90_ms"] = quantilesMs(visibles, 0.9)[0]
	r.Extra["loadgen.batches"] = float64(len(visibles))
	if err := e.finish(r, before, after, e.ns.sweepsSince(mark)); err != nil {
		return err
	}
	objects := func(c counters) float64 { return c.leader().get("registry_objects", nil) }
	perSubmit := ratio(objects(after)-objects(before), float64(submits))
	var sum float64
	disk = disk[:min(len(disk), diskBatches)]
	for _, d := range disk {
		sum += ratio(float64(d.bytes), objects(before)+perSubmit*float64(d.submits))
	}
	r.Extra["disk_bytes_per_object_at_end"] = r.EndToEnd["disk_bytes_per_object"]
	r.EndToEnd["disk_bytes_per_object"] = ratio(sum, float64(len(disk)))
	return nil
}

// probes is how many services a recovered server must answer correctly,
// besides holding as many objects as before the kill.
const probes = 8

// runCrash measures crash_recover: kill -9 and reboot on the cold
// population for seconds (at least three boots). The machine is idle but
// for the booting server, so these times are raw.
func (e *env) runCrash(r *runResult, seed int64, seconds int) error {
	rng := rand.New(rand.NewSource(seed ^ 0xc4a54))
	before, err := e.counters()
	if err != nil {
		return err
	}
	objects := before.leader().get("registry_objects", nil)
	var replayed float64
	var recoverNs []int64
	var cpuPerBoot []float64
	bootUntil := clk.Now().Add(time.Duration(seconds) * time.Second)
	for boots := 0; boots < 3 || clk.Now().Before(bootUntil); boots++ {
		e.leader.kill()
		t0 := clk.Now()
		if err := e.h.exec(e.leader); err != nil {
			return err
		}
		if err := e.h.awaitHealth(e.leader, 120*time.Second); err != nil {
			return err
		}
		first := e.swept[rng.Intn(len(e.swept))]
		if err := e.awaitDiscovery(e.leader, first, 60*time.Second); err != nil {
			return err
		}
		recoverNs = append(recoverNs, int64(clk.Now().Sub(t0)))
		cpu, err := cpuNs(e.leader)
		if err != nil {
			return err
		}
		cpuPerBoot = append(cpuPerBoot, float64(cpu))

		// Nothing acknowledged may be lost: same object count, and the
		// oracle's answer for a seeded sample of services.
		sc, err := e.h.scrape(e.leader)
		if err != nil {
			return err
		}
		replayed = max(replayed, sc.get("registry_wal_replay_records_total", nil))
		r.Attempted++
		if got := sc.get("registry_objects", nil); got != objects {
			r.Failed++
			r.Invalid = append(r.Invalid, fmt.Sprintf("boot %d recovered %v objects, %v were acknowledged before the kill", boots, got, objects))
		}
		c, err := dial(e.leader.addr)
		if err != nil {
			return err
		}
		for i := 0; i < probes; i++ {
			k := rng.Intn(len(e.pop.services))
			r.Attempted++
			if !e.discovers(c, e.leader, k) {
				r.Failed++
				r.Invalid = append(r.Invalid, fmt.Sprintf("boot %d answers %s wrongly", boots, e.pop.services[k].name))
				break // the connection may have lost its framing
			}
		}
		c.close()
	}
	// The scraped counters restart with every boot; what is reported is the
	// last boot's.
	after, err := e.counters()
	if err != nil {
		return err
	}
	rec := quantilesMs(recoverNs, 0.5, 0.9)
	r.EndToEnd["primary_p50_ms"] = rec[0]
	r.EndToEnd["primary_p90_ms"] = rec[1]
	r.EndToEnd["throughput_ops"] = ratio(objects, rec[0]/1e3)
	// The op of this workload is one recovered object; CPU is what a boot
	// has used by the time it answers correctly.
	r.EndToEnd["cpu_us_per_op"] = ratio(medianFloat(cpuPerBoot)/1e3, objects)
	r.Extra["boots"] = float64(len(recoverNs))
	r.Layers["loadgen.samples"] = float64(len(recoverNs))
	r.Layers["loadgen.raw_p50_ms"] = rec[0]
	r.Layers["loadgen.raw_throughput_ops"] = r.EndToEnd["throughput_ops"]
	r.Layers["loadgen.raw_cpu_us_per_op"] = r.EndToEnd["cpu_us_per_op"]
	r.Layers["loadgen.speed_index"] = 1
	if err := e.finish(r, after, after, nil); err != nil {
		return err
	}
	// Only the first boot after the population finds a WAL tail: every boot
	// ends by writing a checkpoint.
	r.Layers["wal.replayed_records"] = replayed
	return nil
}
