package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/admit"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/lcm"
	"repro/internal/nodestatus"
	"repro/internal/registry"
	"repro/internal/repl"
	"repro/internal/respcache"
	"repro/internal/rim"
	"repro/internal/router"
	"repro/internal/soap"
	"repro/internal/store"
	"repro/internal/wal"
)

// This file is the traced run: the workload's population in one
// in-process registry, its seeded requests walked through a shadow
// pipeline that calls each layer's public functions in serving order with
// a span around every call, and the write, recovery and collector paths
// the same way. The spans are recorded here, from the bench's own code;
// spans inside the program are a later change.

const (
	traceRequests = 20000 // requests of the seeded sequence the replay walks
	probeRequests = 256   // forced-miss probes per protocol
	extraSubmits  = 64    // single-service submits timed after population
	slowCall      = 300 * time.Millisecond
)

// staticInvoker answers NodeStatus invocations from the generated cluster
// without a socket, as LocalInvoker does for simulated hosts.
type staticInvoker struct{ c *cluster }

func (s staticInvoker) Invoke(uri string) (nodestatus.Response, error) {
	i, ok := s.c.byHost[rim.HostOfURI(uri)]
	if !ok {
		return nodestatus.Response{}, fmt.Errorf("bench: no generated host behind %s", uri)
	}
	return s.c.response(i), nil
}

// bindingsBody is the REST discovery response shape; rendering it with
// one-space indent is what the edge does on a miss.
type bindingsBody struct {
	URIs       []string `json:"uris"`
	Filtered   bool     `json:"filtered"`
	Eligible   int      `json:"eligible"`
	Unknown    int      `json:"unknown"`
	Ineligible int      `json:"ineligible"`
	WindowOK   bool     `json:"windowOk"`
}

// nopWriter is a reusable ResponseWriter that keeps nothing.
type nopWriter struct {
	hdr    http.Header
	status int
}

func (w *nopWriter) Header() http.Header { return w.hdr }
func (w *nopWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(b), nil
}
func (w *nopWriter) WriteHeader(code int) { w.status = code }
func (w *nopWriter) reset() {
	for k := range w.hdr {
		delete(w.hdr, k)
	}
	w.status = 0
}

// tracer holds the in-process registry and the recorder of one traced run.
type tracer struct {
	h    *harness
	spec workloadSpec
	pop  *population
	reg  *registry.Registry
	lctx lcm.Context
	rec  *recorder
	dir  string

	router    *router.Router
	restRoute *http.Request
	soapRoute *http.Request
	w         *nopWriter
	envelope  [][]byte // SOAP GetBindingsRequest envelope per service
	nextReq   int32

	arrangeAllocs float64 // allocations per ArrangeView
	pollPerRecord []int64 // Follower.Poll time per record applied, ns
}

// tracedRun fills r.Layers with the traced per-layer metrics and writes
// bench/out/trace-<workload>.jsonl.
func (h *harness) tracedRun(spec workloadSpec, seed int64, r *runResult) error {
	dir, err := h.newDir("traced")
	if err != nil {
		return err
	}
	ns, err := startStatusListener()
	if err != nil {
		return err
	}
	defer ns.close()
	pop := generate(seed, spec.services, spec.hostsPer, spec.statusHosts, ns.port)
	if err := ns.answer(pop.cluster); err != nil {
		return err
	}
	reg, err := registry.New(registry.Config{
		Policy:         core.PolicyFilter,
		SnapshotMaxAge: time.Second,
		Admission:      &admit.Config{},
		Invoker:        staticInvoker{pop.cluster},
		// Fsync never: the population is not what is timed here, and
		// wal.append_ns_always carries the cost of the flush on its own.
		DataDir:    filepath.Join(dir, "leader"),
		Fsync:      wal.FsyncNever,
		ReplLeader: true,
	})
	if err != nil {
		return fmt.Errorf("bench: in-process registry: %w", err)
	}
	defer reg.Durable.WAL().Close()
	t := &tracer{h: h, spec: spec, pop: pop, reg: reg, lctx: reg.AdminContext(), dir: dir,
		rec: newRecorder(1 << 21), w: &nopWriter{hdr: make(http.Header)}}
	t.router = router.New(router.Config{})
	nop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	t.router.Handle("/registry/bindings", nop)
	t.router.Handle("/soap/registry", nop)
	t.router.Freeze()
	t.restRoute = httptest.NewRequest(http.MethodGet, "/registry/bindings?service=x", nil)
	t.soapRoute = httptest.NewRequest(http.MethodPost, "/soap/registry", nil)

	if err := t.populate(); err != nil {
		return err
	}
	seq := sequence(seed, traceRequests, spec.services, spec.soapShare)
	overhead := t.replay(seq)
	t.probes(seq)
	handler := t.handlerLevel(seq)
	if err := t.writePath(); err != nil {
		return err
	}
	t.invoke()
	t.countArrangeAllocs(seq)
	if t.rec.dropped > 0 {
		r.Invalid = append(r.Invalid, fmt.Sprintf("span buffer full: %d spans dropped", t.rec.dropped))
	}
	t.report(r, handler, overhead)
	r.Layers["loadgen.net_overhead_us"] = r.Extra["loadgen.socket_1conn_p50_us"] - r.Layers["registry.handler_rest_hit_ns"]/1e3
	return t.rec.writeJSONL(filepath.Join(h.out, "trace-"+spec.name+".jsonl"))
}

// span runs fn inside a span.
func (t *tracer) span(req, parent int32, name string, fn func()) int32 {
	id := t.rec.begin(req, parent, name)
	fn()
	t.rec.end(id)
	return id
}

// repeat runs fn in a span up to three times, once if the first call is
// slow (the cold population's checkpoint, save, load and reopen).
func (t *tracer) repeat(name string, fn func() error) error {
	for i := 0; i < 3; i++ {
		start := clk.Now()
		id := t.rec.begin(-1, -1, name)
		err := fn()
		t.rec.end(id)
		if err != nil {
			return fmt.Errorf("bench: traced %s: %w", name, err)
		}
		if clk.Now().Sub(start) > slowCall {
			break
		}
	}
	return nil
}

// populate publishes the population through the LCM and sweeps once so
// every host has a row.
func (t *tracer) populate() error {
	if err := t.reg.LCM.SubmitObjects(t.lctx, t.pop.nodeStatus); err != nil {
		return fmt.Errorf("bench: traced populate: %w", err)
	}
	batch := make([]rim.Object, 0, submitBatch)
	for i, s := range t.pop.services {
		batch = append(batch, s.obj)
		if len(batch) == submitBatch || i == len(t.pop.services)-1 {
			if err := t.reg.LCM.SubmitObjects(t.lctx, batch...); err != nil {
				return fmt.Errorf("bench: traced populate: %w", err)
			}
			batch = batch[:0]
		}
		env, err := soap.Marshal(&registryReq{Bindings: &registry.GetBindingsRequest{ServiceName: s.name}})
		if err != nil {
			return err
		}
		t.envelope = append(t.envelope, env)
	}
	for i := 0; i < 5; i++ {
		t.span(-1, -1, "nodestate.sweep_local", t.reg.Collector.CollectOnce)
	}
	return nil
}

// shadow walks one discovery request through the layers in serving order.
// root names the request's root span. With a nil recorder it does the same
// work unrecorded.
func (t *tracer) shadow(rec *recorder, root string, rq request) {
	req := t.nextReq
	t.nextReq++
	name := t.pop.services[rq.service].name
	class, route := admit.ClassDiscovery, t.restRoute
	if rq.soap {
		// /soap/registry is admitted under the LCM class.
		class, route = admit.ClassLCM, t.soapRoute
	}
	rootID := rec.begin(req, -1, root)
	if rq.soap {
		id := rec.begin(req, rootID, "soap.unmarshal")
		var in registryReq
		if err := soap.Unmarshal(t.envelope[rq.service], &in); err == nil && in.Bindings != nil {
			name = in.Bindings.ServiceName
		}
		rec.end(id)
	}
	id := rec.begin(req, rootID, "router.dispatch")
	t.router.ServeHTTP(t.w, route)
	rec.end(id)

	arrived := clk.Now()
	id = rec.begin(req, rootID, "admit.admit_release")
	t.reg.Admission.TryAdmit(class, arrived)
	rec.end(id)

	id = rec.begin(req, rootID, "store.snapshot")
	gen, _ := t.reg.Balancer.SnapshotMeta(arrived)
	rec.end(id)

	id = rec.begin(req, rootID, "respcache.lookup_hit")
	ent := t.reg.RespCache.Lookup(respcache.SpaceName, name, gen, 0, arrived)
	rec.end(id)
	if ent == nil {
		if rec != nil && id >= 0 {
			rec.spans[id].Name = "respcache.lookup_miss"
		}
		t.miss(rec, req, rootID, class, name, gen)
	}

	id = rec.begin(req, rootID, "admit.admit_release")
	t.reg.Admission.Release(class, arrived, clk.Now())
	rec.end(id)

	id = rec.begin(req, rootID, "flight.append")
	t.reg.Flight.Append(&flight.Record{Unix: arrived.UnixNano(), Latency: clk.Now().Sub(arrived),
		Route: flight.RouteBindings, Status: http.StatusOK, CacheHit: ent != nil, SnapshotGen: gen})
	rec.end(id)
	rec.end(rootID)

	if ent == nil && rec != nil {
		t.decompose(req, name, arrived)
	}
}

// miss is the part of the pipeline a cached answer skips: deadline
// budget, the query manager's discovery, both renderings, the store.
func (t *tracer) miss(rec *recorder, req, root int32, class admit.Class, name string, gen uint64) {
	id := rec.begin(req, root, "admit.budget")
	ctx, cancel, _ := t.reg.Admission.WithBudget(context.Background(), t.reg.Admission.Deadline(class, ""))
	rec.end(id)
	defer cancel()
	epoch := t.reg.RespCache.Epoch()

	id = rec.begin(req, root, "qm.get_bindings")
	uris, dec, err := t.reg.QM.GetServiceBindingsByNameCtx(ctx, name)
	rec.end(id)
	if err != nil {
		return
	}

	id = rec.begin(req, root, "registry.render_json")
	buf := respcache.GetBuffer()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", " ")
	enc.Encode(bindingsBody{URIs: uris, Filtered: dec.Filtered, Eligible: dec.Eligible(), Unknown: dec.Unknown(),
		Ineligible: dec.Ineligible(), WindowOK: dec.TimeWindowOK}) // strings, bools and ints always encode
	jsonBytes := append([]byte(nil), buf.Bytes()...)
	respcache.PutBuffer(buf)
	rec.end(id)

	id = rec.begin(req, root, "soap.marshal")
	env, _ := soap.Marshal(&registry.GetBindingsResponse{URIs: uris, Filtered: dec.Filtered, Eligible: dec.Eligible(),
		Unknown: dec.Unknown(), Ineligible: dec.Ineligible(), WindowOK: dec.TimeWindowOK}) // likewise
	rec.end(id)

	id = rec.begin(req, root, "respcache.store")
	t.reg.RespCache.StoreAt(respcache.SpaceName, name, &respcache.Entry{Gen: gen, JSON: jsonBytes, SOAP: env, Decision: dec}, epoch)
	rec.end(id)
}

// decompose times, on their own, the calls the query manager makes inside
// qm.get_bindings. They sit under a root of their own so the request's
// stage sum does not count them twice.
func (t *tracer) decompose(req int32, name string, now time.Time) {
	root := t.rec.begin(req, -1, "decompose")
	var view store.DiscoveryView
	t.span(req, root, "store.service_view", func() { view, _ = t.reg.Store.ServiceViewByName(name) })
	t.span(req, root, "core.arrange", func() { t.reg.Balancer.ArrangeView(view, now) })
	// The discovery above has just parsed and cached this description.
	t.span(req, root, "constraint.cache_hit", func() { t.reg.ConstraintCache.FromDescription(view.ID, view.Description) })
	t.span(req, root, "constraint.parse", func() { constraint.FromDescription(view.Description) })
	t.rec.end(root)
}

// replay walks the seeded sequence twice, traced and untraced, sweeping
// once per second's worth of requests as the collector does in the
// socket run (each sweep republishes the snapshot and so invalidates
// every cached answer). It returns traced time over untraced time.
func (t *tracer) replay(seq []request) float64 {
	perSweep := t.spec.rate
	if perSweep == 0 {
		perSweep = 1000
	}
	pass := func(rec *recorder) time.Duration {
		t.reg.RespCache.BumpEpoch()
		start := clk.Now()
		for i, rq := range seq {
			if i%perSweep == 0 {
				t.reg.Collector.CollectOnce()
			}
			t.shadow(rec, "request", rq)
		}
		return clk.Now().Sub(start)
	}
	traced := pass(t.rec)
	// The decompose calls only run when recording; time them out of the
	// traced total so the ratio compares the same work.
	var extra int64
	for i := range t.rec.spans {
		if s := &t.rec.spans[i]; s.Name == "decompose" {
			extra += s.End - s.Start
		}
	}
	untraced := pass(nil)
	return ratio(float64(int64(traced)-extra), float64(untraced))
}

// probes forces a miss per request (a write-epoch bump first) so the
// shadow pipeline and the real handler see the same requests in the same
// cache state; the coverage ratios compare the two.
func (t *tracer) probes(seq []request) {
	for _, rq := range seq[:probeRequests] {
		t.reg.RespCache.BumpEpoch()
		t.shadow(t.rec, "probe.rest_miss", request{service: rq.service})
		t.reg.RespCache.BumpEpoch()
		t.shadow(t.rec, "probe.soap_miss", request{service: rq.service, soap: true})
	}
}

// handlerTimes is the in-process end to end the stages must sum to.
type handlerTimes struct {
	ns     map[string][]int64 // rest_hit, rest_miss, soap_hit, soap_miss
	allocs map[string]float64
}

func (t *tracer) httpRequest(rq request) *http.Request {
	if rq.soap {
		r := httptest.NewRequest(http.MethodPost, "/soap/registry", bytes.NewReader(t.envelope[rq.service]))
		r.Header.Set("Content-Type", soap.ContentType)
		return r
	}
	return httptest.NewRequest(http.MethodGet, "/registry/bindings?service="+t.pop.services[rq.service].name, nil)
}

// handlerLevel times reg.Handler().ServeHTTP on a reused writer, hit and
// miss forced by request order, and counts allocations per request.
func (t *tracer) handlerLevel(seq []request) handlerTimes {
	h := t.reg.Handler()
	out := handlerTimes{ns: map[string][]int64{}, allocs: map[string]float64{}}
	serve := func(req *http.Request) int64 {
		t.w.reset()
		start := clk.Now()
		h.ServeHTTP(t.w, req)
		return int64(clk.Now().Sub(start))
	}
	for _, rq := range seq[:probeRequests] {
		for _, soapReq := range []bool{false, true} {
			rq.soap = soapReq
			kind := "rest"
			if soapReq {
				kind = "soap"
			}
			miss, hit := t.httpRequest(rq), t.httpRequest(rq)
			t.reg.RespCache.BumpEpoch()
			out.ns[kind+"_miss"] = append(out.ns[kind+"_miss"], serve(miss))
			out.ns[kind+"_hit"] = append(out.ns[kind+"_hit"], serve(hit))
		}
	}
	const n = 200
	var m0, m1 runtime.MemStats
	for _, c := range []struct {
		kind       string
		soap, miss bool
	}{{"rest_hit", false, false}, {"rest_miss", false, true}, {"soap_hit", true, false}, {"soap_miss", true, true}} {
		rq := request{service: seq[0].service, soap: c.soap}
		reqs := make([]*http.Request, n)
		for i := range reqs {
			reqs[i] = t.httpRequest(rq)
		}
		serve(t.httpRequest(rq)) // the answer is cached from here on
		runtime.ReadMemStats(&m0)
		for _, req := range reqs {
			if c.miss {
				t.reg.RespCache.BumpEpoch()
			}
			t.w.reset()
			h.ServeHTTP(t.w, req)
		}
		runtime.ReadMemStats(&m1)
		out.allocs[c.kind] = float64(m1.Mallocs-m0.Mallocs) / n
	}
	return out
}

// countArrangeAllocs counts allocations per ArrangeView at the workload's
// host count.
func (t *tracer) countArrangeAllocs(seq []request) {
	const n = 200
	views := make([]store.DiscoveryView, n)
	for i := range views {
		views[i], _ = t.reg.Store.ServiceViewByName(t.pop.services[seq[i%len(seq)].service].name)
	}
	now := clk.Now()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, v := range views {
		t.reg.Balancer.ArrangeView(v, now)
	}
	runtime.ReadMemStats(&m1)
	t.arrangeAllocs = float64(m1.Mallocs-m0.Mallocs) / n
}

// copyDir copies the regular files of src into dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePath times the layers the read path never touches: LCM submit,
// WAL append, checkpoint, store save and load, recovery, record apply and
// follower poll, all on the workload's own population.
func (t *tracer) writePath() error {
	// Raw log appends under both flush policies.
	payload := bytes.Repeat([]byte("x"), 1024)
	for _, p := range []struct {
		name   string
		policy wal.FsyncPolicy
		n      int
	}{{"wal.append_always", wal.FsyncAlways, 200}, {"wal.append_never", wal.FsyncNever, 2000}} {
		l, err := wal.Open(filepath.Join(t.dir, p.name), wal.Options{Fsync: p.policy})
		if err != nil {
			return fmt.Errorf("bench: traced %s: %w", p.name, err)
		}
		for i := 0; i < p.n; i++ {
			id := t.rec.begin(-1, -1, p.name)
			_, err := l.Append(payload)
			t.rec.end(id)
			if err != nil {
				l.Close()
				return fmt.Errorf("bench: traced %s: %w", p.name, err)
			}
		}
		if err := l.Close(); err != nil {
			return fmt.Errorf("bench: traced %s: %w", p.name, err)
		}
	}

	if err := t.repeat("wal.checkpoint", t.reg.Durable.Checkpoint); err != nil {
		return err
	}
	var snap bytes.Buffer
	if err := t.repeat("store.save", func() error { snap.Reset(); return t.reg.Store.Save(&snap) }); err != nil {
		return err
	}
	var loaded *store.Store
	if err := t.repeat("store.load", func() error { loaded = store.New(); return loaded.Load(bytes.NewReader(snap.Bytes())) }); err != nil {
		return err
	}

	// Single-service submits on the full population: the WAL tail that
	// recovery, record apply and the follower then work on.
	ckpt := t.reg.Durable.CheckpointPos()
	submit := func(n int) error {
		for i := 0; i < n; i++ {
			s := t.pop.newService(fmt.Sprintf("traced-%06d", len(t.pop.services)), 4)
			t.pop.services = append(t.pop.services, s)
			id := t.rec.begin(-1, -1, "lcm.submit")
			err := t.reg.LCM.SubmitObjects(t.lctx, s.obj)
			t.rec.end(id)
			if err != nil {
				return fmt.Errorf("bench: traced lcm.submit: %w", err)
			}
		}
		return nil
	}
	if err := submit(extraSubmits); err != nil {
		return err
	}

	// Recovery of a copy of the data directory: newest checkpoint plus the
	// tail just written. Only the open is inside the span.
	for i := 0; i < 3; i++ {
		dst := filepath.Join(t.dir, fmt.Sprintf("reopen-%d", i))
		if err := copyDir(filepath.Join(t.dir, "leader"), dst); err != nil {
			return fmt.Errorf("bench: traced wal.open_durable: %w", err)
		}
		start := clk.Now()
		id := t.rec.begin(-1, -1, "wal.open_durable")
		d, err := wal.OpenDurable(dst, store.New(), wal.DurableOptions{Log: wal.Options{Fsync: wal.FsyncNever}})
		t.rec.end(id)
		if err != nil {
			return fmt.Errorf("bench: traced wal.open_durable: %w", err)
		}
		if err := d.WAL().Close(); err != nil {
			return fmt.Errorf("bench: traced wal.open_durable: %w", err)
		}
		if clk.Now().Sub(start) > slowCall {
			break
		}
	}

	rd, err := t.reg.Durable.WAL().OpenReaderAt(ckpt)
	if err != nil {
		return fmt.Errorf("bench: traced wal.apply_record: %w", err)
	}
	for {
		sr, err := rd.Next()
		if errors.Is(err, wal.ErrEndOfLog) {
			break
		}
		if err != nil {
			rd.Close()
			return fmt.Errorf("bench: traced wal.apply_record: %w", err)
		}
		id := t.rec.begin(-1, -1, "wal.apply_record")
		_, err = wal.ApplyRecord(loaded, sr.Payload)
		t.rec.end(id)
		if err != nil {
			rd.Close()
			return fmt.Errorf("bench: traced wal.apply_record: %w", err)
		}
	}
	rd.Close()

	// A follower of the in-process leader: bootstrap and catch up untimed,
	// then time polls that each find a batch of fresh records.
	ts := httptest.NewServer(t.reg.Handler())
	defer ts.Close()
	f, err := repl.OpenFollower(filepath.Join(t.dir, "follower"), store.New(), repl.FollowerOptions{
		LeaderURL: ts.URL, PollWait: -1, Log: wal.Options{Fsync: wal.FsyncNever},
		Client: &http.Client{Timeout: 60 * time.Second},
	})
	if err != nil {
		return fmt.Errorf("bench: traced repl.poll: %w", err)
	}
	defer f.Close() // its state directory is removed with the run's
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := f.Poll(ctx); err != nil {
			return fmt.Errorf("bench: traced repl.poll: catch up: %w", err)
		}
		if st := f.Stats(); st.CaughtUp && st.LagRecords == 0 && i > 0 {
			break
		}
	}
	for round := 0; round < 3; round++ {
		if err := submit(32); err != nil {
			return err
		}
		start := clk.Now()
		id := t.rec.begin(-1, -1, "repl.poll")
		n, err := f.Poll(ctx)
		t.rec.end(id)
		if err != nil {
			return fmt.Errorf("bench: traced repl.poll: %w", err)
		}
		if n > 0 {
			t.pollPerRecord = append(t.pollPerRecord, int64(clk.Now().Sub(start))/int64(n))
		}
	}
	return nil
}

// invoke times HTTPInvoker against the bench's own NodeStatus listener.
func (t *tracer) invoke() {
	inv := nodestatus.HTTPInvoker{Client: &http.Client{Timeout: 5 * time.Second}}
	uris := t.pop.nodeStatus.AccessURIs()
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		id := t.rec.begin(-1, -1, "nodestatus.invoke")
		inv.InvokeContext(ctx, uris[i%len(uris)]) // a failed invocation shows as an outlier span, not a wrong answer
		t.rec.end(id)
	}
}

// report turns the spans into the per-layer metrics.
func (t *tracer) report(r *runResult, handler handlerTimes, overhead float64) {
	self := selfByName(t.rec.spans)
	L := r.Layers
	med := func(name string) float64 { return medianNs(self[name]) }
	for _, name := range []string{
		"router.dispatch", "flight.append", "respcache.lookup_hit", "respcache.lookup_miss", "respcache.store",
		"qm.get_bindings", "store.service_view", "store.snapshot", "constraint.cache_hit", "constraint.parse",
		"core.arrange", "soap.unmarshal", "soap.marshal", "registry.render_json", "lcm.submit", "wal.apply_record", "admit.budget",
	} {
		L[name+"_ns"] = med(name)
	}
	L["core.arrange_allocs"] = t.arrangeAllocs
	L["wal.append_ns_always"] = med("wal.append_always")
	L["wal.append_ns_never"] = med("wal.append_never")
	for _, name := range []string{"wal.checkpoint", "store.save", "store.load", "wal.open_durable", "nodestate.sweep_local"} {
		L[name+"_ms"] = med(name) / 1e6
	}
	L["repl.poll_apply_us_per_record"] = medianNs(t.pollPerRecord) / 1e3
	L["nodestatus.invoke_us"] = med("nodestatus.invoke") / 1e3
	for kind, ns := range handler.ns {
		L["registry.handler_"+kind+"_ns"] = medianNs(ns)
		L["registry.handler_"+kind+"_allocs"] = handler.allocs[kind]
	}
	L["trace.overhead_ratio"] = overhead

	// Per request: admission is two spans (admit, release), and the query
	// manager's own time is what is left of its span after the view load
	// and the arrange it calls, timed on their own in the decompose root.
	type perReq struct {
		root            string
		admit, stageSum int64
		qm, view, arr   int64
	}
	reqs := map[int32]*perReq{}
	selfAll := selfTimes(t.rec.spans)
	rootName := map[int32]string{}
	for i := range t.rec.spans {
		s := &t.rec.spans[i]
		if s.Req < 0 {
			continue
		}
		p := reqs[s.Req]
		if p == nil {
			p = &perReq{}
			reqs[s.Req] = p
		}
		if s.Parent < 0 {
			rootName[s.ID] = s.Name
			if s.Name != "decompose" {
				p.root = s.Name
			}
			continue
		}
		switch s.Name {
		case "admit.admit_release":
			p.admit += selfAll[i]
		case "qm.get_bindings":
			p.qm = selfAll[i]
		case "store.service_view":
			p.view = selfAll[i]
		case "core.arrange":
			p.arr = selfAll[i]
		}
		if rootName[s.Parent] != "decompose" {
			p.stageSum += selfAll[i]
		}
	}
	var admitNs, qmSelf, restSum, soapSum []int64
	for _, p := range reqs {
		admitNs = append(admitNs, p.admit)
		if p.qm > 0 {
			qmSelf = append(qmSelf, max(0, p.qm-p.view-p.arr))
		}
		switch p.root {
		case "probe.rest_miss":
			restSum = append(restSum, p.stageSum)
		case "probe.soap_miss":
			soapSum = append(soapSum, p.stageSum)
		}
	}
	L["admit.admit_release_ns"] = medianNs(admitNs)
	L["qm.self_ns"] = medianNs(qmSelf)
	L["trace.coverage_rest_miss"] = ratio(medianNs(restSum), L["registry.handler_rest_miss_ns"])
	L["trace.coverage_soap_miss"] = ratio(medianNs(soapSum), L["registry.handler_soap_miss_ns"])
	r.Extra["trace.spans"] = float64(len(t.rec.spans))
}

// traceExtras measures, on the still-running cluster, the per-layer
// numbers that need sockets but are no part of the timed phase: the open
// loop of a read workload, the one-connection closed-loop REST median (for
// loadgen.net_overhead_us) and server CPU per idle sweep.
func (e *env) traceExtras(r *runResult, seed int64, seconds int) error {
	if e.spec.rate > 0 {
		if err := e.runOpen(r, seed, time.Duration(seconds)*time.Second/2); err != nil {
			return err
		}
	}
	hot := sequence(r.Seed, 4096, min(64, e.spec.services), 0)
	node := e.readNode()
	c, err := dial(node.addr)
	if err != nil {
		return err
	}
	defer func() { c.close() }()
	var lat []int64
	for end := clk.Now().Add(time.Second); clk.Now().Before(end); {
		rq := hot[len(lat)%len(hot)]
		start := clk.Now()
		status, body, err := c.do(restRequest(node.addr, e.pop.services[rq.service].name))
		if err != nil || !e.verify(rq, status, body, false) {
			return fmt.Errorf("bench: one-connection probe: status %d, err %v", status, err)
		}
		lat = append(lat, int64(clk.Now().Sub(start)))
	}
	r.Extra["loadgen.socket_1conn_p50_us"] = quantilesMs(lat, 0.5)[0] * 1e3
	cpuMs, sweeps, err := e.idleSweeps(4 * time.Second)
	if err != nil {
		return err
	}
	r.Layers["nodestate.cpu_ms_per_sweep"] = cpuMs
	r.Extra["idle_sweeps"] = float64(len(sweeps))
	// Where the timed phase saw no steady sweeps (crash_recover reboots
	// through it), the idle ones stand in.
	if _, ok := r.Layers["nodestate.sweep_http_ms"]; !ok && len(sweeps) > 0 {
		r.Layers["nodestate.sweep_http_ms"] = quantilesMs(sweeps, 0.5)[0]
	}
	return nil
}
