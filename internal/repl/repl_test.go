package repl

// The leader/follower convergence suite: the acceptance tests for the
// replication subsystem. A leader is a real lcm.Manager wired to a real
// wal.Durable behind the Leader HTTP endpoints; followers bootstrap and
// tail over real HTTP. Convergence is judged the same way the crash
// harness judges recovery: store.Save output must match the leader
// byte-for-byte.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/lcm"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/xacml"
)

var t0 = time.Unix(1_700_000_000, 0)

// leaderNode is one leader under test: store, durability, LCM write path,
// and the replication endpoints.
type leaderNode struct {
	t     *testing.T
	dir   string
	clk   *simclock.Manual
	store *store.Store
	d     *wal.Durable
	mgr   *lcm.Manager
	lctx  lcm.Context
	ld    *Leader
}

func newLeaderNode(t *testing.T, dir string, opts wal.DurableOptions) *leaderNode {
	t.Helper()
	clk := simclock.NewManual(t0)
	if opts.Log.Clock == nil {
		opts.Log.Clock = clk
	}
	s := store.New()
	d, err := wal.OpenDurable(dir, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	mgr := lcm.New(s, nil, audit.New(s, clk), nil)
	mgr.Durability = d
	return &leaderNode{
		t: t, dir: dir, clk: clk, store: s, d: d, mgr: mgr,
		lctx: lcm.Context{UserID: "repl-tester", Roles: []string{xacml.RoleAdministrator}},
		ld:   NewLeader(d, clk, nil),
	}
}

func (n *leaderNode) submit(name string) string {
	n.t.Helper()
	svc := rim.NewService(name, "replicated service")
	if err := n.mgr.SubmitObjects(n.lctx, svc); err != nil {
		n.t.Fatal(err)
	}
	return svc.ID
}

func (n *leaderNode) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathWAL, n.ld.ServeWAL)
	mux.HandleFunc(PathCheckpoint, n.ld.ServeCheckpoint)
	return mux
}

func saveBytes(t *testing.T, s *store.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newFollower(t *testing.T, dir, leaderURL string, client *http.Client, tweak func(*FollowerOptions)) *Follower {
	t.Helper()
	opts := FollowerOptions{
		LeaderURL: leaderURL,
		Clock:     simclock.NewManual(t0),
		Client:    client,
		Seed:      7,
		PollWait:  -1, // deterministic mode: polls return immediately
	}
	if tweak != nil {
		tweak(&opts)
	}
	f, err := OpenFollower(dir, store.New(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// catchUp polls until the follower's applied position reaches the
// leader's committed position.
func catchUp(t *testing.T, f *Follower, n *leaderNode) {
	t.Helper()
	ctx := context.Background()
	poll := orderedPoll(t, f)
	for i := 0; i < 1000; i++ {
		want, _ := n.d.WAL().Committed()
		if f.Stats().Applied == want {
			return
		}
		if _, err := poll(ctx); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatalf("follower stuck at %s, leader at %s", f.Stats().Applied, n.d.CheckpointPos())
}

func assertConverged(t *testing.T, n *leaderNode, f *Follower) {
	t.Helper()
	leaderBytes := saveBytes(t, n.store)
	followerBytes := saveBytes(t, f.store)
	if !bytes.Equal(leaderBytes, followerBytes) {
		t.Fatalf("follower store diverged:\nleader   %d bytes\nfollower %d bytes", len(leaderBytes), len(followerBytes))
	}
}

func TestReplColdFollowerConvergesByteIdentical(t *testing.T) {
	n := newLeaderNode(t, t.TempDir(), wal.DurableOptions{})
	defer n.d.Close()
	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, n.submit(fmt.Sprintf("pre-ckpt-%d", i)))
	}
	if err := n.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Writes after the checkpoint arrive via the stream, not the snapshot.
	for i := 0; i < 8; i++ {
		n.submit(fmt.Sprintf("streamed-%d", i))
	}
	if err := n.mgr.DeprecateObjects(n.lctx, ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := n.mgr.RemoveObjects(n.lctx, ids[1]); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(n.handler())
	defer srv.Close()

	f := newFollower(t, t.TempDir(), srv.URL, srv.Client(), nil)
	defer f.Close()
	if !f.Cold() {
		t.Fatal("fresh follower should be cold")
	}
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	catchUp(t, f, n)
	assertConverged(t, n, f)

	// The eight submits, the deprecation and the removal after the
	// checkpoint are one record each.
	st := f.Stats()
	if st.AppliedTotal != 10 {
		t.Fatalf("streamed records applied: stats %+v, want one per write since the checkpoint", st)
	}
	if st.LagRecords != 0 || !st.CaughtUp {
		t.Fatalf("caught-up follower reports lag: %+v", st)
	}
	if _, err := f.store.Get(ids[1]); err == nil {
		t.Fatal("removed object still present on follower")
	}
}

func TestReplFollowerRestartResumesFromDurablePosition(t *testing.T) {
	n := newLeaderNode(t, t.TempDir(), wal.DurableOptions{})
	defer n.d.Close()
	n.submit("gen-1")
	if err := n.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	n.submit("gen-2")
	srv := httptest.NewServer(n.handler())
	defer srv.Close()

	fdir := t.TempDir()
	f := newFollower(t, fdir, srv.URL, srv.Client(), nil)
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	catchUp(t, f, n)
	resumeAt := f.Stats().Applied
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The leader keeps writing while the follower is down.
	for i := 0; i < 6; i++ {
		n.submit(fmt.Sprintf("while-down-%d", i))
	}

	f2 := newFollower(t, fdir, srv.URL, srv.Client(), nil)
	defer f2.Close()
	if f2.Cold() {
		t.Fatal("restarted follower lost its durable state")
	}
	if got := f2.Stats().Applied; got != resumeAt {
		t.Fatalf("restarted follower resumes at %s, want %s", got, resumeAt)
	}
	catchUp(t, f2, n)
	assertConverged(t, n, f2)
	if st := f2.Stats(); st.Rebootstraps != 0 {
		t.Fatalf("restart should resume by position, not re-bootstrap: %+v", st)
	}
}

// TestReplApplyKeepsNothingOfTheFrame: a follower reads every record into
// one buffer and re-logs it from that buffer, so nothing the store keeps may
// alias it. Poll's loop runs here one record at a time with the buffer
// overwritten after every apply: the store must not change, and the local
// log, replayed by a restart that finds no newer checkpoint, must rebuild
// the same store.
func TestReplApplyKeepsNothingOfTheFrame(t *testing.T) {
	n := newLeaderNode(t, t.TempDir(), wal.DurableOptions{Log: wal.Options{Fsync: wal.FsyncNever}})
	defer n.d.Close()
	n.submit("bootstrapped")
	if err := n.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(n.handler())
	defer srv.Close()
	fdir := t.TempDir()
	noCheckpoints := func(o *FollowerOptions) { o.CheckpointRecords, o.CheckpointBytes = -1, -1 }
	f := newFollower(t, fdir, srv.URL, srv.Client(), noCheckpoints)
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Every kind of record a registry logs, with every kind of value in it.
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	svc := rim.NewService("Añadir <数>", "Adds. <constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>")
	for i := 0; i < 8; i++ {
		svc.AddBinding(fmt.Sprintf("http://h%d.sdsu.edu:8080/Adder/addService", i))
	}
	svc.Slots = []rim.Slot{{Name: "copyright", SlotType: "text", Values: []string{"SDSU \u2028 2011"}}}
	svc.Classifications = []*rim.Classification{rim.NewExternalClassification(svc.ID, "urn:scheme", "compute")}
	svc.ExternalIdentifiers = []*rim.ExternalIdentifier{rim.NewExternalIdentifier(svc.ID, "urn:duns", "0042")}
	svc.Bindings[0].SpecificationLinks = []*rim.SpecificationLink{rim.NewSpecificationLink(svc.Bindings[0].ID, "urn:uuid:wsdl")}
	must(n.mgr.SubmitObjects(n.lctx, svc))
	svc.Description = rim.NewIString("Adds faster.")
	must(n.mgr.UpdateObjects(n.lctx, svc))
	must(n.mgr.ApproveObjects(n.lctx, svc.ID))
	must(n.mgr.PutContent(svc.ID+":wsdl", []byte("<definitions/>\x00\xff")))
	must(n.mgr.SubmitObjects(n.lctx, rim.NewOrganization("SDSU")))
	must(n.mgr.RemoveObjects(n.lctx, n.submit("removed")))
	must(n.mgr.DeleteContent(svc.ID + ":wsdl"))

	w := httptest.NewRecorder()
	n.ld.ServeWAL(w, httptest.NewRequest(http.MethodGet, PathWAL+"?from="+f.Stats().Applied.String(), nil))
	br := bufio.NewReader(w.Body)
	applied := 0
	for ; ; applied++ {
		rec, _, err := readFrame(br, &f.frame)
		if err == io.EOF {
			break
		}
		must(err)
		must(f.apply(rec, f.frame))
		before := saveBytes(t, f.store)
		frame := f.frame[:cap(f.frame)]
		for i := range frame {
			frame[i] = 'x'
		}
		if !bytes.Equal(saveBytes(t, f.store), before) {
			t.Fatalf("overwriting the frame buffer after record %d changed the store", applied)
		}
	}
	if applied < 8 {
		t.Fatalf("the stream carried %d records, want at least 8", applied)
	}
	assertConverged(t, n, f)

	// Abandoned without a checkpoint: the restart replays every record from
	// the local log.
	must(f.journal.Close())
	g := newFollower(t, fdir, srv.URL, srv.Client(), noCheckpoints)
	defer g.Close()
	if got, want := g.Stats().Applied, f.Stats().Applied; got != want {
		t.Fatalf("restarted follower at %s, want %s", got, want)
	}
	assertConverged(t, n, g)
}

// handlerProxy lets a test "restart" the leader behind one stable URL.
type handlerProxy struct {
	h atomic.Pointer[http.Handler]
}

func (p *handlerProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*p.h.Load()).ServeHTTP(w, r)
}

func (p *handlerProxy) set(h http.Handler) { p.h.Store(&h) }

func TestReplLeaderRestartMidStream(t *testing.T) {
	ldir := t.TempDir()
	n := newLeaderNode(t, ldir, wal.DurableOptions{})
	n.submit("before-restart")
	if err := n.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	proxy := &handlerProxy{}
	proxy.set(n.handler())
	srv := httptest.NewServer(proxy)
	defer srv.Close()

	f := newFollower(t, t.TempDir(), srv.URL, srv.Client(), nil)
	defer f.Close()
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	catchUp(t, f, n)

	// Leader "restarts": graceful close, then a fresh Durable over the
	// same directory behind the same URL.
	if err := n.d.Close(); err != nil {
		t.Fatal(err)
	}
	n2 := newLeaderNode(t, ldir, wal.DurableOptions{})
	defer n2.d.Close()
	proxy.set(n2.handler())
	for i := 0; i < 5; i++ {
		n2.submit(fmt.Sprintf("after-restart-%d", i))
	}
	catchUp(t, f, n2)
	assertConverged(t, n2, f)
}

func TestReplPrunedPositionRebootstraps(t *testing.T) {
	// Tiny segments and aggressive checkpointing make the leader prune
	// history out from under an idle follower.
	n := newLeaderNode(t, t.TempDir(), wal.DurableOptions{
		Log:               wal.Options{SegmentBytes: 256},
		CheckpointRecords: 3,
	})
	defer n.d.Close()
	n.submit("early")
	if err := n.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(n.handler())
	defer srv.Close()

	f := newFollower(t, t.TempDir(), srv.URL, srv.Client(), nil)
	defer f.Close()
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	catchUp(t, f, n)
	before := f.Stats().Rebootstraps

	for i := 0; i < 30; i++ {
		n.submit(fmt.Sprintf("pruner-%02d", i))
	}
	oldest := f.Stats().Applied
	if _, err := n.d.WAL().OpenReaderAt(oldest); err == nil {
		t.Fatalf("precondition: follower position %s should be pruned on the leader", oldest)
	}

	catchUp(t, f, n)
	assertConverged(t, n, f)
	if got := f.Stats().Rebootstraps; got <= before {
		t.Fatalf("rebootstraps = %d, want > %d after pruned resume", got, before)
	}
}

// droppingTransport injects seeded connection failures in front of a real
// transport — the partition half of the partition/lag harness.
type droppingTransport struct {
	base     http.RoundTripper
	rng      *rand.Rand // guarded by the follower's single-goroutine use
	dropPct  int
	injected atomic.Int64
}

func (d *droppingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if d.rng.Intn(100) < d.dropPct {
		d.injected.Add(1)
		return nil, fmt.Errorf("injected partition: %s", req.URL.Path)
	}
	return d.base.RoundTrip(req)
}

func TestReplPartitionLagHarnessEverySeed(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			n := newLeaderNode(t, t.TempDir(), wal.DurableOptions{})
			defer n.d.Close()
			for i := 0; i < 20; i++ {
				n.submit(fmt.Sprintf("seed%d-%02d", seed, i))
			}
			if err := n.d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				n.submit(fmt.Sprintf("seed%d-tail-%02d", seed, i))
			}
			srv := httptest.NewServer(n.handler())
			defer srv.Close()

			dt := &droppingTransport{
				base:    srv.Client().Transport,
				rng:     rand.New(rand.NewSource(seed)),
				dropPct: 40,
			}
			f := newFollower(t, t.TempDir(), srv.URL,
				&http.Client{Timeout: 5 * time.Second, Transport: dt},
				func(o *FollowerOptions) {
					o.Clock = simclock.Real{}
					o.Seed = seed
					o.BackoffBase = time.Millisecond
					o.BackoffMax = 4 * time.Millisecond
				})

			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				f.Run(ctx)
				close(done)
			}()
			want, _ := n.d.WAL().Committed()
			deadline := time.Now().Add(30 * time.Second)
			for f.Stats().Applied != want {
				if time.Now().After(deadline) {
					cancel()
					<-done
					t.Fatalf("follower never converged through the partition: %+v (injected %d)",
						f.Stats(), dt.injected.Load())
				}
				time.Sleep(2 * time.Millisecond)
			}
			cancel()
			<-done
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			assertConverged(t, n, f)
			st := f.Stats()
			if dt.injected.Load() > 0 && st.ErrorsTotal == 0 {
				t.Fatalf("injected %d failures but follower counted none", dt.injected.Load())
			}
			if st.LagRecords != 0 {
				t.Fatalf("converged follower reports lag: %+v", st)
			}
		})
	}
}

func newBufReader(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }

func TestReplFrameRoundtripAndCorruption(t *testing.T) {
	rec := wal.StreamRecord{
		Pos:     wal.Position{Segment: 3, Offset: 1234},
		Seq:     42,
		Payload: []byte(`{"op":"Submit"}`),
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, rec, 57); err != nil {
		t.Fatal(err)
	}
	got, leaderSeq, err := readFrame(newBufReader(buf.Bytes()), new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	if got.Pos != rec.Pos || got.Seq != rec.Seq || leaderSeq != 57 || !bytes.Equal(got.Payload, rec.Payload) {
		t.Fatalf("frame roundtrip mismatch: %+v, leader seq %d", got, leaderSeq)
	}

	corrupt := append([]byte(nil), buf.Bytes()...)
	corrupt[len(corrupt)-1] ^= 0xff
	if _, _, err := readFrame(newBufReader(corrupt), new([]byte)); err == nil {
		t.Fatal("corrupted frame passed CRC")
	}
	truncated := buf.Bytes()[:buf.Len()-3]
	if _, _, err := readFrame(newBufReader(truncated), new([]byte)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestReplLeaderHTTPContract(t *testing.T) {
	n := newLeaderNode(t, t.TempDir(), wal.DurableOptions{Log: wal.Options{SegmentBytes: 128}})
	defer n.d.Close()
	for i := 0; i < 10; i++ {
		n.submit(fmt.Sprintf("contract-%d", i))
	}
	if err := n.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A second checkpoint prunes the segments the first one covered, so
	// position 1:0 is genuinely gone.
	n.submit("contract-tail")
	if err := n.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(n.handler())
	defer srv.Close()

	// Bad from parameter → 400.
	resp, err := srv.Client().Get(srv.URL + PathWAL + "?from=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from → %d, want 400", resp.StatusCode)
	}

	// Pruned from → 410 with a checkpoint pointer in the JSON body.
	resp, err = srv.Client().Get(srv.URL + PathWAL + "?from=1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("pruned from → %d, want 410", resp.StatusCode)
	}
	var pa prunedAnswer
	if err := json.NewDecoder(resp.Body).Decode(&pa); err != nil {
		t.Fatal(err)
	}
	if pa.Checkpoint == "" {
		t.Fatalf("410 body carries no checkpoint pointer: %+v", pa)
	}

	// Checkpoint endpoint carries position and sequence headers.
	cresp, err := srv.Client().Get(srv.URL + PathCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint → %d", cresp.StatusCode)
	}
	for _, h := range []string{HeaderCheckpointPos, HeaderCheckpointSeq, HeaderLeaderPos, HeaderLeaderSeq} {
		if cresp.Header.Get(h) == "" {
			t.Fatalf("checkpoint response missing %s header", h)
		}
	}
}

// TestReplFollowerFailedCheckpointWaitsAThreshold: a local checkpoint that
// cannot be written costs a log sync and a pass over the whole store, so
// the follower tries it again a threshold later, not on every record it
// applies meanwhile. The failure is a non-empty directory planted at the
// next checkpoint's name: renaming a file over it fails even for root.
func TestReplFollowerFailedCheckpointWaitsAThreshold(t *testing.T) {
	n := newLeaderNode(t, t.TempDir(), wal.DurableOptions{})
	defer n.d.Close()
	n.submit("gen-0")
	if err := n.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(n.handler())
	defer srv.Close()

	const every = 4
	fdir := t.TempDir()
	var logged bytes.Buffer
	f := newFollower(t, fdir, srv.URL, srv.Client(), func(o *FollowerOptions) {
		o.CheckpointRecords = every
		o.Logger = slog.New(slog.NewTextHandler(&logged, nil))
	})
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The bootstrap wrote checkpoint 1; number 2 is the one that will fail.
	if err := os.MkdirAll(filepath.Join(fdir, followerCheckpoints(fdir).Name(2), "in-the-way"), 0o777); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*every+3; i++ {
		n.submit(fmt.Sprintf("streamed-%d", i))
	}
	catchUp(t, f, n)
	assertConverged(t, n, f)
	if got := strings.Count(logged.String(), "follower checkpoint failed"); got != 2 {
		t.Fatalf("%d checkpoint attempts over %d records at threshold %d, want 2:\n%s", got, 2*every+3, every, logged.String())
	}
	if st := f.Stats(); st.Checkpoints != 1 || st.LagRecords != 0 || !st.CaughtUp || st.ErrorsTotal != 0 {
		t.Fatalf("follower after two failed checkpoints: %+v", st)
	}
	// Nothing was lost to the failures: the local log still resumes it.
	f2 := newFollower(t, fdir, srv.URL, srv.Client(), nil)
	if got := f2.Stats().Applied; got != f.Stats().Applied {
		t.Fatalf("restart resumes at %s, want %s", got, f.Stats().Applied)
	}
	assertConverged(t, n, f2)
}

// TestReplBootstrapCutShortLeavesTheStore: the follower loads the leader's
// checkpoint straight off the response body, so a body that ends early
// must fail the bootstrap without touching what the follower serves.
func TestReplBootstrapCutShortLeavesTheStore(t *testing.T) {
	n := newLeaderNode(t, t.TempDir(), wal.DurableOptions{})
	defer n.d.Close()
	for i := 0; i < 8; i++ {
		n.submit(fmt.Sprintf("svc-%d", i))
	}
	if err := n.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var whole atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PathCheckpoint || whole.Load() {
			n.handler().ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		n.ld.ServeCheckpoint(rec, r)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.Write(rec.Body.Bytes()[:rec.Body.Len()*2/3])
	}))
	defer srv.Close()

	f := newFollower(t, t.TempDir(), srv.URL, srv.Client(), nil)
	defer f.Close()
	if err := f.store.Put(rim.NewService("served-before-bootstrap", "")); err != nil {
		t.Fatal(err)
	}
	before := saveBytes(t, f.store)
	if err := f.Bootstrap(context.Background()); !errors.Is(err, store.ErrSnapshotCorrupt) {
		t.Fatalf("bootstrap from a body cut short: %v, want ErrSnapshotCorrupt", err)
	}
	if !bytes.Equal(saveBytes(t, f.store), before) || !f.Cold() {
		t.Fatal("a failed bootstrap changed the follower")
	}
	whole.Store(true)
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	catchUp(t, f, n)
	assertConverged(t, n, f)
}
