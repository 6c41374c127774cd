package repl

// The streaming half of the protocol: one response per wait, not per
// record. The leader runs on a manual clock, so a response held open is
// held open until the test advances it — a record that does not reach the
// follower without the clock moving was slept past.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/integration/leakcheck"
	"repro/internal/simclock"
	"repro/internal/wal"
)

// eventually waits for a condition another goroutine brings about.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// readFrames decodes a stream body to its end.
func readFrames(t *testing.T, body io.Reader) (recs []wal.StreamRecord, leaderSeqs []uint64) {
	t.Helper()
	br := bufio.NewReader(body)
	for {
		rec, leaderSeq, err := readFrame(br, new([]byte)) // each record keeps its own payload
		if err == io.EOF {
			return recs, leaderSeqs
		}
		if err != nil {
			t.Fatalf("stream is not whole frames: %v", err)
		}
		recs, leaderSeqs = append(recs, rec), append(leaderSeqs, leaderSeq)
	}
}

// streamingPair is a leader on a manual clock with a checkpointed first
// record, and a bootstrapped follower whose polls last wait. stop shuts all
// three down; it is not a t.Cleanup because a leak check must run after it.
func streamingPair(t *testing.T, wait time.Duration) (n *leaderNode, f *Follower, srv *httptest.Server, stop func()) {
	t.Helper()
	n = newLeaderNode(t, t.TempDir(), wal.DurableOptions{Log: wal.Options{Fsync: wal.FsyncNever}})
	n.submit("before-the-stream")
	if err := n.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv = httptest.NewServer(n.handler())
	f = newFollower(t, t.TempDir(), srv.URL, srv.Client(), func(o *FollowerOptions) { o.PollWait = wait })
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	return n, f, srv, func() {
		n.clk.Advance(time.Hour) // a failed test may leave a response held open
		f.Close()
		srv.Close()
		n.d.Close()
	}
}

func TestReplStreamCarriesEveryCommitInOneResponse(t *testing.T) {
	defer leakcheck.Check(t)()
	const wait = 10 * time.Second
	n, f, _, stop := streamingPair(t, wait)
	defer stop()
	type pollResult struct {
		n   int
		err error
	}
	polled := make(chan pollResult, 1)
	go func() {
		n, err := f.Poll(context.Background())
		polled <- pollResult{n, err}
	}()
	// An idle stream sends its headers at once: the follower knows it is
	// connected and caught up without waiting out the poll.
	eventually(t, "the idle stream's headers", func() bool { st := f.Stats(); return st.Connected && st.CaughtUp })

	// Each commit lands while the handler is somewhere between reading the
	// tail and sleeping on the append signal, and the clock moves a
	// hundredth of the wait at a time: nothing but the signal can wake it.
	const commits = 200
	for i := 0; i < commits; i++ {
		n.submit(fmt.Sprintf("streamed-%03d", i))
		eventually(t, fmt.Sprintf("commit %d to reach the follower", i), func() bool { return f.Stats().AppliedTotal == int64(i+1) })
		n.clk.Advance(wait / (2 * commits))
	}
	st, ls := f.Stats(), n.ld.Stats()
	if st.PollsTotal != 1 || ls.StreamsTotal != 1 || ls.ActiveStreams != 1 {
		t.Fatalf("%d commits took %d polls and %d responses (%d open), want one of each", commits, st.PollsTotal, ls.StreamsTotal, ls.ActiveStreams)
	}
	if st.AppliedTotal != commits || ls.RecordsStreamed != commits || st.LagRecords != 0 || st.Applied != ls.Position {
		t.Fatalf("mid-stream: follower %+v, leader %+v", st, ls)
	}
	eventually(t, "caught up after the last frame", func() bool { return f.Stats().CaughtUp })
	select {
	case res := <-polled:
		t.Fatalf("the response ended before its wait was over: %+v", res)
	default:
	}

	// The handler may be anywhere between reading the clock and sleeping on
	// it, and a manual clock only wakes sleepers it already has: keep moving
	// it until the response ends.
	var res pollResult
	for ended := false; !ended; {
		n.clk.Advance(wait)
		select {
		case res = <-polled:
			ended = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if res.n != commits || res.err != nil {
		t.Fatalf("Poll = %d, %v; want %d records over the one response", res.n, res.err, commits)
	}
	if open := n.ld.Stats().ActiveStreams; open != 0 {
		t.Fatalf("%d streams still open after the wait", open)
	}
	assertConverged(t, n, f)
}

func TestReplStreamEndsAtTheTailWithoutWaitAndAtMax(t *testing.T) {
	n, f, srv, stop := streamingPair(t, -1)
	defer stop()
	from := f.Stats().Applied
	for i := 0; i < 5; i++ {
		n.submit(fmt.Sprintf("backlog-%d", i))
	}
	tail, tailSeq := n.d.WAL().Committed()
	get := func(query string) ([]wal.StreamRecord, []uint64, http.Header) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + PathWAL + "?from=" + from.String() + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s → %d", query, resp.StatusCode)
		}
		recs, seqs := readFrames(t, resp.Body)
		return recs, seqs, resp.Header
	}

	// No wait: the backlog, then the end — the clock never moves.
	recs, seqs, hdr := get("")
	if len(recs) != 5 || recs[4].Pos != tail || recs[4].Seq != tailSeq {
		t.Fatalf("wait=0 sent %d frames ending %+v, want 5 ending at %s seq %d", len(recs), recs, tail, tailSeq)
	}
	for i, rec := range recs {
		if rec.Seq != tailSeq-4+uint64(i) || seqs[i] != tailSeq {
			t.Fatalf("frame %d: seq %d stamped leader seq %d, want %d and %d", i, rec.Seq, seqs[i], tailSeq-4+uint64(i), tailSeq)
		}
	}
	if hdr.Get(HeaderLeaderSeq) != strconv.FormatUint(tailSeq, 10) || hdr.Get(HeaderLeaderPos) != tail.String() {
		t.Fatalf("headers %v, want leader at %s seq %d", hdr, tail, tailSeq)
	}

	// max ends a stream that still has its whole wait ahead of it.
	recs, _, _ = get("&wait=10s&max=3")
	if len(recs) != 3 || recs[2].Seq != tailSeq-2 {
		t.Fatalf("max=3 sent %d frames, last seq %v", len(recs), recs)
	}
	if got := n.ld.Stats(); got.StreamsTotal != 2 || got.RecordsStreamed != 8 || got.ActiveStreams != 0 || got.ErrorsTotal != 0 {
		t.Fatalf("leader counters after two responses: %+v", got)
	}
}

func TestReplStreamClientCancelReleasesTheHandler(t *testing.T) {
	defer leakcheck.Check(t)()
	n, f, srv, stop := streamingPair(t, -1)
	defer stop()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+PathWAL+"?from="+f.Stats().Applied.String()+"&wait=30s", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Do returns at the headers, which an idle stream flushes before it sleeps.
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if open := n.ld.Stats().ActiveStreams; open != 1 {
		t.Fatalf("%d streams open while one is held, want 1", open)
	}
	cancel()
	resp.Body.Close()
	eventually(t, "the handler to notice its client left", func() bool { return n.ld.Stats().ActiveStreams == 0 })
	if errs := n.ld.Stats().ErrorsTotal; errs != 0 {
		t.Fatalf("a client leaving an idle stream counted %d errors", errs)
	}
}

// gatedWriter is a follower that stops reading: the first Write blocks
// until the test opens the gate.
type gatedWriter struct {
	*httptest.ResponseRecorder
	once    sync.Once
	reached chan struct{}
	gate    chan struct{}
}

func newGatedWriter() *gatedWriter {
	return &gatedWriter{ResponseRecorder: httptest.NewRecorder(), reached: make(chan struct{}), gate: make(chan struct{})}
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.once.Do(func() {
		close(g.reached)
		<-g.gate
	})
	return g.ResponseRecorder.Write(p)
}

func TestReplStreamPrunedMidwayEndsCleanlyThenAnswers410(t *testing.T) {
	// Every record outgrows a 256-byte segment, so each gets its own.
	n := newLeaderNode(t, t.TempDir(), wal.DurableOptions{
		Log:             wal.Options{SegmentBytes: 256, Fsync: wal.FsyncNever},
		CheckpointBytes: -1, CheckpointRecords: -1,
	})
	defer n.d.Close()
	n.submit("covered")
	if err := n.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	from := n.d.CheckpointPos()
	for i := 0; i < 6; i++ {
		n.submit(fmt.Sprintf("to-stream-%d", i))
	}

	w := newGatedWriter()
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.ld.ServeWAL(w, httptest.NewRequest(http.MethodGet, PathWAL+"?from="+from.String(), nil))
	}()
	<-w.reached // the first frame is read; its segment is the only one open
	// Two checkpoints later the segments the stream has yet to open are gone.
	if err := n.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	n.submit("after")
	if err := n.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	close(w.gate)
	<-done

	if w.Code != http.StatusOK {
		t.Fatalf("a stream pruned midway answered %d, want the 200 it had begun", w.Code)
	}
	recs, _ := readFrames(t, w.Body)
	if len(recs) == 0 || len(recs) >= 6 {
		t.Fatalf("pruned stream carried %d frames, want some but not all 6", len(recs))
	}
	if st := n.ld.Stats(); st.ErrorsTotal != 0 || st.ActiveStreams != 0 {
		t.Fatalf("a prune is not a stream error: %+v", st)
	}
	// The follower resumes from the last frame it was sent: gone.
	again := httptest.NewRecorder()
	n.ld.ServeWAL(again, httptest.NewRequest(http.MethodGet, PathWAL+"?from="+recs[len(recs)-1].Pos.String(), nil))
	if again.Code != http.StatusGone {
		t.Fatalf("the next attach answered %d, want 410", again.Code)
	}
}

// TestReplLagIsExactWithFramesInFlight: a response opened while the
// follower was caught up says so in its headers; the hundred records
// committed since are told apart from "nothing to do" only by the leader
// sequence each frame carries.
func TestReplLagIsExactWithFramesInFlight(t *testing.T) {
	n := newLeaderNode(t, t.TempDir(), wal.DurableOptions{Log: wal.Options{Fsync: wal.FsyncNever}})
	defer n.d.Close()
	n.submit("before")
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
	stale := f.Stats().AppliedSeq

	const inFlight = 100
	for i := 0; i < inFlight; i++ {
		n.submit(fmt.Sprintf("in-flight-%03d", i))
	}
	proxy.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		from, err := wal.ParsePosition(r.URL.Query().Get("from"))
		if err != nil {
			t.Error(err)
			return
		}
		rd, err := n.d.WAL().OpenReaderAt(from)
		if err != nil {
			t.Error(err)
			return
		}
		defer rd.Close()
		w.Header().Set(HeaderLeaderSeq, strconv.FormatUint(stale, 10))
		w.(http.Flusher).Flush()
		base := f.Stats().AppliedTotal
		for k := 1; ; k++ {
			rec, err := rd.Next()
			if err != nil {
				return
			}
			if err := writeFrame(w, rec, stale+inFlight); err != nil {
				t.Error(err)
				return
			}
			w.(http.Flusher).Flush()
			// The next frame waits until the follower has applied this one.
			for deadline := time.Now().Add(20 * time.Second); f.Stats().AppliedTotal != base+int64(k); time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Errorf("frame %d of %d was never applied", k, inFlight)
					return
				}
			}
			if st := f.Stats(); st.LagRecords != int64(inFlight-k) || st.LeaderSeq != stale+inFlight {
				t.Errorf("after frame %d of %d: lag %d behind leader seq %d, want %d behind %d",
					k, inFlight, st.LagRecords, st.LeaderSeq, inFlight-k, stale+inFlight)
			}
		}
	}))
	if got, err := f.Poll(context.Background()); got != inFlight || err != nil {
		t.Fatalf("Poll = %d, %v", got, err)
	}
	if st := f.Stats(); !st.CaughtUp || st.LagRecords != 0 || st.LagSeconds != 0 {
		t.Fatalf("after the last frame: %+v", st)
	}
}

// TestReplFollowerSyncRule: the follower's local log is a resume cache.
// Under never it is never synced while records arrive; under always and
// interval alike at most once per interval on the injected clock.
func TestReplFollowerSyncRule(t *testing.T) {
	const records, perPoll = 1000, 10
	const interval = 100 * time.Millisecond
	n := newLeaderNode(t, t.TempDir(), wal.DurableOptions{
		Log:             wal.Options{Fsync: wal.FsyncNever},
		CheckpointBytes: -1, CheckpointRecords: -1,
	})
	defer n.d.Close()
	if err := n.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		n.submit(fmt.Sprintf("arriving-%04d", i))
	}
	srv := httptest.NewServer(n.handler())
	defer srv.Close()

	for _, policy := range []wal.FsyncPolicy{wal.FsyncNever, wal.FsyncAlways, wal.FsyncInterval} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			clk := simclock.NewManual(t0)
			f := newFollower(t, t.TempDir(), srv.URL, srv.Client(), func(o *FollowerOptions) {
				o.Clock = clk
				o.MaxBatch = perPoll
				// One segment and no threshold checkpoints: rotation and a
				// checkpoint sync too, and are not what is being counted.
				o.CheckpointBytes, o.CheckpointRecords = -1, -1
				o.Log = wal.Options{Fsync: policy, FsyncInterval: interval, SegmentBytes: 64 << 20}
			})
			if err := f.Bootstrap(context.Background()); err != nil {
				t.Fatal(err)
			}
			base := f.journal.Log().Fsyncs() // the bootstrap's local checkpoint
			start := clk.Now()
			for applied := 0; applied < records; {
				got, err := f.Poll(context.Background())
				if err != nil || got == 0 {
					t.Fatalf("Poll = %d, %v with %d of %d applied", got, err, applied, records)
				}
				applied += got
				clk.Advance(interval / 4)
			}
			fsyncs := f.journal.Log().Fsyncs() - base
			intervals := int64(clk.Now().Sub(start) / interval)
			switch policy {
			case wal.FsyncNever:
				if fsyncs != 0 {
					t.Fatalf("never: %d fsyncs while %d records arrived, want 0", fsyncs, records)
				}
			default:
				if fsyncs == 0 || fsyncs > intervals {
					t.Fatalf("%s: %d fsyncs while %d records arrived over %d intervals, want between 1 and %d",
						policy, fsyncs, records, intervals, intervals)
				}
			}
			// Close seals it: the final checkpoint syncs the log before it
			// reads the position it covers, and Close syncs once more.
			before := f.journal.Log().Fsyncs()
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if got := f.journal.Log().Fsyncs() - before; got != 2 {
				t.Fatalf("Close made %d fsyncs, want the checkpoint's and its own", got)
			}
		})
	}
}

func TestReplCheckpointIsStreamedFromTheFile(t *testing.T) {
	n := newLeaderNode(t, t.TempDir(), wal.DurableOptions{Log: wal.Options{Fsync: wal.FsyncNever}})
	defer n.d.Close()
	// Several io.Copy buffers' worth, so most of the file is still unread
	// when the gate below closes on the first.
	for i := 0; i < 200; i++ {
		n.submit(fmt.Sprintf("bulk-%03d", i))
	}
	if err := n.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	newest := func() (string, []byte) {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(n.dir, "checkpoint-*.ckpt"))
		if err != nil || len(names) == 0 {
			t.Fatalf("no checkpoint files: %v", err)
		}
		path := names[len(names)-1]
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, data
	}
	path, want := newest()
	if len(want) < 128<<10 {
		t.Fatalf("checkpoint is only %d bytes: the race below needs several copy buffers", len(want))
	}

	srv := httptest.NewServer(n.handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + PathCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("served %d bytes (%v), the file has %d", len(got), err, len(want))
	}
	if resp.ContentLength != int64(len(want)) {
		t.Fatalf("Content-Length %d, file %d", resp.ContentLength, len(want))
	}

	// Retention against a response in progress: two checkpoints later the
	// file being served is unlinked, and the response still ends whole.
	w := newGatedWriter()
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.ld.ServeCheckpoint(w, httptest.NewRequest(http.MethodGet, PathCheckpoint, nil))
	}()
	<-w.reached
	for i := 0; i < 2; i++ {
		n.submit(fmt.Sprintf("later-%d", i))
		if err := n.d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("retention should have removed %s by now: %v", path, err)
	}
	close(w.gate)
	<-done
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("a response that had started was cut or changed by retention: %d bytes, want %d", w.Body.Len(), len(want))
	}
	if st := n.ld.Stats(); st.CheckpointsServed != 2 || st.ErrorsTotal != 0 {
		t.Fatalf("two checkpoints served whole: %+v", st)
	}
	// The next bootstrap gets the new newest, whole.
	_, want = newest()
	again := httptest.NewRecorder()
	n.ld.ServeCheckpoint(again, httptest.NewRequest(http.MethodGet, PathCheckpoint, nil))
	if !bytes.Equal(again.Body.Bytes(), want) {
		t.Fatal("the checkpoint served after retention is not the newest file")
	}
}

// FuzzReadFrame: the frame decoder reads bytes off the network. It never
// panics, refuses a length past the bound before allocating for it, and
// accepts nothing but what writeFrame writes for the record it returns.
func FuzzReadFrame(f *testing.F) {
	var whole bytes.Buffer
	rec := wal.StreamRecord{Pos: wal.Position{Segment: 2, Offset: 4096}, Seq: 9, Payload: []byte(`{"op":"Created"}`)}
	if err := writeFrame(&whole, rec, 12); err != nil {
		f.Fatal(err)
	}
	if err := writeFrame(&whole, wal.StreamRecord{Pos: wal.Position{Segment: 2, Offset: 4104}, Seq: 10}, 12); err != nil {
		f.Fatal(err)
	}
	f.Add(whole.Bytes())
	f.Add(whole.Bytes()[:frameHeaderLen-1])                            // short header
	f.Add(whole.Bytes()[:frameHeaderLen+5])                            // short payload
	f.Add(append([]byte{0xff, 0xff, 0xff, 0xff}, make([]byte, 60)...)) // length past the bound
	flipped := append([]byte(nil), whole.Bytes()...)
	flipped[frameHeaderLen+2] ^= 4
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := newBufReader(data)
		consumed := 0
		var buf []byte // reused across the frames, as a follower's poll reuses it
		for {
			rec, leaderSeq, err := readFrame(br, &buf)
			if err != nil {
				if err == io.EOF && consumed != len(data) {
					t.Fatalf("clean end of stream with %d of %d bytes consumed", consumed, len(data))
				}
				return
			}
			var again bytes.Buffer
			if err := writeFrame(&again, rec, leaderSeq); err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data[consumed:], again.Bytes()) {
				t.Fatalf("accepted a frame at byte %d that writeFrame does not write for %+v", consumed, rec)
			}
			consumed += again.Len()
		}
	})
}
