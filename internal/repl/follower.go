package repl

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/store"
	"repro/internal/wal"
)

// Follower defaults.
const (
	DefaultPollWait      = 10 * time.Second
	DefaultBackoffBase   = 250 * time.Millisecond
	DefaultBackoffMax    = 15 * time.Second
	DefaultClientTimeout = 45 * time.Second
)

// FollowerOptions tunes a Follower.
type FollowerOptions struct {
	// LeaderURL is the leader registry's base URL (scheme://host:port).
	LeaderURL string
	// Clock drives backoff and lag accounting; nil means the real clock.
	Clock simclock.Clock
	// Logger receives tailer-loop notices; nil discards.
	Logger *slog.Logger
	// Client performs the HTTP polls; its Timeout must exceed PollWait.
	// Nil constructs a client with DefaultClientTimeout.
	Client *http.Client
	// Seed drives the jittered reconnect backoff deterministically.
	Seed int64
	// PollWait is how long one streamed response lasts, sent as ?wait; 0
	// means the default, negative makes polls return at the leader's
	// committed tail (the deterministic-test mode).
	PollWait time.Duration
	// MaxBatch caps records requested per poll; 0 means the leader's cap.
	MaxBatch int
	// BackoffBase and BackoffMax bound the jittered exponential
	// reconnect backoff; 0 means the defaults.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// CheckpointBytes / CheckpointRecords trigger a local checkpoint, as
	// in wal.DurableOptions; 0 means those defaults, negative disables.
	CheckpointBytes   int64
	CheckpointRecords int
	// Log tunes the follower's local segmented log. Its Fsync policy is
	// read the follower's way: see OpenFollower.
	Log wal.Options
}

// A local record wraps one applied leader record in the follower's own
// WAL: [u64 segment][u64 offset][u64 seq] (little-endian, the leader
// position just past the record and its sequence number) in front of the
// leader's payload, so restart recovery resumes from a durable applied
// position.
const localPrefixLen = 24

// encodeLocal returns the local record of rec, whose payload readFrame read
// into frame behind localPrefixLen bytes of headroom: the prefix is written
// there, in place, and the payload is not copied.
func encodeLocal(frame []byte, rec wal.StreamRecord) []byte {
	binary.LittleEndian.PutUint64(frame[0:], rec.Pos.Segment)
	binary.LittleEndian.PutUint64(frame[8:], uint64(rec.Pos.Offset))
	binary.LittleEndian.PutUint64(frame[16:], rec.Seq)
	return frame[:localPrefixLen+len(rec.Payload)]
}

// maxReusedFrame bounds the frame buffer a follower keeps between polls:
// one large record must not pin its size for the life of the process.
const maxReusedFrame = 1 << 20

func decodeLocal(b []byte) (wal.StreamRecord, error) {
	if len(b) < localPrefixLen {
		return wal.StreamRecord{}, fmt.Errorf("repl: local record of %d bytes is shorter than its prefix", len(b))
	}
	return wal.StreamRecord{
		Pos:     wal.Position{Segment: binary.LittleEndian.Uint64(b), Offset: int64(binary.LittleEndian.Uint64(b[8:]))},
		Seq:     binary.LittleEndian.Uint64(b[16:]),
		Payload: b[localPrefixLen:],
	}, nil
}

// followerCheckpoints is the follower's local checkpoint family,
// "replckpt-<seq>.ckpt": the shared checkpoint layout of package wal whose
// header words are the leader position the snapshot covers, the leader
// sequence number there, and the local log position, so recovery replays
// only newer local records.
func followerCheckpoints(dir string) wal.CheckpointFiles {
	return wal.CheckpointFiles{Dir: dir, Prefix: "replckpt", Words: 5}
}

// Follower tails the leader's WAL stream, applies records through the
// idempotent replay path, and persists applied state durably. Run (or
// Poll) must be driven from a single goroutine; Stats is safe to call
// from any.
type Follower struct {
	journal *wal.Journal
	store   *store.Store
	opts    FollowerOptions
	clock   simclock.Clock
	slog    *slog.Logger
	client  *http.Client
	leader  string // base URL, trailing slash trimmed
	frame   []byte // Poll's: the buffer each streamed record is read into

	mu       sync.Mutex   // also orders every journal call
	hasState bool         // guarded by mu — a checkpoint or record survived recovery
	applied  wal.Position // guarded by mu — leader position just past the last applied record

	appliedSeg   atomic.Uint64
	appliedOff   atomic.Int64
	appliedSeq   atomic.Uint64
	leaderSeq    atomic.Uint64
	connected    atomic.Bool
	caughtUp     atomic.Bool
	appliedTotal atomic.Int64
	errsTotal    atomic.Int64
	pollsTotal   atomic.Int64
	rebootstraps atomic.Int64
	progressNano atomic.Int64 // clock time of the last applied record or caught-up poll
}

// OpenFollower opens (creating if needed) the follower's local state
// directory, recovers the store from the newest local checkpoint plus the
// local WAL tail, and returns a follower positioned at its durable
// applied position. The store should be freshly populated by registry
// construction; recovered state replaces it.
//
// The local log is a resume cache, not a promise: replication is
// asynchronous, so no acknowledgement ever waits on it, and whatever tail
// a crash takes from it the leader sends again. FsyncAlways — "fsync before
// every acknowledgement", of which a follower sends none — is therefore
// read as FsyncInterval: at most one fsync per FsyncInterval while records
// arrive, plus the log's own at rotation, before a local checkpoint and at
// Close. FsyncNever stays never.
func OpenFollower(dir string, s *store.Store, opts FollowerOptions) (*Follower, error) {
	if opts.LeaderURL == "" {
		return nil, fmt.Errorf("repl: follower needs a leader URL")
	}
	if opts.Clock == nil {
		opts.Clock = simclock.Real{}
	}
	if opts.PollWait == 0 {
		opts.PollWait = DefaultPollWait
	} else if opts.PollWait < 0 {
		opts.PollWait = 0 // deterministic-test mode: polls return immediately
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = DefaultBackoffBase
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = DefaultBackoffMax
	}
	if opts.Log.Clock == nil {
		opts.Log.Clock = opts.Clock
	}
	if opts.Log.Logger == nil {
		opts.Log.Logger = opts.Logger
	}
	if opts.Log.Fsync == wal.FsyncAlways {
		opts.Log.Fsync = wal.FsyncInterval
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: DefaultClientTimeout}
	}
	f := &Follower{
		store:  s,
		opts:   opts,
		clock:  opts.Clock,
		slog:   obs.OrNop(opts.Logger),
		client: client,
		leader: strings.TrimRight(opts.LeaderURL, "/"),
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	j, rec, err := wal.OpenJournal(followerCheckpoints(dir), s, opts.Log, opts.CheckpointBytes, opts.CheckpointRecords,
		func(words []uint64) {
			f.applied = wal.Position{Segment: words[0], Offset: int64(words[1])}
			f.appliedSeq.Store(words[2])
		},
		func(payload []byte) error {
			rec, err := decodeLocal(payload)
			if err != nil {
				return err
			}
			if _, err := wal.ApplyRecord(s, rec.Payload); err != nil {
				return err
			}
			f.applied = rec.Pos
			f.appliedSeq.Store(rec.Seq)
			return nil
		})
	if err != nil {
		return nil, err
	}
	f.journal = j
	f.hasState = rec.Checkpoint != 0 || rec.ReplayedRecords > 0
	f.appliedSeg.Store(f.applied.Segment)
	f.appliedOff.Store(f.applied.Offset)
	f.leaderSeq.Store(f.appliedSeq.Load())
	f.progressNano.Store(f.clock.Now().UnixNano())
	f.slog.Info("follower recovery complete", "dir", dir, "applied", f.applied.String(), "seq", f.appliedSeq.Load())
	return f, nil
}

// Cold reports whether no replicated state survived recovery — the
// follower must Bootstrap before serving.
func (f *Follower) Cold() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.hasState
}

// Bootstrap fetches the leader's newest checkpoint, loads its snapshot
// wholesale, and persists a local checkpoint at the covered position.
func (f *Follower) Bootstrap(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.leader+PathCheckpoint, nil)
	if err != nil {
		return fmt.Errorf("repl: bootstrap request: %w", err)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		f.errsTotal.Add(1)
		return fmt.Errorf("repl: bootstrap fetch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		f.errsTotal.Add(1)
		return fmt.Errorf("repl: bootstrap fetch: leader answered %s", resp.Status)
	}
	pos, err := wal.ParseCheckpoint(resp.Body)
	if err != nil {
		f.errsTotal.Add(1)
		return err
	}
	seq, _ := strconv.ParseUint(resp.Header.Get(HeaderCheckpointSeq), 10, 64)
	// Load swaps the store only after the stream's trailer has checked out,
	// so a body cut short leaves the follower serving what it had.
	if err := f.store.Load(resp.Body); err != nil {
		f.errsTotal.Add(1)
		return fmt.Errorf("repl: bootstrap load: %w", err)
	}
	f.mu.Lock()
	f.applied = pos
	f.appliedSeq.Store(seq)
	f.hasState = true
	err = f.checkpointLocked()
	f.mu.Unlock()
	if err != nil {
		return err
	}
	f.appliedSeg.Store(pos.Segment)
	f.appliedOff.Store(pos.Offset)
	f.rebootstraps.Add(1)
	f.progressNano.Store(f.clock.Now().UnixNano())
	f.slog.InfoContext(ctx, "follower bootstrapped from leader checkpoint", "pos", pos.String(), "seq", seq)
	return nil
}

// Poll performs one WAL fetch against the leader, applying every streamed
// record as it arrives; with a PollWait that is one response held open
// while the leader keeps committing. A 410 answer triggers an in-place
// re-bootstrap. It returns the number of records applied.
func (f *Follower) Poll(ctx context.Context) (int, error) {
	f.mu.Lock()
	from := f.applied
	f.mu.Unlock()
	u := f.leader + PathWAL + "?from=" + from.String()
	if f.opts.PollWait > 0 {
		u += "&wait=" + f.opts.PollWait.String()
	}
	if f.opts.MaxBatch > 0 {
		u += "&max=" + strconv.Itoa(f.opts.MaxBatch)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, fmt.Errorf("repl: poll request: %w", err)
	}
	f.pollsTotal.Add(1)
	resp, err := f.client.Do(req)
	if err != nil {
		f.disconnect(err)
		return 0, fmt.Errorf("repl: poll: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		io.Copy(io.Discard, resp.Body)
		f.slog.WarnContext(ctx, "resume position pruned by leader; re-bootstrapping", "from", from.String())
		if err := f.Bootstrap(ctx); err != nil {
			f.connected.Store(false)
			return 0, err
		}
		f.connected.Store(true)
		return 0, nil
	default:
		f.disconnect(fmt.Errorf("repl: leader answered %s", resp.Status))
		return 0, fmt.Errorf("repl: poll: leader answered %s", resp.Status)
	}
	// A response can last the whole PollWait, so what Stats reports is
	// brought up to date at the headers and again at every frame, not once
	// per exchange.
	f.connected.Store(true)
	if seq, err := strconv.ParseUint(resp.Header.Get(HeaderLeaderSeq), 10, 64); err == nil {
		f.leaderSeq.Store(seq)
		f.observe(false)
	}
	br := bufio.NewReader(resp.Body)
	defer func() {
		if cap(f.frame) > maxReusedFrame {
			f.frame = nil
		}
	}()
	applied := 0
	for {
		rec, leaderSeq, err := readFrame(br, &f.frame)
		if err == io.EOF {
			return applied, nil
		}
		if err != nil {
			f.disconnect(err)
			return applied, err
		}
		// The leader's sequence first: lag must never read lower than it is.
		f.leaderSeq.Store(leaderSeq)
		if err := f.apply(rec, f.frame); err != nil {
			f.disconnect(err)
			return applied, err
		}
		applied++
		f.observe(true)
	}
}

// observe settles, after a header or an applied frame has brought
// leaderSeq up to date, whether the follower is caught up; progress is a
// record applied or a confirmation that there was none to apply.
func (f *Follower) observe(appliedOne bool) {
	caughtUp := f.appliedSeq.Load() >= f.leaderSeq.Load()
	f.caughtUp.Store(caughtUp)
	if appliedOne || caughtUp {
		f.progressNano.Store(f.clock.Now().UnixNano())
	}
}

// apply replays one streamed record, read into frame by readFrame, into
// the store and persists it locally. Nothing the store keeps aliases
// frame, which the next record overwrites.
func (f *Follower) apply(rec wal.StreamRecord, frame []byte) error {
	if _, err := wal.ApplyRecord(f.store, rec.Payload); err != nil {
		return err
	}
	wrapper := encodeLocal(frame, rec)
	f.mu.Lock()
	due, err := f.journal.Append(wrapper)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	f.applied = rec.Pos
	f.appliedSeq.Store(rec.Seq)
	var ckptErr error
	if due {
		ckptErr = f.checkpointLocked()
	}
	f.mu.Unlock()
	if ckptErr != nil {
		f.slog.Error("follower checkpoint failed", "err", ckptErr)
	}
	f.appliedSeg.Store(rec.Pos.Segment)
	f.appliedOff.Store(rec.Pos.Offset)
	f.appliedTotal.Add(1)
	return nil
}

// checkpointLocked writes a local checkpoint of the store at the applied
// position: the leader position and sequence number in front of the local
// log position Journal.Checkpoint stamps.
func (f *Follower) checkpointLocked() error {
	return f.journal.Checkpoint(f.applied.Segment, uint64(f.applied.Offset), f.appliedSeq.Load())
}

// Run drives the tailer loop until ctx is cancelled: bootstrap if cold,
// then poll forever with seeded jittered exponential backoff on failure
// and an idle pause when a poll returns no records.
func (f *Follower) Run(ctx context.Context) {
	rng := rand.New(rand.NewSource(f.opts.Seed))
	fails := 0
	for ctx.Err() == nil {
		if f.Cold() {
			if err := f.Bootstrap(ctx); err != nil {
				f.slog.WarnContext(ctx, "follower bootstrap failed; backing off", "err", err)
				fails++
				if !f.pause(ctx, f.backoff(rng, fails)) {
					return
				}
				continue
			}
		}
		applied, err := f.Poll(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			fails++
			f.slog.WarnContext(ctx, "follower poll failed; backing off", "err", err, "fails", fails)
			if !f.pause(ctx, f.backoff(rng, fails)) {
				return
			}
			continue
		}
		fails = 0
		if applied == 0 && f.opts.PollWait <= 0 {
			// Without a long-poll budget an idle leader would make this a
			// busy loop; pace with the base backoff.
			if !f.pause(ctx, f.backoff(rng, 1)) {
				return
			}
		}
	}
}

// backoff computes the jittered exponential delay for the n-th
// consecutive failure (n >= 1).
func (f *Follower) backoff(rng *rand.Rand, n int) time.Duration {
	d := f.opts.BackoffBase << uint(n-1)
	if d > f.opts.BackoffMax || d <= 0 {
		d = f.opts.BackoffMax
	}
	// Full jitter in [d/2, d): thundering-herd protection that still
	// guarantees forward progress.
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// pause sleeps on the injected clock, returning false when ctx ends.
func (f *Follower) pause(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-f.clock.After(d):
		return true
	}
}

// disconnect records a stream failure.
func (f *Follower) disconnect(err error) {
	f.connected.Store(false)
	f.caughtUp.Store(false)
	f.errsTotal.Add(1)
}

// Close writes a final local checkpoint and closes the local log. Stop
// Run (cancel its context) before calling Close.
func (f *Follower) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.hasState {
		if err := f.checkpointLocked(); err != nil {
			return err
		}
	}
	return f.journal.Close()
}

// FollowerStats is the scrape snapshot for metrics, health, and regctl.
type FollowerStats struct {
	Leader       string
	Applied      wal.Position
	AppliedSeq   uint64
	LeaderSeq    uint64
	Connected    bool
	CaughtUp     bool
	AppliedTotal int64
	ErrorsTotal  int64
	PollsTotal   int64
	Rebootstraps int64
	Checkpoints  int64
	LagRecords   int64
	LagSeconds   float64
}

// Stats snapshots the follower's replication state.
func (f *Follower) Stats() FollowerStats {
	st := FollowerStats{
		Leader:       f.leader,
		Applied:      wal.Position{Segment: f.appliedSeg.Load(), Offset: f.appliedOff.Load()},
		AppliedSeq:   f.appliedSeq.Load(),
		LeaderSeq:    f.leaderSeq.Load(),
		Connected:    f.connected.Load(),
		CaughtUp:     f.caughtUp.Load(),
		AppliedTotal: f.appliedTotal.Load(),
		ErrorsTotal:  f.errsTotal.Load(),
		PollsTotal:   f.pollsTotal.Load(),
		Rebootstraps: f.rebootstraps.Load(),
		Checkpoints:  f.journal.Checkpoints(),
	}
	if st.LeaderSeq > st.AppliedSeq {
		st.LagRecords = int64(st.LeaderSeq - st.AppliedSeq)
	}
	if !(st.Connected && st.CaughtUp) {
		st.LagSeconds = time.Duration(f.clock.Now().UnixNano() - f.progressNano.Load()).Seconds()
		if st.LagSeconds < 0 {
			st.LagSeconds = 0
		}
	}
	return st
}
