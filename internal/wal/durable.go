package wal

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/lcm"
	"repro/internal/simclock"
	"repro/internal/store"
)

// ErrReadOnly is the typed error LCM operations surface once durability
// has degraded: a disk-write failure flips the registry read-only rather
// than crashing it, so discovery keeps serving while writes are refused.
var ErrReadOnly = errors.New("wal: registry is read-only: durability degraded")

// DurableOptions tunes a Durable.
type DurableOptions struct {
	// Log tunes the underlying segmented log.
	Log Options
	// CheckpointBytes triggers a checkpoint once this many WAL bytes have
	// accumulated since the last one; 0 means DefaultCheckpointBytes,
	// negative disables the byte trigger.
	CheckpointBytes int64
	// CheckpointRecords likewise for record count; 0 means
	// DefaultCheckpointRecords, negative disables.
	CheckpointRecords int
}

// Checkpoint trigger defaults.
const (
	DefaultCheckpointBytes   = 8 << 20
	DefaultCheckpointRecords = 10000
)

// Durable is the registry's durability manager: the lcm.Durability
// implementation backed by a segmented WAL plus atomic checkpoints. One
// mutex serializes every registry write (the BeginWrite/EndWrite bracket)
// so the log's record order always equals the store's apply order.
type Durable struct {
	files CheckpointFiles
	store *store.Store
	log   *Log
	clock simclock.Clock
	slog  *slog.Logger
	opts  DurableOptions

	mu           sync.Mutex
	recordsSince int      // guarded by mu — records appended since last checkpoint
	bytesSince   int64    // guarded by mu — bytes appended since last checkpoint
	lastSeq      uint64   // guarded by mu — highest checkpoint sequence number ever used
	ckptSeq      uint64   // guarded by mu — newest usable checkpoint: the one recovery loaded or the last written
	ckptPos      Position // guarded by mu — WAL position that checkpoint covers

	degraded    atomic.Bool
	checkpoints atomic.Int64
	ckptSecBits atomic.Uint64
	recovery    RecoveryStats // immutable after OpenDurable
}

// RecoveryStats says where OpenDurable's time went and what it read.
type RecoveryStats struct {
	Checkpoint      uint64  `json:"checkpoint"`      // sequence number of the checkpoint loaded; 0 = none
	CheckpointBytes int64   `json:"checkpointBytes"` // its size on disk
	Frames          int     `json:"frames"`          // snapshot frames it held
	LoadSeconds     float64 `json:"loadSeconds"`     // reading, verifying and decoding it
	ReplayedRecords int64   `json:"replayedRecords"` // WAL records applied on top
	ReplaySeconds   float64 `json:"replaySeconds"`   // applying them
}

// OpenDurable opens the data directory, recovers the store from the
// newest checkpoint that reads back whole (an older retained one is the
// fallback, see CheckpointFiles.Recover), replays the WAL tail, and
// returns a manager ready for lcm.Manager.Durability. The store should be
// freshly constructed; recovery replaces its contents. It fails with
// ErrNoUsableCheckpoint when checkpoints exist and none loads.
func OpenDurable(dir string, s *store.Store, opts DurableOptions) (*Durable, error) {
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = DefaultCheckpointBytes
	}
	if opts.CheckpointRecords == 0 {
		opts.CheckpointRecords = DefaultCheckpointRecords
	}
	l, err := Open(dir, opts.Log)
	if err != nil {
		return nil, err
	}
	d := &Durable{files: leaderCheckpoints(dir), store: s, log: l, clock: l.clock, slog: l.slog, opts: opts}
	d.mu.Lock()
	defer d.mu.Unlock()

	started := d.clock.Now()
	rec, err := d.files.Recover(s, d.slog)
	if err != nil {
		l.Close()
		return nil, err
	}
	var start Position
	if rec.Seq != 0 {
		start = Position{Segment: rec.Words[0], Offset: int64(rec.Words[1])}
	}
	d.lastSeq, d.ckptSeq, d.ckptPos = rec.Newest, rec.Seq, start
	loaded := d.clock.Now()

	var count, replayBytes int64
	err = l.Replay(start, func(pos Position, payload []byte) error {
		if err := applyRecord(s, payload); err != nil {
			return err
		}
		count++
		replayBytes += int64(len(payload)) + recordHeaderLen
		return nil
	})
	if err != nil {
		l.Close()
		return nil, err
	}
	d.recordsSince = int(count)
	d.bytesSince = replayBytes
	d.recovery = RecoveryStats{
		Checkpoint: rec.Seq, CheckpointBytes: rec.Bytes, Frames: rec.Frames,
		LoadSeconds:     loaded.Sub(started).Seconds(),
		ReplayedRecords: count,
		ReplaySeconds:   d.clock.Now().Sub(loaded).Seconds(),
	}
	d.slog.Info("wal recovery complete",
		"dir", dir, "checkpoint", rec.Seq, "checkpointBytes", rec.Bytes, "frames", rec.Frames,
		"loadSeconds", d.recovery.LoadSeconds, "replayedRecords", count,
		"replaySeconds", d.recovery.ReplaySeconds, "objects", s.Len())
	return d, nil
}

// BeginWrite opens the global write bracket. It fails fast with
// ErrReadOnly once durability has degraded.
func (d *Durable) BeginWrite() error {
	if d.degraded.Load() {
		return ErrReadOnly
	}
	d.mu.Lock()
	if d.degraded.Load() {
		d.mu.Unlock()
		return ErrReadOnly
	}
	return nil
}

// EndWrite closes the bracket opened by a successful BeginWrite.
func (d *Durable) EndWrite() { d.mu.Unlock() }

// Commit appends one mutation record inside an open bracket. When it
// returns nil the record is on disk per the fsync policy and the write
// may be acknowledged; an append failure degrades the registry.
func (d *Durable) Commit(m lcm.Mutation) error { return d.commitLocked(m) }

func (d *Durable) commitLocked(m lcm.Mutation) error {
	if d.degraded.Load() {
		return ErrReadOnly
	}
	payload, err := encodeMutation(m)
	if err != nil {
		return err
	}
	if _, err := d.log.Append(payload); err != nil {
		d.degrade("append", err)
		return fmt.Errorf("wal: %w: %w", ErrReadOnly, err)
	}
	d.recordsSince++
	d.bytesSince += int64(len(payload)) + recordHeaderLen
	if d.shouldCheckpointLocked() {
		// The mutation itself is durable; a checkpoint failure degrades
		// the registry (checkpointLocked does) but this write stands.
		if err := d.checkpointLocked(); err != nil {
			d.slog.Error("automatic checkpoint failed", "err", err)
		}
	}
	return nil
}

func (d *Durable) shouldCheckpointLocked() bool {
	if d.opts.CheckpointRecords > 0 && d.recordsSince >= d.opts.CheckpointRecords {
		return true
	}
	if d.opts.CheckpointBytes > 0 && d.bytesSince >= d.opts.CheckpointBytes {
		return true
	}
	return false
}

// Checkpoint forces a checkpoint now. Boot calls it only when recovery
// found none to load; otherwise checkpoints come from the thresholds and
// from Close.
func (d *Durable) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.checkpointLocked()
}

// checkpointLocked streams a snapshot of the store, stamped with the
// current WAL position, into a new checkpoint file, then applies
// retention: the previous usable checkpoint is kept as the recovery
// fallback, anything older is deleted, and WAL segments wholly covered by
// the previous checkpoint are pruned.
//
// The log is synced before its position is read. The checkpoint file is
// made durable, so it must never claim to cover log that is not: under
// interval or never a power loss could otherwise leave the tail segment
// shorter than the stamped position, Open would append below it, and the
// next recovery's Replay would skip those records as already covered.
func (d *Durable) checkpointLocked() error {
	started := d.clock.Now()
	if err := d.log.Sync(); err != nil {
		d.degrade("checkpoint sync", err)
		return err
	}
	pos := d.log.Pos()
	seq := d.lastSeq + 1
	size, err := d.files.Write(seq, d.store, pos.Segment, uint64(pos.Offset))
	if err != nil {
		d.degrade("checkpoint write", err)
		return err
	}
	prevSeq, prunePos := d.ckptSeq, d.ckptPos
	d.lastSeq, d.ckptSeq, d.ckptPos = seq, seq, pos
	d.recordsSince, d.bytesSince = 0, 0
	d.checkpoints.Add(1)
	d.ckptSecBits.Store(math.Float64bits(d.clock.Now().Sub(started).Seconds()))
	// Retention is best-effort: a failure here loses disk space, not data.
	if err := d.files.RemoveBelow(prevSeq); err != nil {
		d.slog.Warn("stale checkpoint removal failed", "err", err)
	}
	if _, err := d.log.Prune(prunePos); err != nil {
		d.slog.Warn("wal segment prune failed", "err", err)
	}
	d.slog.Info("checkpoint written", "seq", seq, "pos", pos.String(), "bytes", size)
	return nil
}

// degrade flips the registry read-only after a disk-write failure.
func (d *Durable) degrade(op string, err error) {
	if d.degraded.CompareAndSwap(false, true) {
		d.slog.Error("durability degraded: registry is now read-only", "op", op, "err", err)
	}
}

// ForceReadOnly degrades durability by hand — the operator's big red
// button and the degraded-mode test hook.
func (d *Durable) ForceReadOnly(err error) { d.degrade("forced", err) }

// Degraded reports whether the registry has been flipped read-only.
func (d *Durable) Degraded() bool { return d.degraded.Load() }

// WAL exposes the underlying log for metrics.
func (d *Durable) WAL() *Log { return d.log }

// Checkpoints returns how many checkpoints were written since open.
func (d *Durable) Checkpoints() int64 { return d.checkpoints.Load() }

// LastCheckpointSeconds returns the wall time of the latest checkpoint.
func (d *Durable) LastCheckpointSeconds() float64 {
	return math.Float64frombits(d.ckptSecBits.Load())
}

// CheckpointPos returns the WAL position covered by the newest checkpoint.
func (d *Durable) CheckpointPos() Position {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ckptPos
}

// Recovery returns what boot recovery read and how long it took.
func (d *Durable) Recovery() RecoveryStats { return d.recovery }

// NewestCheckpoint opens the newest usable checkpoint file and returns it
// with its size and the WAL position it covers — the follower bootstrap
// payload, for the caller to stream and close. The file is opened under
// the lock retention runs under, so it cannot be removed first; once open
// it keeps serving even if a later checkpoint unlinks it. It fails if no
// checkpoint has been written yet.
func (d *Durable) NewestCheckpoint() (Position, *os.File, int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ckptSeq == 0 {
		return Position{}, nil, 0, fmt.Errorf("wal: no checkpoint written yet")
	}
	f, err := os.Open(filepath.Join(d.files.Dir, d.files.Name(d.ckptSeq)))
	if err != nil {
		return Position{}, nil, 0, fmt.Errorf("wal: open checkpoint: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return Position{}, nil, 0, fmt.Errorf("wal: stat checkpoint: %w", err)
	}
	return d.ckptPos, f, info.Size(), nil
}

// Close checkpoints (unless degraded) and closes the log.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.degraded.Load() {
		if err := d.checkpointLocked(); err != nil {
			return err
		}
	}
	return d.log.Close()
}
