package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/store"
)

// Checkpoint trigger defaults.
const (
	DefaultCheckpointBytes   = 8 << 20
	DefaultCheckpointRecords = 10000
)

// RecoveryStats says where OpenJournal's time went and what it read.
type RecoveryStats struct {
	Checkpoint      uint64  `json:"checkpoint"`      // sequence number of the checkpoint loaded; 0 = none
	CheckpointBytes int64   `json:"checkpointBytes"` // its size on disk
	Frames          int     `json:"frames"`          // snapshot frames it held
	LoadSeconds     float64 `json:"loadSeconds"`     // reading, verifying and decoding it
	ReplayedRecords int64   `json:"replayedRecords"` // log records applied on top
	ReplaySeconds   float64 `json:"replaySeconds"`   // applying them
}

// Journal is the state a registry keeps on disk, whatever its role: a
// segmented Log and one family of checkpoints of the store in one
// directory, the store being the newest checkpoint that reads back whole
// plus the log records behind it. A checkpoint's last two header words are
// the journal's, the log position the snapshot covers; the files.Words - 2
// before them are the owner's, written and handed back as given.
//
// A Journal has no lock of its own: its owner makes every call under the
// lock that orders its writes (the leader's write bracket, the follower's
// state lock), so the log's record order equals the store's apply order.
type Journal struct {
	files      CheckpointFiles
	store      *store.Store
	log        *Log
	maxBytes   int64 // automatic-checkpoint thresholds; negative disables
	maxRecords int

	recordsSince int      // records appended since the last checkpoint, or the last attempt at one
	bytesSince   int64    // their bytes on disk: payload and record header
	lastSeq      uint64   // highest checkpoint sequence number ever used
	ckptSeq      uint64   // newest usable checkpoint: the one OpenJournal loaded or the last written
	ckptPos      Position // log position that checkpoint covers

	checkpoints atomic.Int64
}

// OpenJournal opens the log in files.Dir and recovers s: the newest
// checkpoint that reads back whole replaces its contents (an older retained
// one is the fallback, see CheckpointFiles.Recover), restore — nil for a
// family without owner words — is handed that checkpoint's owner words if
// one loaded, then every log record behind it goes through apply in log
// order and counts towards the next automatic checkpoint. A zero threshold
// means its default, a negative one disables it. It fails with
// ErrNoUsableCheckpoint when checkpoints exist and none loads.
func OpenJournal(files CheckpointFiles, s *store.Store, opts Options, checkpointBytes int64, checkpointRecords int,
	restore func(words []uint64), apply func(payload []byte) error) (*Journal, RecoveryStats, error) {
	if checkpointBytes == 0 {
		checkpointBytes = DefaultCheckpointBytes
	}
	if checkpointRecords == 0 {
		checkpointRecords = DefaultCheckpointRecords
	}
	l, err := Open(files.Dir, opts)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	fail := func(err error) (*Journal, RecoveryStats, error) {
		l.Close()
		return nil, RecoveryStats{}, err
	}
	j := &Journal{files: files, store: s, log: l, maxBytes: checkpointBytes, maxRecords: checkpointRecords}
	started := l.clock.Now()
	rec, err := files.Recover(s, l.slog)
	if err != nil {
		return fail(err)
	}
	j.lastSeq, j.ckptSeq = rec.Newest, rec.Seq
	if rec.Seq != 0 {
		own := len(rec.Words) - 2
		j.ckptPos = Position{Segment: rec.Words[own], Offset: int64(rec.Words[own+1])}
		if restore != nil {
			restore(rec.Words[:own])
		}
	}
	loaded := l.clock.Now()
	err = l.Replay(j.ckptPos, func(_ Position, payload []byte) error {
		if err := apply(payload); err != nil {
			return err
		}
		j.count(payload)
		return nil
	})
	if err != nil {
		return fail(err)
	}
	stats := RecoveryStats{
		Checkpoint: rec.Seq, CheckpointBytes: rec.Bytes, Frames: rec.Frames,
		LoadSeconds:     loaded.Sub(started).Seconds(),
		ReplayedRecords: int64(j.recordsSince),
		ReplaySeconds:   l.clock.Now().Sub(loaded).Seconds(),
	}
	l.slog.Info("wal recovery complete",
		"dir", files.Dir, "family", files.Prefix, "checkpoint", rec.Seq, "checkpointBytes", rec.Bytes, "frames", rec.Frames,
		"loadSeconds", stats.LoadSeconds, "replayedRecords", stats.ReplayedRecords,
		"replaySeconds", stats.ReplaySeconds, "objects", s.Len())
	return j, stats, nil
}

// count adds one record to the log accumulated since the last checkpoint.
func (j *Journal) count(payload []byte) {
	j.recordsSince++
	j.bytesSince += int64(len(payload)) + recordHeaderLen
}

// Append logs one record, flushed per the log's fsync policy, and reports
// whether a threshold has been reached: the owner then calls Checkpoint.
func (j *Journal) Append(payload []byte) (due bool, err error) {
	if _, err := j.log.Append(payload); err != nil {
		return false, err
	}
	j.count(payload)
	return (j.maxRecords > 0 && j.recordsSince >= j.maxRecords) ||
		(j.maxBytes > 0 && j.bytesSince >= j.maxBytes), nil
}

// Checkpoint streams a snapshot of the store into a new checkpoint file
// whose header is words followed by the current log position, then applies
// retention: the previous usable checkpoint stays as the recovery fallback,
// older ones and the log segments the previous one covers are deleted.
//
// The log is synced before its position is read. The checkpoint file is
// made durable, so it must never claim to cover log that is not: under
// interval or never a power loss could otherwise leave the tail segment
// shorter than the stamped position, Open would append below it, and the
// next recovery's Replay would skip those records as already covered.
//
// The threshold counters restart whether or not the checkpoint succeeds:
// every attempt costs a sync and a pass over the whole store, so one that
// failed is tried again a threshold later, not on the next record.
func (j *Journal) Checkpoint(words ...uint64) error {
	j.recordsSince, j.bytesSince = 0, 0
	if err := j.log.Sync(); err != nil {
		return err
	}
	pos := j.log.Pos()
	seq := j.lastSeq + 1
	size, err := j.files.Write(seq, j.store, append(words, pos.Segment, uint64(pos.Offset))...)
	if err != nil {
		return err
	}
	prevSeq, prunePos := j.ckptSeq, j.ckptPos
	j.lastSeq, j.ckptSeq, j.ckptPos = seq, seq, pos
	j.checkpoints.Add(1)
	// Retention is best-effort: a failure here loses disk space, not data.
	if err := j.files.RemoveBelow(prevSeq); err != nil {
		j.log.slog.Warn("stale checkpoint removal failed", "err", err)
	}
	if _, err := j.log.Prune(prunePos); err != nil {
		j.log.slog.Warn("wal segment prune failed", "err", err)
	}
	j.log.slog.Info("checkpoint written", "file", j.files.Name(seq), "pos", pos.String(), "bytes", size)
	return nil
}

// Close syncs and closes the log; to seal the state, Checkpoint first.
func (j *Journal) Close() error { return j.log.Close() }

// Log exposes the underlying log: its counters, and readers for streaming.
func (j *Journal) Log() *Log { return j.log }

// Checkpoints returns how many checkpoints were written since open; unlike
// the rest it is safe to call without the owner's lock.
func (j *Journal) Checkpoints() int64 { return j.checkpoints.Load() }

// CheckpointPos returns the log position covered by the newest checkpoint.
func (j *Journal) CheckpointPos() Position { return j.ckptPos }

// OpenNewest opens the newest usable checkpoint file and returns it with
// its size and the log position it covers, for the caller to stream and
// close. Retention runs under the owner's lock too, so the file cannot be
// removed first; once open it keeps serving even if a later checkpoint
// unlinks it. It fails if no checkpoint exists yet.
func (j *Journal) OpenNewest() (Position, *os.File, int64, error) {
	if j.ckptSeq == 0 {
		return Position{}, nil, 0, fmt.Errorf("wal: no checkpoint written yet")
	}
	f, err := os.Open(filepath.Join(j.files.Dir, j.files.Name(j.ckptSeq)))
	if err != nil {
		return Position{}, nil, 0, fmt.Errorf("wal: open checkpoint: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return Position{}, nil, 0, fmt.Errorf("wal: stat checkpoint: %w", err)
	}
	return j.ckptPos, f, info.Size(), nil
}
