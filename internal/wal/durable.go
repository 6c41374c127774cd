package wal

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
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

// Durable is the registry's durability manager: the lcm.Durability
// implementation over a Journal of the leader's checkpoint family. One
// mutex serializes every registry write (the BeginWrite/EndWrite bracket,
// inside which lcm.Manager appends a record and then applies it) so the
// log's record order always equals the store's apply order; a disk-write
// failure flips the registry read-only.
type Durable struct {
	journal *Journal
	clock   simclock.Clock
	slog    *slog.Logger

	mu     sync.Mutex // the write bracket; every journal call is made under it
	due    bool       // inside the bracket only: an append reached a checkpoint threshold
	record []byte     // inside the bracket only: the buffer Commit encodes into, reused
	spans  []int      // inside the bracket only: where each put's JSON lies in record, reused

	degraded    atomic.Bool
	ckptSecBits atomic.Uint64
	recovery    RecoveryStats // immutable after OpenDurable
}

// OpenDurable opens the data directory's journal, which recovers the store
// (see OpenJournal), and returns a manager ready for
// lcm.Manager.Durability. The store should be freshly constructed; recovery
// replaces its contents. It fails with ErrNoUsableCheckpoint when
// checkpoints exist and none loads.
func OpenDurable(dir string, s *store.Store, opts DurableOptions) (*Durable, error) {
	j, rec, err := OpenJournal(leaderCheckpoints(dir), s, opts.Log, opts.CheckpointBytes, opts.CheckpointRecords,
		nil, func(payload []byte) error { return applyRecord(s, payload) })
	if err != nil {
		return nil, err
	}
	return &Durable{journal: j, clock: j.log.clock, slog: j.log.slog, recovery: rec}, nil
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

// EndWrite closes the bracket opened by a successful BeginWrite. The
// checkpoint a Commit inside it made due is taken here: the store has
// applied every record the bracket appended, which it had not when Commit
// returned, and the bracket's lock is still held, so neither Checkpoint nor
// NewestCheckpoint can run between a record's append and its apply.
func (d *Durable) EndWrite() {
	due := d.due
	d.due = false
	if due && !d.degraded.Load() {
		// The mutations are durable; a checkpoint failure degrades the
		// registry (checkpointLocked does) but the writes stand.
		if err := d.checkpointLocked(); err != nil {
			d.slog.Error("automatic checkpoint failed", "err", err)
		}
	}
	d.mu.Unlock()
}

// Commit appends one mutation record inside an open bracket. When it
// returns nil the record is on disk per the fsync policy, and each put
// carries the JSON the record holds it as, for the store to keep: the
// caller applies it and may acknowledge the write. An append failure
// degrades the registry.
func (d *Durable) Commit(m *lcm.Mutation) error {
	if d.degraded.Load() {
		return ErrReadOnly
	}
	payload, spans, err := appendMutation(d.record[:0], m, d.spans[:0])
	d.record, d.spans = reusable(payload), spans
	if err != nil {
		return err
	}
	due, err := d.journal.Append(payload)
	if err != nil {
		d.degrade("append", err)
		return fmt.Errorf("wal: %w: %w", ErrReadOnly, err)
	}
	d.due = d.due || due
	keepJSON(m.Puts, payload, spans)
	return nil
}

// keepJSON gives each put a copy of its JSON out of payload, which is
// reused. Each put gets its own copy: one copy shared by the record's puts
// would keep every version of an object alive for as long as the audit
// event beside it, which is never deleted.
func keepJSON(puts []store.Entry, payload []byte, spans []int) {
	for i := range puts {
		puts[i].JSON = bytes.Clone(payload[spans[2*i]:spans[2*i+1]])
	}
}

// Checkpoint forces a checkpoint now. Boot calls it only when recovery
// found none to load; otherwise checkpoints come from the thresholds and
// from Close.
func (d *Durable) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.checkpointLocked()
}

// checkpointLocked times Journal.Checkpoint; the leader's family has no
// words of its own. A checkpoint that cannot be written degrades the
// registry.
func (d *Durable) checkpointLocked() error {
	started := d.clock.Now()
	if err := d.journal.Checkpoint(); err != nil {
		d.degrade("checkpoint", err)
		return err
	}
	d.ckptSecBits.Store(math.Float64bits(d.clock.Now().Sub(started).Seconds()))
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
func (d *Durable) WAL() *Log { return d.journal.Log() }

// Checkpoints returns how many checkpoints were written since open.
func (d *Durable) Checkpoints() int64 { return d.journal.Checkpoints() }

// LastCheckpointSeconds returns the wall time of the latest checkpoint.
func (d *Durable) LastCheckpointSeconds() float64 {
	return math.Float64frombits(d.ckptSecBits.Load())
}

// CheckpointPos returns the WAL position covered by the newest checkpoint.
func (d *Durable) CheckpointPos() Position {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.journal.CheckpointPos()
}

// Recovery returns what boot recovery read and how long it took.
func (d *Durable) Recovery() RecoveryStats { return d.recovery }

// NewestCheckpoint opens the newest usable checkpoint file and returns it
// with its size and the WAL position it covers — the follower bootstrap
// payload, for the caller to stream and close (see Journal.OpenNewest).
func (d *Durable) NewestCheckpoint() (Position, *os.File, int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.journal.OpenNewest()
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
	return d.journal.Close()
}
