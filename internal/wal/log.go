// Package wal gives the registry the durability role Apache Derby played
// under freebXML (thesis §2.2.3): a segmented, binary write-ahead log of
// logical LCM mutations plus atomic, checksummed checkpoints, so a host crash
// loses no acknowledged write. The reproduction previously persisted only
// a snapshot written on graceful shutdown; federation (PAPERS.md, "On the
// Cooperation of Independent Registries") assumes member catalogs that
// survive restarts, which is exactly what this package provides.
//
// Layout on disk, inside one data directory:
//
//	wal-0000000000000001.seg   length-prefixed, CRC32C-checked records
//	wal-0000000000000002.seg   ...
//	checkpoint-0000000001.ckpt the WAL position covered + a framed store snapshot
//
// Each record is [length uint32 LE][crc32c uint32 LE][payload], the payload
// never empty. A crash can tear only the record being written when the
// process died; Open truncates that torn tail — zero fill included, which is
// what un-synced bytes can read back as after a power loss and which would
// otherwise frame as empty records, CRC32C("") being 0 — and recovery
// replays every intact record after the newest valid checkpoint. Fsync
// policy is configurable: always (one fsync per append), interval (at most
// one fsync per interval on the injected clock), or never (leave flushing
// to the OS).
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/simclock"
)

// FsyncPolicy selects when appends are flushed to stable storage.
type FsyncPolicy int

// Fsync policies.
const (
	// FsyncAlways syncs after every append: an acknowledged write is on
	// disk before the HTTP response leaves.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs at most once per Options.FsyncInterval, checked
	// on append — a bounded-loss middle ground.
	FsyncInterval
	// FsyncNever leaves flushing to the operating system.
	FsyncNever
)

// String names the policy as the -fsync flag spells it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return "unknown-fsync-policy"
	}
}

// ParseFsyncPolicy parses the -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always|interval|never)", s)
	}
}

// Position addresses a byte boundary in the log: the offset just past a
// record in a given segment. Positions are comparable with Less; the zero
// Position precedes every record.
type Position struct {
	Segment uint64 `json:"segment"`
	Offset  int64  `json:"offset"`
}

// Less orders positions by segment then offset.
func (p Position) Less(q Position) bool {
	if p.Segment != q.Segment {
		return p.Segment < q.Segment
	}
	return p.Offset < q.Offset
}

// IsZero reports whether p is the start-of-log position.
func (p Position) IsZero() bool { return p.Segment == 0 && p.Offset == 0 }

// String renders seg:off for logs and regctl.
func (p Position) String() string { return fmt.Sprintf("%d:%d", p.Segment, p.Offset) }

// ParsePosition parses the seg:off rendering produced by String. The
// empty string parses to the zero (start-of-log) position, so a follower
// resume token can be passed straight through from a query parameter.
func ParsePosition(s string) (Position, error) {
	if s == "" {
		return Position{}, nil
	}
	var p Position
	if _, err := fmt.Sscanf(s, "%d:%d", &p.Segment, &p.Offset); err != nil {
		return Position{}, fmt.Errorf("wal: parse position %q: %w", s, err)
	}
	if p.Offset < 0 {
		return Position{}, fmt.Errorf("wal: parse position %q: negative offset", s)
	}
	return p, nil
}

// Options tunes a Log.
type Options struct {
	// SegmentBytes rotates to a new segment once the current one would
	// exceed this size; 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// Fsync is the flush policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval bounds staleness under FsyncInterval; 0 means
	// DefaultFsyncInterval.
	FsyncInterval time.Duration
	// Clock drives the interval policy and checkpoint timing; nil means
	// the real clock.
	Clock simclock.Clock
	// Logger receives torn-tail and rotation notices; nil discards.
	Logger *slog.Logger
}

// Defaults.
const (
	DefaultSegmentBytes  = 4 << 20
	DefaultFsyncInterval = 100 * time.Millisecond
	// MaxRecordBytes is the sanity bound on a record length: anything
	// larger read back from disk is treated as torn/corrupt framing.
	MaxRecordBytes = 64 << 20
)

// recordHeaderLen is the framing overhead per record.
const recordHeaderLen = 8

// maxReusedBuffer bounds a record buffer kept for the next record: one
// large content record must not pin its size for the life of the process.
const maxReusedBuffer = 1 << 20

// reusable returns b emptied for reuse, or nil if it is too large to keep.
func reusable(b []byte) []byte {
	if cap(b) > maxReusedBuffer {
		return nil
	}
	return b[:0]
}

// castagnoli is the CRC32C table used for record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is an append-only segmented record log. Append is safe for
// concurrent use; in the registry the Durable manager additionally
// serializes appends with store mutations.
type Log struct {
	dir   string
	opts  Options
	clock simclock.Clock
	slog  *slog.Logger

	mu       sync.Mutex
	f        *os.File      // guarded by mu — the open tail segment
	seg      uint64        // guarded by mu — tail segment index
	off      int64         // guarded by mu — append cursor in the tail segment
	segments []segment     // guarded by mu — live segments, ascending; the last is the tail
	notify   chan struct{} // guarded by mu — closed on append, then replaced lazily
	lastSync time.Time     // guarded by mu
	frame    []byte        // guarded by mu — Append's record buffer, reused

	appends  atomic.Int64
	fsyncs   atomic.Int64
	bytes    atomic.Int64
	segCount atomic.Int64
	seq      atomic.Uint64 // records committed since the oldest live segment at Open
}

// segment is what the log remembers about one live segment file: where
// every record in it ends. The log wrote (or, at Open, scanned) each of
// those boundaries once; keeping them lets OpenReaderAt validate a resume
// position and name its sequence number by binary search, with no file
// I/O. The cost is 8 bytes per live record, bounded by SegmentBytes/9
// entries per segment (one-byte payloads) and by Prune overall.
type segment struct {
	index uint64  // file index, as in segmentName
	first uint64  // sequence number of the last record before this segment
	ends  []int64 // offset just past each record, ascending
}

func segmentName(index uint64) string { return fmt.Sprintf("wal-%016d.seg", index) }

// listSegments returns the ascending segment indexes present in dir.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var out []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		var idx uint64
		if _, err := fmt.Sscanf(name, "wal-%016d.seg", &idx); err != nil || idx == 0 {
			continue
		}
		out = append(out, idx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Open opens (creating if needed) the log in dir and recovers its tail:
// the last segment is scanned and any torn trailing bytes — a record the
// dying process never finished writing — are truncated away so the next
// append lands on a clean boundary.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = DefaultFsyncInterval
	}
	if opts.Clock == nil {
		opts.Clock = simclock.Real{}
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, clock: opts.Clock, slog: obs.OrNop(opts.Logger)}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(segs) == 0 {
		f, err := os.OpenFile(filepath.Join(dir, segmentName(1)), os.O_CREATE|os.O_WRONLY, 0o666)
		if err != nil {
			return nil, fmt.Errorf("wal: create segment: %w", err)
		}
		l.f, l.seg, l.off = f, 1, 0
		l.segments = []segment{{index: 1}}
	} else {
		// Every live segment is scanned once: sequence numbers count from
		// the oldest of them, and the record boundaries the scan finds are
		// the index. A torn tail never enters it — the scan stops at valid.
		var total uint64
		var valid int64 // the tail's: the loop ends on it
		var clean bool
		for _, seg := range segs {
			ends, v, c, err := indexSegment(filepath.Join(dir, segmentName(seg)))
			if err != nil {
				return nil, err
			}
			l.segments = append(l.segments, segment{index: seg, first: total, ends: ends})
			total += uint64(len(ends))
			valid, clean = v, c
		}
		tail := segs[len(segs)-1]
		path := filepath.Join(dir, segmentName(tail))
		f, err := os.OpenFile(path, os.O_WRONLY, 0o666)
		if err != nil {
			return nil, fmt.Errorf("wal: open segment: %w", err)
		}
		if !clean {
			if err := f.Truncate(valid); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			l.slog.Warn("truncated torn WAL tail", "segment", tail, "validBytes", valid)
		}
		if _, err := f.Seek(valid, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: seek segment tail: %w", err)
		}
		l.f, l.seg, l.off = f, tail, valid
		l.seq.Store(total)
	}
	l.segCount.Store(int64(len(l.segments)))
	l.lastSync = l.clock.Now()
	return l, nil
}

// indexSegment scans one segment file and returns the end offset of every
// intact record, with scanSegment's valid and clean.
func indexSegment(path string) (ends []int64, valid int64, clean bool, err error) {
	valid, clean, _, err = scanSegment(path, func(_, end int64, _ []byte) error {
		ends = append(ends, end)
		return nil
	})
	return ends, valid, clean, err
}

// scanSegment walks one segment file calling fn (which may be nil) for
// every intact record; payload is only valid during the call (one buffer is
// reused for the whole scan). It returns the offset just past the last
// intact record, whether the file ended exactly on a record boundary, and
// the number of intact records. A record of length zero is not intact: no
// writer produces one (Append refuses), so it is where zero fill begins.
func scanSegment(path string, fn func(start, end int64, payload []byte) error) (valid int64, clean bool, records int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, 0, fmt.Errorf("wal: open segment: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, false, 0, fmt.Errorf("wal: stat segment: %w", err)
	}
	size := info.Size()
	var off int64
	var hdr [recordHeaderLen]byte
	var buf []byte
	for {
		if off == size {
			return off, true, records, nil
		}
		if size-off < recordHeaderLen {
			return off, false, records, nil
		}
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			return 0, false, 0, fmt.Errorf("wal: read segment: %w", err)
		}
		length := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > MaxRecordBytes || length > size-off-recordHeaderLen {
			return off, false, records, nil
		}
		if int64(cap(buf)) < length {
			buf = make([]byte, length)
		}
		payload := buf[:length]
		if _, err := f.ReadAt(payload, off+recordHeaderLen); err != nil {
			return 0, false, 0, fmt.Errorf("wal: read segment: %w", err)
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return off, false, records, nil
		}
		end := off + recordHeaderLen + length
		if fn != nil {
			if err := fn(off, end, payload); err != nil {
				return 0, false, 0, err
			}
		}
		off = end
		records++
	}
}

// Append writes one record and returns the position just past it. The
// record is flushed according to the fsync policy before Append returns.
// An empty payload is refused: its frame is eight zero bytes, which a scan
// could not tell from zero fill.
func (l *Log) Append(payload []byte) (Position, error) {
	if len(payload) == 0 {
		return Position{}, fmt.Errorf("wal: empty record")
	}
	if int64(len(payload)) > MaxRecordBytes {
		return Position{}, fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	need := int64(len(payload)) + recordHeaderLen
	if l.off > 0 && l.off+need > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return Position{}, err
		}
	}
	buf := binary.LittleEndian.AppendUint32(l.frame, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	buf = append(buf, payload...)
	l.frame = reusable(buf)
	if _, err := l.f.Write(buf); err != nil {
		return Position{}, fmt.Errorf("wal: append: %w", err)
	}
	l.off += need
	tail := &l.segments[len(l.segments)-1]
	tail.ends = append(tail.ends, l.off)
	l.appends.Add(1)
	l.bytes.Add(need)
	l.seq.Add(1)
	if l.notify != nil {
		close(l.notify)
		l.notify = nil
	}
	if err := l.syncPolicyLocked(); err != nil {
		return Position{}, err
	}
	return Position{Segment: l.seg, Offset: l.off}, nil
}

// rotateLocked seals the tail segment and opens the next one.
func (l *Log) rotateLocked() error {
	if err := l.fsyncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	next := l.seg + 1
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(next)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o666)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.f, l.seg, l.off = f, next, 0
	l.segments = append(l.segments, segment{index: next, first: l.seq.Load()})
	l.segCount.Store(int64(len(l.segments)))
	l.slog.Debug("rotated WAL segment", "segment", next)
	return nil
}

// syncPolicyLocked applies the fsync policy after an append.
func (l *Log) syncPolicyLocked() error {
	switch l.opts.Fsync {
	case FsyncAlways:
		return l.fsyncLocked()
	case FsyncInterval:
		now := l.clock.Now()
		if now.Sub(l.lastSync) >= l.opts.FsyncInterval {
			return l.fsyncLocked()
		}
	}
	return nil
}

func (l *Log) fsyncLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.fsyncs.Add(1)
	l.lastSync = l.clock.Now()
	return nil
}

// Sync forces an fsync of the tail segment regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fsyncLocked()
}

// Pos returns the current append cursor.
func (l *Log) Pos() Position {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Position{Segment: l.seg, Offset: l.off}
}

// Committed returns the append cursor and the sequence number of the last
// committed record as one consistent pair — the bound a streaming reader
// may read up to.
func (l *Log) Committed() (Position, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Position{Segment: l.seg, Offset: l.off}, l.seq.Load()
}

// Seq returns the sequence number of the last committed record, counted
// from the oldest segment that was live at Open.
func (l *Log) Seq() uint64 { return l.seq.Load() }

// AppendSignal returns a channel closed by the next Append — the
// long-poll primitive for the replication stream. Each returned channel
// fires once; callers re-arm by calling AppendSignal again.
func (l *Log) AppendSignal() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.notify == nil {
		l.notify = make(chan struct{})
	}
	return l.notify
}

// Replay calls fn for every record strictly after from, in log order;
// payload is only valid during the call. The tail was already truncated to
// a record boundary by Open, so an invalid record anywhere is corruption,
// not a torn write, and aborts the replay.
func (l *Log) Replay(from Position, fn func(pos Position, payload []byte) error) error {
	l.mu.Lock()
	segs := make([]uint64, len(l.segments))
	for i, s := range l.segments {
		segs[i] = s.index
	}
	l.mu.Unlock()
	for _, seg := range segs {
		if seg < from.Segment {
			continue
		}
		skipBefore := int64(0)
		if seg == from.Segment {
			skipBefore = from.Offset
		}
		path := filepath.Join(l.dir, segmentName(seg))
		_, clean, _, err := scanSegment(path, func(start, end int64, payload []byte) error {
			if start < skipBefore {
				return nil
			}
			return fn(Position{Segment: seg, Offset: end}, payload)
		})
		if err != nil {
			return err
		}
		if !clean {
			return fmt.Errorf("wal: segment %d is corrupt past its valid prefix", seg)
		}
	}
	return nil
}

// Prune removes segments wholly covered by a checkpoint at keep: every
// segment with an index below keep.Segment. The tail segment is never
// removed.
func (l *Log) Prune(keep Position) (removed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var kept []segment
	for _, s := range l.segments {
		if s.index < keep.Segment && s.index != l.seg {
			if err := os.Remove(filepath.Join(l.dir, segmentName(s.index))); err != nil {
				return removed, fmt.Errorf("wal: prune segment %d: %w", s.index, err)
			}
			removed++
			continue
		}
		kept = append(kept, s)
	}
	l.segments = kept
	l.segCount.Store(int64(len(kept)))
	return removed, nil
}

// Close syncs and closes the tail segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.fsyncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// Appends returns the number of records appended since Open.
func (l *Log) Appends() int64 { return l.appends.Load() }

// Fsyncs returns the number of fsync calls issued.
func (l *Log) Fsyncs() int64 { return l.fsyncs.Load() }

// Bytes returns the bytes appended (framing included) since Open.
func (l *Log) Bytes() int64 { return l.bytes.Load() }

// SegmentCount returns the number of live segment files.
func (l *Log) SegmentCount() int64 { return l.segCount.Load() }
