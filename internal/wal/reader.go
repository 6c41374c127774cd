package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// ErrPositionPruned reports that a requested read position lies below the
// oldest live segment: a checkpoint already covered it and Prune removed
// the file. A follower that sees this cannot resume by replay and must
// re-bootstrap from the newest checkpoint.
var ErrPositionPruned = errors.New("wal: position pruned")

// ErrEndOfLog is the Reader.Next sentinel at the committed tail: no
// record is available yet. Callers long-poll via AppendSignal and retry.
var ErrEndOfLog = errors.New("wal: end of committed log")

// StreamRecord is one record handed to a streaming reader: the payload,
// the position just past it (the resume token), and its sequence number.
// A Reader's payload is only valid until its next call to Next.
type StreamRecord struct {
	Pos     Position
	Seq     uint64
	Payload []byte
}

// Reader iterates committed records concurrently with appends, rotation,
// and pruning. It opens its own file handles, so a segment pruned while
// being read keeps serving from the open descriptor; only advancing into
// a segment that no longer exists surfaces ErrPositionPruned. A Reader is
// not safe for concurrent use by multiple goroutines.
type Reader struct {
	l   *Log
	pos Position // offset just past the last consumed record
	seq uint64   // sequence number of the last consumed record
	f   *os.File // open segment file for pos.Segment; nil until first read
	buf []byte   // payload buffer, reused by every Next
}

// OpenReaderAt positions a Reader to yield records strictly after pos.
// The zero position means the start of the log; if records before pos
// have already been pruned it returns ErrPositionPruned, and a position
// that does not land on a record boundary is rejected outright. The answer
// comes from the log's boundary index: two binary searches under the lock,
// no file I/O.
func (l *Log) OpenReaderAt(pos Position) (*Reader, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	oldest := l.segments[0].index
	if pos.IsZero() {
		if oldest > 1 {
			return nil, ErrPositionPruned
		}
		return &Reader{l: l, pos: Position{Segment: 1, Offset: 0}}, nil
	}
	if pos.Segment < oldest {
		return nil, ErrPositionPruned
	}
	if pos.Segment > l.seg || (pos.Segment == l.seg && pos.Offset > l.off) {
		return nil, fmt.Errorf("wal: position %s is past the committed tail", pos)
	}
	i := sort.Search(len(l.segments), func(i int) bool { return l.segments[i].index >= pos.Segment })
	if l.segments[i].index != pos.Segment {
		// Rotation is +1 and Prune takes a prefix, so a hole between oldest
		// and tail is a file that went missing before Open.
		return nil, ErrPositionPruned
	}
	seg := &l.segments[i]
	if pos.Offset == 0 {
		return &Reader{l: l, pos: pos, seq: seg.first}, nil
	}
	j := sort.Search(len(seg.ends), func(j int) bool { return seg.ends[j] >= pos.Offset })
	if j == len(seg.ends) || seg.ends[j] != pos.Offset {
		return nil, fmt.Errorf("wal: position %s is not a record boundary", pos)
	}
	return &Reader{l: l, pos: pos, seq: seg.first + uint64(j) + 1}, nil
}

// Next returns the next committed record, ErrEndOfLog at the committed
// tail, or ErrPositionPruned if the segment it must advance into has been
// pruned underneath it. The record's payload is overwritten by the next
// call.
func (r *Reader) Next() (StreamRecord, error) {
	bound, _ := r.l.Committed()
	var hdr [recordHeaderLen]byte
	for {
		sealed := r.pos.Segment < bound.Segment
		if !sealed && r.pos.Offset >= bound.Offset {
			return StreamRecord{}, ErrEndOfLog
		}
		if r.f == nil {
			f, err := os.Open(filepath.Join(r.l.dir, segmentName(r.pos.Segment)))
			if err != nil {
				if errors.Is(err, os.ErrNotExist) {
					return StreamRecord{}, ErrPositionPruned
				}
				return StreamRecord{}, fmt.Errorf("wal: open segment: %w", err)
			}
			r.f = f
		}
		n, err := r.f.ReadAt(hdr[:], r.pos.Offset)
		if n < recordHeaderLen {
			if sealed {
				// Sealed segments end on a record boundary; a short read
				// means we consumed it all — advance to the next segment.
				r.f.Close()
				r.f = nil
				r.pos = Position{Segment: r.pos.Segment + 1, Offset: 0}
				continue
			}
			return StreamRecord{}, fmt.Errorf("wal: read record header at %s: %w", r.pos, err)
		}
		length := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > MaxRecordBytes {
			return StreamRecord{}, fmt.Errorf("wal: corrupt record length at %s", r.pos)
		}
		if int64(cap(r.buf)) < length {
			r.buf = make([]byte, length)
		}
		payload := r.buf[:length]
		if _, err := r.f.ReadAt(payload, r.pos.Offset+recordHeaderLen); err != nil {
			return StreamRecord{}, fmt.Errorf("wal: read record at %s: %w", r.pos, err)
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return StreamRecord{}, fmt.Errorf("wal: record checksum mismatch at %s", r.pos)
		}
		r.pos.Offset += recordHeaderLen + length
		r.seq++
		return StreamRecord{Pos: r.pos, Seq: r.seq, Payload: payload}, nil
	}
}

// Pos returns the offset just past the last record Next returned.
func (r *Reader) Pos() Position { return r.pos }

// Seq returns the sequence number of the last record Next returned.
func (r *Reader) Seq() uint64 { return r.seq }

// Close releases the reader's open segment handle.
func (r *Reader) Close() error {
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		return err
	}
	return nil
}
