// Package repl is the registry's replication layer: WAL shipping from a
// single writable leader to any number of read-only followers, so
// discovery and query reads scale horizontally while the paper's
// load-balancing scheme keeps working unchanged on every node.
//
// The leader serves two HTTP endpoints out of its durability state:
//
//	GET /registry/repl/wal?from=<seg:off>&wait=<dur>&max=<n>
//	GET /registry/repl/checkpoint
//
// The WAL endpoint streams committed records strictly after `from` as
// length-prefixed binary frames (see frame layout below). With `wait` the
// response stays open for that long: every burst of commits is flushed to
// the follower as it happens, so one exchange carries however many records
// the leader commits in the meantime; without it the response ends at the
// committed tail. `from` below the oldest live segment
// answers 410 Gone — the records were pruned after a checkpoint — and the
// follower re-bootstraps from /registry/repl/checkpoint, which serves the
// newest checkpoint file verbatim (store snapshot + covered position).
//
// Followers apply each record through the same idempotent replay path
// boot recovery uses (wal.ApplyRecord), persist every applied record in a
// local WAL with its leader position, and checkpoint locally, so a
// follower restart resumes from its durable applied position without
// refetching history. Life-cycle writes are never applied locally; the
// registry answers them with a typed leader redirect instead.
//
// Each stream frame is a 40-byte header plus payload:
//
//	[u32 payload len][u32 crc32c(payload)][u64 seq][u64 segment][u64 offset][u64 leader seq]
//
// all little-endian; (segment, offset) is the wal.Position just past the
// record — the resume token — seq is the record's sequence number on the
// leader, and leader seq is the leader's committed sequence number when the
// frame was sent, so follower lag stays countable in records for as long
// as a response lasts. Leader and follower are one binary: there is no
// reader for the older 32-byte frame.
package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/wal"
)

// frameHeaderLen is the fixed prefix of every stream frame.
const frameHeaderLen = 40

// maxFramePayload is the sanity bound on a received frame's length.
const maxFramePayload = 64 << 20

// castagnoli matches the WAL's record checksum table.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Wire constants shared by leader and follower.
const (
	// PathWAL is the leader's streaming endpoint.
	PathWAL = "/registry/repl/wal"
	// PathCheckpoint is the leader's snapshot bootstrap endpoint.
	PathCheckpoint = "/registry/repl/checkpoint"
	// HeaderLeaderPos carries the leader's committed position (seg:off)
	// on every stream and checkpoint response.
	HeaderLeaderPos = "X-Repl-Leader-Pos"
	// HeaderLeaderSeq carries the leader's committed record sequence.
	HeaderLeaderSeq = "X-Repl-Leader-Seq"
	// HeaderCheckpointPos carries the WAL position a served checkpoint
	// covers — the follower's first resume token.
	HeaderCheckpointPos = "X-Repl-Checkpoint-Pos"
	// HeaderCheckpointSeq carries the record sequence number at the
	// served checkpoint's position, seeding the follower's lag counter.
	HeaderCheckpointSeq = "X-Repl-Checkpoint-Seq"
	// ContentTypeFrames is the stream body content type.
	ContentTypeFrames = "application/x-repl-frames"
)

// writeFrame encodes one record onto the stream, stamped with the leader's
// committed sequence number at send time.
func writeFrame(w io.Writer, rec wal.StreamRecord, leaderSeq uint64) error {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(rec.Payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(rec.Payload, castagnoli))
	binary.LittleEndian.PutUint64(hdr[8:16], rec.Seq)
	binary.LittleEndian.PutUint64(hdr[16:24], rec.Pos.Segment)
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(rec.Pos.Offset))
	binary.LittleEndian.PutUint64(hdr[32:40], leaderSeq)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("repl: write frame header: %w", err)
	}
	if _, err := w.Write(rec.Payload); err != nil {
		return fmt.Errorf("repl: write frame payload: %w", err)
	}
	return nil
}

// readFrame decodes the next frame and the leader sequence number it
// carries; io.EOF cleanly ends a stream only on a frame boundary. The
// payload is read into *buf, grown as needed, behind localPrefixLen bytes
// of headroom for encodeLocal: it is valid until the next call with the
// same buffer.
func readFrame(r *bufio.Reader, buf *[]byte) (wal.StreamRecord, uint64, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return wal.StreamRecord{}, 0, io.EOF
		}
		return wal.StreamRecord{}, 0, fmt.Errorf("repl: read frame header: %w", err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	if length > maxFramePayload {
		return wal.StreamRecord{}, 0, fmt.Errorf("repl: frame of %d bytes exceeds bound", length)
	}
	if need := localPrefixLen + int(length); cap(*buf) < need {
		*buf = make([]byte, need)
	}
	rec := wal.StreamRecord{
		Seq: binary.LittleEndian.Uint64(hdr[8:16]),
		Pos: wal.Position{
			Segment: binary.LittleEndian.Uint64(hdr[16:24]),
			Offset:  int64(binary.LittleEndian.Uint64(hdr[24:32])),
		},
		Payload: (*buf)[localPrefixLen : localPrefixLen+int(length)],
	}
	if _, err := io.ReadFull(r, rec.Payload); err != nil {
		return wal.StreamRecord{}, 0, fmt.Errorf("repl: read frame payload: %w", err)
	}
	if crc32.Checksum(rec.Payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return wal.StreamRecord{}, 0, fmt.Errorf("repl: frame checksum mismatch at %s", rec.Pos)
	}
	return rec, binary.LittleEndian.Uint64(hdr[32:40]), nil
}
