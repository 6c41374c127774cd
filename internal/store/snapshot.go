package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"

	"repro/internal/rim"
)

// A snapshot is a stream of little-endian frames
//
//	[u32 length][u32 crc32c(payload)][payload]
//	payload = [u8 len(kind)][kind][body]
//
// one per registry object in id order (kind is the object's class, body its
// compact JSON), then one per repository content item in id order
// ([uvarint len(id)][id][raw bytes]), one per NodeState row in host order
// (JSON), and a trailer whose body is the u64 count of the frames before
// it. A reader therefore knows a stream is whole — every frame intact and
// none missing — before it believes any of it. Save and ReadSnapshot are
// the only encoder and decoder of this layout.
const (
	// MaxFrameBytes bounds one frame's payload, as wal.MaxRecordBytes bounds
	// the log record that carried the same object or content item.
	MaxFrameBytes = 64 << 20

	frameHeaderLen = 8
	kindContent    = "content"
	kindNodeState  = "nodeState"
	kindEnd        = "end"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrSnapshotCorrupt marks a snapshot stream that is torn, damaged or
// incomplete; every decoding error of ReadSnapshot wraps it.
var ErrSnapshotCorrupt = errors.New("store: snapshot corrupt")

// frameWriter builds each frame's head in one reused buffer, behind a gap
// the length and checksum are written into once the payload is complete.
// A body that already exists — an object's kept JSON, a content item — is
// checksummed and written after the head as it is, never copied into the
// buffer; one that does not is appended to the buffer by its encoder.
type frameWriter struct {
	w      *bufio.Writer
	buf    frameBuf
	enc    *json.Encoder // encodes into buf
	frames uint64
}

// frameBuf is the frame being built; the encoder writes into it.
type frameBuf []byte

func (b *frameBuf) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

func newFrameWriter(w io.Writer) *frameWriter {
	// The frame buffer starts at the size of the largest object a
	// publish stores, a 32-binding service being some 25 KB.
	fw := &frameWriter{w: bufio.NewWriterSize(w, 256<<10), buf: make(frameBuf, 0, 64<<10)}
	fw.enc = json.NewEncoder(&fw.buf)
	return fw
}

func (fw *frameWriter) begin(kind string) {
	var gap [frameHeaderLen]byte
	fw.buf = append(append(append(fw.buf[:0], gap[:]...), byte(len(kind))), kind...)
}

// end completes the frame whose payload is the buffer's bytes followed by
// body, and writes it.
func (fw *frameWriter) end(body []byte) error {
	b := fw.buf
	n := len(b) - frameHeaderLen + len(body)
	if n > MaxFrameBytes {
		return fmt.Errorf("store: snapshot frame of %d bytes exceeds MaxFrameBytes", n)
	}
	crc := crc32.Update(crc32.Checksum(b[frameHeaderLen:], castagnoli), castagnoli, body)
	binary.LittleEndian.PutUint32(b[0:4], uint32(n))
	binary.LittleEndian.PutUint32(b[4:8], crc)
	fw.frames++
	if _, err := fw.w.Write(b); err != nil {
		return err
	}
	_, err := fw.w.Write(body)
	return err
}

// object writes one frame holding e: its kept JSON where it has some, and
// otherwise the object by its class's appender where it has one and by the
// encoder where it has not.
func (fw *frameWriter) object(e Entry) error {
	kind := kindOf(e.Object)
	fw.begin(kind)
	if e.JSON != nil {
		return fw.end(e.JSON)
	}
	b, ok := appendObject(fw.buf, e.Object)
	if !ok {
		return fw.json(kind, e.Object)
	}
	fw.buf = b
	return fw.end(nil)
}

// json writes one frame whose body is v's compact JSON.
func (fw *frameWriter) json(kind string, v any) error {
	fw.begin(kind)
	if err := fw.enc.Encode(v); err != nil {
		return fmt.Errorf("store: marshal %s: %w", kind, err)
	}
	fw.buf = fw.buf[:len(fw.buf)-1] // the encoder's newline
	return fw.end(nil)
}

// Save writes a snapshot of the store to w: every registry object, all
// repository content, and the NodeState table, captured in a single
// critical section so a snapshot taken while LCM writes are in flight is
// still a point-in-time view. Only ids and pointers are captured — a stored
// object, its JSON or a content body is replaced, never changed in place —
// and the frames are written straight into w after the lock is released:
// an object's kept JSON copied as it is, an object without any encoded.
// Equal stores save to equal bytes where every kept JSON is what the
// encoder writes, as on every path that logs or checkpoints an object this
// build encoded; an object loaded from other valid JSON saves it unchanged.
func (s *Store) Save(w io.Writer) error {
	type object struct {
		id string
		Entry
	}
	type item struct {
		id   string
		data []byte
	}
	s.mu.RLock()
	objs := make([]object, 0, len(s.objects))
	for id, e := range s.objects {
		objs = append(objs, object{id, e})
	}
	content := make([]item, 0, len(s.content))
	for id, data := range s.content {
		content = append(content, item{id, data})
	}
	// The NodeState table is loaded inside s.mu, so the three captures
	// are of one instant.
	rows := s.nodeState.Snapshot().Rows()
	s.mu.RUnlock()

	slices.SortFunc(objs, func(a, b object) int { return strings.Compare(a.id, b.id) })
	slices.SortFunc(content, func(a, b item) int { return strings.Compare(a.id, b.id) })
	fw := newFrameWriter(w)
	for _, o := range objs {
		if err := fw.object(o.Entry); err != nil {
			return err
		}
	}
	for _, c := range content {
		fw.begin(kindContent)
		fw.buf = append(binary.AppendUvarint(fw.buf, uint64(len(c.id))), c.id...)
		if err := fw.end(c.data); err != nil {
			return err
		}
	}
	for i := range rows {
		if err := fw.json(kindNodeState, &rows[i]); err != nil {
			return err
		}
	}
	count := fw.frames
	fw.begin(kindEnd)
	fw.buf = binary.LittleEndian.AppendUint64(fw.buf, count)
	if err := fw.end(nil); err != nil {
		return err
	}
	return fw.w.Flush()
}

// SnapshotStats counts what ReadSnapshot read.
type SnapshotStats struct {
	Frames  int   // frames before the trailer
	Objects int   // of which registry objects
	Bytes   int64 // stream length, trailer included
}

// ReadSnapshot reads one snapshot stream from r and hands every frame
// before the trailer to visit in stream order; body is visit's to keep.
// It returns once the trailer has confirmed the frame count, and fails
// with an ErrSnapshotCorrupt naming the frame and its offset on a short
// read, a checksum mismatch, a malformed payload or a wrong count. The
// stats cover what was read up to that point.
func ReadSnapshot(r io.Reader, visit func(kind string, body []byte) error) (SnapshotStats, error) {
	var st SnapshotStats
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: frame %d at offset %d: %s", ErrSnapshotCorrupt, st.Frames, st.Bytes, fmt.Sprintf(format, args...))
	}
	for {
		var hdr [frameHeaderLen]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return st, corrupt("no trailer: %v", err)
		}
		n := int(binary.LittleEndian.Uint32(hdr[0:4]))
		if n < 1 || n > MaxFrameBytes {
			return st, corrupt("length %d out of range", n)
		}
		payload, err := readPayload(r, n)
		if err != nil {
			return st, corrupt("torn: %v", err)
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return st, corrupt("checksum mismatch")
		}
		k := int(payload[0])
		if 1+k > n {
			return st, corrupt("kind runs past the payload")
		}
		kind, body := string(payload[1:1+k]), payload[1+k:]
		if kind == kindEnd {
			if len(body) != 8 || binary.LittleEndian.Uint64(body) != uint64(st.Frames) {
				return st, corrupt("trailer does not count %d frames", st.Frames)
			}
			st.Bytes += int64(frameHeaderLen + n)
			return st, nil
		}
		if err := visit(kind, body); err != nil {
			return st, err
		}
		if kind != kindContent && kind != kindNodeState {
			st.Objects++
		}
		st.Frames++
		st.Bytes += int64(frameHeaderLen + n)
	}
}

// readPayload reads exactly n bytes, growing the buffer as they arrive so
// a damaged length can never allocate more than the stream really holds
// (plus one step).
func readPayload(r io.Reader, n int) ([]byte, error) {
	const step = 1 << 20
	buf := make([]byte, 0, min(n, step))
	for len(buf) < n {
		have := len(buf)
		buf = append(buf, make([]byte, min(n-have, max(have, step)))...)
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// Frame is one decoded snapshot frame: a registry object, a repository
// content item, or a NodeState row.
type Frame struct {
	Object    rim.Object // set for an object frame
	JSON      []byte     // set with Object: the frame body it decoded, aliased
	ContentID string     // a content frame when Object and Row are nil
	Content   []byte     // aliases the frame body
	Row       *NodeState // set for a NodeState frame
}

// DecodeFrame decodes what ReadSnapshot handed to its visitor.
func DecodeFrame(kind string, body []byte) (Frame, error) {
	switch kind {
	case kindContent:
		n, w := binary.Uvarint(body)
		if w <= 0 || n > uint64(len(body)-w) {
			return Frame{}, fmt.Errorf("%w: content frame without an id", ErrSnapshotCorrupt)
		}
		return Frame{ContentID: string(body[w : w+int(n)]), Content: body[w+int(n):]}, nil
	case kindNodeState:
		row := new(NodeState)
		if err := json.Unmarshal(body, row); err != nil {
			return Frame{}, fmt.Errorf("store: decode %s: %w", kind, err)
		}
		return Frame{Row: row}, nil
	}
	o, _, err := decodeObject(kind, body)
	if err != nil {
		return Frame{}, err
	}
	if d := defect(o); d != "" {
		return Frame{}, fmt.Errorf("%w: %s %s", ErrSnapshotCorrupt, kind, d)
	}
	return Frame{Object: o, JSON: body}, nil
}

// Load replaces the store's contents with the snapshot read from r; see
// LoadStats.
func (s *Store) Load(r io.Reader) error {
	_, err := s.LoadStats(r)
	return err
}

// LoadStats is Load that also reports what the stream held. Frames are
// read and verified in order and decoded by GOMAXPROCS workers; the decoded
// objects are indexed as they are, each keeping the frame body it was
// decoded from for the next Save to copy, and nothing touches the live store
// until the last frame has decoded and the trailer has checked out, so a
// failed load leaves the store exactly as it was. The NodeStateTable keeps
// its identity — components holding the table pointer (the balancer, the
// collector) observe the restored rows rather than writing to an orphaned
// table.
func (s *Store) LoadStats(r io.Reader) (SnapshotStats, error) {
	type raw struct {
		kind string
		body []byte
	}
	type part struct {
		frames []Frame
		err    error
	}
	parts := make([]part, runtime.GOMAXPROCS(0))
	// One queued frame per worker: enough that none idles while the reader
	// is in a Read, without holding much of the stream undecoded.
	jobs := make(chan raw, len(parts))
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(p *part) {
			defer wg.Done()
			for j := range jobs {
				// After a failure keep draining, so the reader never blocks.
				if p.err != nil {
					continue
				}
				var f Frame
				if f, p.err = DecodeFrame(j.kind, j.body); p.err == nil {
					p.frames = append(p.frames, f)
				}
			}
		}(&parts[i])
	}
	st, err := ReadSnapshot(bufio.NewReaderSize(r, 256<<10), func(kind string, body []byte) error {
		jobs <- raw{kind, body}
		return nil
	})
	close(jobs)
	wg.Wait()
	if err != nil {
		return st, err
	}

	fresh := New()
	var rows []NodeState
	for _, p := range parts {
		if p.err != nil {
			return st, p.err
		}
		for _, f := range p.frames {
			switch {
			case f.Row != nil:
				rows = append(rows, *f.Row)
			case f.Object == nil:
				fresh.content[f.ContentID] = f.Content
			default:
				id := f.Object.Base().ID
				if _, dup := fresh.objects[id]; dup {
					return st, fmt.Errorf("%w: object %s appears twice", ErrSnapshotCorrupt, id)
				}
				fresh.objects[id] = Entry{f.Object, f.JSON}
				fresh.indexLocked(f.Object)
			}
		}
	}

	s.mu.Lock()
	s.tables = fresh.tables
	s.nodeState.Reset(rows)
	s.mu.Unlock()
	return st, nil
}
