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
	"sort"
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

// frameWriter builds each frame in one reused buffer, behind a gap the
// length and checksum are written into once the payload is complete.
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

func (fw *frameWriter) end() error {
	b := fw.buf
	payload := b[frameHeaderLen:]
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("store: snapshot frame of %d bytes exceeds MaxFrameBytes", len(payload))
	}
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(payload, castagnoli))
	fw.frames++
	_, err := fw.w.Write(b)
	return err
}

// object writes one frame holding o, by its class's appender where it has
// one and by the encoder where it has not.
func (fw *frameWriter) object(o rim.Object) error {
	kind := kindOf(o)
	fw.begin(kind)
	b, ok := appendObject(fw.buf, o)
	if !ok {
		return fw.json(kind, o)
	}
	fw.buf = b
	return fw.end()
}

// json writes one frame whose body is v's compact JSON.
func (fw *frameWriter) json(kind string, v any) error {
	fw.begin(kind)
	if err := fw.enc.Encode(v); err != nil {
		return fmt.Errorf("store: marshal %s: %w", kind, err)
	}
	fw.buf = fw.buf[:len(fw.buf)-1] // the encoder's newline
	return fw.end()
}

// Save writes a snapshot of the store to w: every registry object, all
// repository content, and the NodeState table, captured in a single
// critical section so a snapshot taken while LCM writes are in flight is
// still a point-in-time view. Only pointers are captured — a stored object
// or content body is replaced, never changed in place — and the frames are
// encoded straight into w after the lock is released. Equal stores save to
// equal bytes.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	objs := make([]rim.Object, 0, len(s.objects))
	for _, o := range s.objects {
		objs = append(objs, o)
	}
	type item struct {
		id   string
		data []byte
	}
	content := make([]item, 0, len(s.content))
	for id, data := range s.content {
		content = append(content, item{id, data})
	}
	// The NodeState table locks itself; acquiring it inside s.mu keeps the
	// three captures at one instant. Nothing acquires these locks in the
	// reverse order.
	rows := s.nodeState.Rows()
	s.mu.RUnlock()

	sortByID(objs)
	sort.Slice(content, func(i, j int) bool { return content[i].id < content[j].id })
	fw := newFrameWriter(w)
	for _, o := range objs {
		if err := fw.object(o); err != nil {
			return err
		}
	}
	for _, c := range content {
		fw.begin(kindContent)
		fw.buf = append(append(binary.AppendUvarint(fw.buf, uint64(len(c.id))), c.id...), c.data...)
		if err := fw.end(); err != nil {
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
	if err := fw.end(); err != nil {
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
	return Frame{Object: o}, nil
}

// Load replaces the store's contents with the snapshot read from r; see
// LoadStats.
func (s *Store) Load(r io.Reader) error {
	_, err := s.LoadStats(r)
	return err
}

// LoadStats is Load that also reports what the stream held. Frames are
// read and verified in order and decoded by GOMAXPROCS workers; the decoded
// objects are indexed as they are, and nothing touches the live store
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
				fresh.objects[id] = f.Object
				fresh.indexLocked(f.Object)
			}
		}
	}

	s.mu.Lock()
	s.changes.Add(1)
	s.tables = fresh.tables
	s.nodeState.Reset(rows)
	s.mu.Unlock()
	return st, nil
}
