package wal

// The boundary index against the scan it replaced: OpenReaderAt answers
// from what the log remembers having written, so for every byte offset of
// every live segment it must accept, reject and number exactly as a full
// scan of the file would — across rotation, prune and a torn-tail reopen.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scanModel is the reference: the sequence number before each live
// segment's first record (what the log counted at Open and at rotation),
// kept by the test, plus a full scan of the segment file per question.
type scanModel struct {
	dir   string
	first map[uint64]uint64 // live segment -> records committed before it
	seq   uint64            // records committed so far
}

// rescan rebuilds the model the way Open numbers records: from zero at the
// oldest live segment.
func (m *scanModel) rescan(t *testing.T) {
	t.Helper()
	segs, err := listSegments(m.dir)
	if err != nil {
		t.Fatal(err)
	}
	m.first, m.seq = make(map[uint64]uint64), 0
	for _, seg := range segs {
		m.first[seg] = m.seq
		_, _, records, err := scanSegment(filepath.Join(m.dir, segmentName(seg)), nil)
		if err != nil {
			t.Fatal(err)
		}
		m.seq += uint64(records)
	}
}

// answer is what a reader opened at pos must be: pruned, rejected, or
// positioned after seq records.
func (m *scanModel) answer(t *testing.T, l *Log, pos Position) (pruned, ok bool, seq uint64) {
	t.Helper()
	tail := l.Pos()
	oldest := tail.Segment
	for seg := range m.first {
		if seg < oldest {
			oldest = seg
		}
	}
	if pos.IsZero() {
		return oldest > 1, oldest == 1, 0
	}
	if pos.Segment < oldest {
		return true, false, 0
	}
	if pos.Segment > tail.Segment || (pos.Segment == tail.Segment && pos.Offset > tail.Offset) {
		return false, false, 0
	}
	if pos.Offset == 0 {
		return false, true, m.first[pos.Segment]
	}
	var before uint64
	landed := false
	_, _, _, err := scanSegment(filepath.Join(m.dir, segmentName(pos.Segment)), func(_, end int64, _ []byte) error {
		if end <= pos.Offset {
			before++
		}
		if end == pos.Offset {
			landed = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return false, landed, m.first[pos.Segment] + before
}

// checkEveryOffset asks both about every offset of every segment that ever
// existed, one past each end, and a segment past the tail.
func (m *scanModel) checkEveryOffset(t *testing.T, l *Log, stage string) {
	t.Helper()
	tail := l.Pos()
	check := func(pos Position) {
		pruned, ok, seq := m.answer(t, l, pos)
		rd, err := l.OpenReaderAt(pos)
		switch {
		case pruned:
			if !errors.Is(err, ErrPositionPruned) {
				t.Fatalf("%s: OpenReaderAt(%s) = %v, want ErrPositionPruned", stage, pos, err)
			}
		case !ok:
			if err == nil || errors.Is(err, ErrPositionPruned) {
				t.Fatalf("%s: OpenReaderAt(%s) = %v, want a rejection", stage, pos, err)
			}
		default:
			if err != nil {
				t.Fatalf("%s: OpenReaderAt(%s) rejected a record boundary: %v", stage, pos, err)
			}
			if rd.Seq() != seq {
				t.Fatalf("%s: OpenReaderAt(%s) seq = %d, a scan counts %d", stage, pos, rd.Seq(), seq)
			}
		}
		if rd != nil {
			rd.Close()
		}
	}
	check(Position{})
	for seg := uint64(1); seg <= tail.Segment; seg++ {
		size := tail.Offset
		if seg != tail.Segment {
			size = 0
			if fi, err := os.Stat(filepath.Join(m.dir, segmentName(seg))); err == nil {
				size = fi.Size()
			}
		}
		for off := int64(0); off <= size+1; off++ {
			check(Position{Segment: seg, Offset: off})
		}
	}
	check(Position{Segment: tail.Segment + 1, Offset: 0})
}

func TestReplIndexMatchesScanAtEveryOffset(t *testing.T) {
	const segmentBytes = 256
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			opts := Options{SegmentBytes: segmentBytes, Fsync: FsyncNever}
			l, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			m := &scanModel{dir: dir}
			m.rescan(t)
			appendSome := func(n int) {
				for i := 0; i < n; i++ {
					// One-byte records, ones that fill a segment to the byte, and
					// ones a segment cannot hold (they get one to themselves)
					// stand in for the MaxRecordBytes end of the range.
					var size int
					switch rng.Intn(6) {
					case 0:
						size = 1
					case 1:
						size = segmentBytes - recordHeaderLen
					case 2:
						size = segmentBytes + rng.Intn(32)
					default:
						size = 1 + rng.Intn(48)
					}
					before := l.Pos().Segment
					pos, err := l.Append([]byte(strings.Repeat("x", size)))
					if err != nil {
						t.Fatal(err)
					}
					if pos.Segment != before {
						m.first[pos.Segment] = m.seq
					}
					m.seq++
				}
			}
			appendSome(10 + rng.Intn(30))
			m.checkEveryOffset(t, l, "after appends")

			// Prune below a random live boundary; the model forgets what the
			// log may forget.
			keep := Position{Segment: 1 + uint64(rng.Int63n(int64(l.Pos().Segment)))}
			if _, err := l.Prune(keep); err != nil {
				t.Fatal(err)
			}
			for seg := range m.first {
				if seg < keep.Segment {
					delete(m.first, seg)
				}
			}
			m.checkEveryOffset(t, l, "after prune")
			appendSome(5 + rng.Intn(10))
			m.checkEveryOffset(t, l, "after prune and appends")

			// kill -9 mid-append: the log is abandoned with half a record
			// after its tail. Open truncates it and the index must end where
			// the file now does.
			tail := l.Pos()
			f, err := os.OpenFile(filepath.Join(dir, segmentName(tail.Segment)), os.O_WRONLY|os.O_APPEND, 0o666)
			if err != nil {
				t.Fatal(err)
			}
			torn := []byte{40, 0, 0, 0, 1, 2, 3, 4, 'h', 'a', 'l', 'f'}
			if _, err := f.Write(torn[:1+rng.Intn(len(torn)-1)]); err != nil {
				t.Fatal(err)
			}
			f.Close()
			l, err = Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if got := l.Pos(); got != tail {
				t.Fatalf("reopened at %s, want the last intact record's end %s", got, tail)
			}
			m.rescan(t)
			if l.Seq() != m.seq {
				t.Fatalf("reopened log counts %d records, a scan %d", l.Seq(), m.seq)
			}
			m.checkEveryOffset(t, l, "after torn-tail reopen")
			appendSome(5 + rng.Intn(10))
			m.checkEveryOffset(t, l, "after reopen and appends")
		})
	}
}

// BenchmarkOpenReaderAt attaches at the tail of a half-full default
// segment of 6 KB records — where a follower's every poll attaches while
// publish_follow runs. EXPERIMENTS.md "P6" has the before and after.
func BenchmarkOpenReaderAt(b *testing.B) {
	l, err := Open(b.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := []byte(strings.Repeat("x", 6<<10))
	var tail Position
	for i := 0; i < 350; i++ {
		if tail, err = l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := l.OpenReaderAt(tail)
		if err != nil || rd.Seq() != 350 {
			b.Fatalf("OpenReaderAt(%s) = seq %v, %v", tail, rd, err)
		}
		rd.Close()
	}
}
