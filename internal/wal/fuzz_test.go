package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// appendRecord frames one payload as Append writes it.
func appendRecord(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// frameRecords lays payloads out as a segment file holds them.
func frameRecords(payloads ...string) []byte {
	var b []byte
	for _, p := range payloads {
		b = appendRecord(b, []byte(p))
	}
	return b
}

// FuzzScanSegment: a segment file is bytes a crash may have left in any
// state. Whatever they are, the scan never panics or reads past the file,
// the valid prefix it reports is within it, the index built from it is
// strictly ascending, holds no empty record and is exactly the records a
// second scan yields, and Open leaves the log positioned on — and the file
// cut to — that prefix.
func FuzzScanSegment(f *testing.F) {
	whole := frameRecords("one", "two", "three")
	f.Add(whole)
	f.Add(whole[:len(whole)-2])                                            // torn payload
	f.Add(whole[:len(frameRecords("one"))+3])                              // torn header
	f.Add(append(frameRecords("one"), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)) // length past any bound
	f.Add(make([]byte, 64))                                                // zero fill: no record, not eight empty ones
	f.Add(append(frameRecords("one"), make([]byte, 64)...))                // zero fill behind a record
	f.Add(frameRecords("one", "", "three"))                                // an empty record ends the valid prefix
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-1] ^= 1
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		ends, valid, clean, err := indexSegment(path)
		if err != nil {
			t.Fatalf("scan of a readable file failed: %v", err)
		}
		if valid < 0 || valid > int64(len(data)) || clean != (valid == int64(len(data))) {
			t.Fatalf("valid = %d, clean = %v for %d bytes", valid, clean, len(data))
		}
		prev := int64(0)
		for _, end := range ends {
			if end <= prev+recordHeaderLen {
				t.Fatalf("index %v is not ascending by a header and a payload", ends)
			}
			prev = end
		}
		if prev != valid {
			t.Fatalf("index ends at %d, valid prefix at %d", prev, valid)
		}
		var again []int64
		var rebuilt []byte
		if _, _, records, err := scanSegment(path, func(start, end int64, payload []byte) error {
			again = append(again, end)
			rebuilt = appendRecord(rebuilt, payload)
			return nil
		}); err != nil || records != len(ends) || len(again) != len(ends) {
			t.Fatalf("second scan: %d records (%v), index has %d", records, err, len(ends))
		}
		for i := range ends {
			if again[i] != ends[i] {
				t.Fatalf("second scan ends %v, index %v", again, ends)
			}
		}
		if !bytes.Equal(rebuilt, data[:valid]) {
			t.Fatal("the records scanned do not re-frame to the valid prefix")
		}

		l, err := Open(dir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if pos := l.Pos(); pos != (Position{Segment: 1, Offset: valid}) || l.Seq() != uint64(len(ends)) {
			t.Fatalf("Open at %s seq %d, want 1:%d seq %d", pos, l.Seq(), valid, len(ends))
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != valid {
			t.Fatalf("Open left %v bytes (%v), want the valid %d", fi.Size(), err, valid)
		}
		for i, end := range ends {
			rd, err := l.OpenReaderAt(Position{Segment: 1, Offset: end})
			if err != nil || rd.Seq() != uint64(i+1) {
				t.Fatalf("OpenReaderAt(1:%d) = seq %v, %v; want %d", end, rd, err, i+1)
			}
		}
	})
}
