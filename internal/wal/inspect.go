package wal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/store"
)

// SegmentInfo summarizes one segment file for offline inspection.
type SegmentInfo struct {
	Index      uint64
	Bytes      int64 // valid prefix length
	Records    int
	TornBytes  int64 // trailing bytes past the last intact record
	TotalBytes int64 // file size on disk
}

// CheckpointInfo summarizes one checkpoint file: what its header says and
// what a full read of its snapshot stream, every checksum verified, found.
type CheckpointInfo struct {
	Name    string
	Format  int
	Covers  Position
	Frames  int
	Objects int
	Bytes   int64  // file size
	Err     string // empty = crc ok; else the first bad frame and its offset
}

// Info is the result of Inspect.
type Info struct {
	Dir         string
	Segments    []SegmentInfo
	Checkpoints []CheckpointInfo
	Quarantined []string // "<checkpoint>.corrupt" files a recovery set aside
}

// Inspect reads a data directory without mutating it (no torn-tail
// truncation, no locks) and reports segment and checkpoint health —
// the engine behind `regctl wal inspect`.
func Inspect(dir string) (Info, error) {
	info := Info{Dir: dir}
	segs, err := listSegments(dir)
	if err != nil {
		return Info{}, err
	}
	for _, seg := range segs {
		path := filepath.Join(dir, segmentName(seg))
		valid, clean, records, err := scanSegment(path, nil)
		if err != nil {
			return Info{}, err
		}
		si := SegmentInfo{Index: seg, Bytes: valid, Records: records, TotalBytes: valid}
		if !clean {
			fi, err := statSize(path)
			if err != nil {
				return Info{}, err
			}
			si.TotalBytes = fi
			si.TornBytes = fi - valid
		}
		info.Segments = append(info.Segments, si)
	}
	files := leaderCheckpoints(dir)
	seqs, err := files.List()
	if err != nil {
		return Info{}, err
	}
	for _, seq := range seqs {
		ci, _ := scanCheckpoint(files, seq, func(string, []byte) error { return nil })
		info.Checkpoints = append(info.Checkpoints, ci)
	}
	bad, err := files.Quarantined()
	if err != nil {
		return Info{}, err
	}
	for _, seq := range bad {
		info.Quarantined = append(info.Quarantined, files.Name(seq)+".corrupt")
	}
	return info, nil
}

// scanCheckpoint reads checkpoint seq frame by frame through visit. The
// info is filled as far as the file could be read; the error is also
// recorded in it.
func scanCheckpoint(files CheckpointFiles, seq uint64, visit func(kind string, body []byte) error) (CheckpointInfo, error) {
	ci := CheckpointInfo{Name: files.Name(seq)}
	fail := func(err error) (CheckpointInfo, error) {
		ci.Err = err.Error()
		return ci, err
	}
	f, err := os.Open(filepath.Join(files.Dir, ci.Name))
	if err != nil {
		return fail(fmt.Errorf("wal: open checkpoint: %w", err))
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil {
		ci.Bytes = fi.Size()
	}
	if ci.Covers, err = ParseCheckpoint(f); err != nil {
		return fail(err)
	}
	ci.Format = CheckpointFormat
	st, err := store.ReadSnapshot(bufio.NewReader(f), visit)
	ci.Frames, ci.Objects = st.Frames, st.Objects
	if err != nil {
		return fail(err)
	}
	return ci, nil
}

// FrameInfo summarizes one frame of a checkpoint for `regctl wal dump`.
type FrameInfo struct {
	Checkpoint string // file name
	Kind       string
	ID         string // object id, content id, or NodeState host
	Bytes      int    // frame body length
}

// DumpCheckpoint streams the newest checkpoint's frames to fn, one decoded
// frame at a time — the state the records Dump lists are applied on. It
// reports nothing when the directory holds no checkpoint.
func DumpCheckpoint(dir string, fn func(FrameInfo) error) error {
	files := leaderCheckpoints(dir)
	seqs, err := files.List()
	if err != nil || len(seqs) == 0 {
		return err
	}
	newest := seqs[len(seqs)-1]
	_, err = scanCheckpoint(files, newest, func(kind string, body []byte) error {
		fi := FrameInfo{Checkpoint: files.Name(newest), Kind: kind, Bytes: len(body)}
		f, err := store.DecodeFrame(kind, body)
		switch {
		case err != nil:
			fi.ID = "undecodable: " + err.Error()
		case f.Object != nil:
			fi.ID = f.Object.Base().ID
		case f.Row != nil:
			fi.ID = f.Row.Host
		default:
			fi.ID = f.ContentID
		}
		return fn(fi)
	})
	return err
}

// RecordInfo summarizes one decoded WAL record for `regctl wal dump`.
type RecordInfo struct {
	Pos           Position // position just past the record
	Bytes         int      // payload length
	Op            string
	PutIDs        []string // "Kind/id" per stored object
	Deletes       []string
	ContentPut    string
	ContentDelete string
}

// Dump walks every intact record in the directory in log order, calling
// fn per record. Like Inspect it is read-only: a torn tail is skipped,
// not truncated.
func Dump(dir string, fn func(RecordInfo) error) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		path := filepath.Join(dir, segmentName(seg))
		_, _, _, err := scanSegment(path, func(start, end int64, payload []byte) error {
			ri := RecordInfo{Pos: Position{Segment: seg, Offset: end}, Bytes: len(payload)}
			var rec walRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				ri.Op = "undecodable: " + err.Error()
				return fn(ri)
			}
			ri.Op = rec.Op
			ri.Deletes = rec.Deletes
			ri.ContentPut = rec.ContentPut
			ri.ContentDelete = rec.ContentDelete
			for _, env := range rec.Puts {
				var base struct{ ID string }
				if err := json.Unmarshal(env.Data, &base); err == nil {
					ri.PutIDs = append(ri.PutIDs, env.Kind+"/"+base.ID)
				}
			}
			return fn(ri)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// statSize returns the on-disk size of path.
func statSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	return fi.Size(), nil
}
