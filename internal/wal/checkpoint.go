package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/store"
)

// CheckpointFormat versions the checkpoint file layout: a checked header
//
//	"RCKP" [u32 format][u32 n][n × u64 word][u32 crc32c of all before]
//
// (little-endian; the words say what the snapshot covers) in front of one
// store snapshot stream. Format 1, a single JSON document, has no reader.
const CheckpointFormat = 2

const checkpointMagic = "RCKP"

// ErrNoUsableCheckpoint is returned by recovery when the directory holds
// checkpoint files and none of them loads. Replaying the surviving log
// segments onto an empty store would boot a partial registry — the
// segments an unreadable checkpoint covered are already pruned — so the
// boot is refused instead; the error wraps each file's cause.
var ErrNoUsableCheckpoint = errors.New("wal: checkpoint files exist but none is usable")

// CheckpointFiles is one family of checkpoint files in a directory,
// "<Prefix>-<seq>.ckpt", each covering Words u64 values.
type CheckpointFiles struct {
	Dir    string
	Prefix string
	Words  int
}

// leaderCheckpoints is the registry's own family; its words are the WAL
// position (segment, offset) the snapshot covers.
func leaderCheckpoints(dir string) CheckpointFiles {
	return CheckpointFiles{Dir: dir, Prefix: "checkpoint", Words: 2}
}

// Name returns the file name of checkpoint seq.
func (c CheckpointFiles) Name(seq uint64) string {
	return fmt.Sprintf("%s-%010d.ckpt", c.Prefix, seq)
}

// List returns the family's sequence numbers in ascending order.
// Quarantined and temporary files do not match.
func (c CheckpointFiles) List() ([]uint64, error) { return c.list("") }

// Quarantined returns the sequence numbers of the files a recovery set
// aside as unreadable ("<name>.corrupt"). Nothing deletes them.
func (c CheckpointFiles) Quarantined() ([]uint64, error) { return c.list(".corrupt") }

func (c CheckpointFiles) list(suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(c.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", c.Dir, err)
	}
	var out []uint64
	for _, e := range entries {
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), c.Prefix+"-%010d.ckpt", &seq); err != nil || seq == 0 || e.Name() != c.Name(seq)+suffix {
			continue
		}
		out = append(out, seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Write atomically writes checkpoint seq: the header carrying words, then
// the store's snapshot streamed straight into the file. It returns the
// file's size.
func (c CheckpointFiles) Write(seq uint64, s *store.Store, words ...uint64) (int64, error) {
	var cw countingWriter
	err := WriteFileAtomic(filepath.Join(c.Dir, c.Name(seq)), func(w io.Writer) error {
		cw.w = w
		if _, err := cw.Write(checkpointHeader(words...)); err != nil {
			return err
		}
		return s.Save(&cw)
	})
	return cw.n, err
}

// headerLen is the size of a checkpoint header carrying n words.
func headerLen(n int) int { return 16 + 8*n }

func checkpointHeader(words ...uint64) []byte {
	hdr := make([]byte, 0, headerLen(len(words)))
	hdr = append(hdr, checkpointMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, CheckpointFormat)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(words)))
	for _, w := range words {
		hdr = binary.LittleEndian.AppendUint64(hdr, w)
	}
	return binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr, castagnoli))
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// readCheckpointHeader reads and verifies a checkpoint header of n words,
// leaving r at the first snapshot frame.
func readCheckpointHeader(r io.Reader, n int) ([]uint64, error) {
	buf := make([]byte, headerLen(n))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("wal: read checkpoint header: %w", err)
	}
	if string(buf[:4]) != checkpointMagic {
		return nil, fmt.Errorf("wal: not a checkpoint file")
	}
	if format := binary.LittleEndian.Uint32(buf[4:8]); format != CheckpointFormat {
		return nil, fmt.Errorf("wal: checkpoint format %d unsupported", format)
	}
	body := len(buf) - 4
	if int(binary.LittleEndian.Uint32(buf[8:12])) != n ||
		crc32.Checksum(buf[:body], castagnoli) != binary.LittleEndian.Uint32(buf[body:]) {
		return nil, fmt.Errorf("wal: checkpoint header damaged")
	}
	words := make([]uint64, n)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[12+8*i:])
	}
	return words, nil
}

// ParseCheckpoint reads the header of a leader checkpoint — a file of the
// data directory, or the same bytes as served by the replication bootstrap
// endpoint — and returns the WAL position it covers, leaving r at the
// snapshot stream for store.Load or store.ReadSnapshot.
func ParseCheckpoint(r io.Reader) (Position, error) {
	words, err := readCheckpointHeader(r, 2)
	if err != nil {
		return Position{}, err
	}
	return Position{Segment: words[0], Offset: int64(words[1])}, nil
}

// Recovered is what CheckpointFiles.Recover found.
type Recovered struct {
	Seq    uint64   // the checkpoint that loaded; 0 when the family is empty
	Newest uint64   // the highest sequence number seen, never to be reused
	Words  []uint64 // the loaded header's words
	Bytes  int64    // size of the loaded file
	Frames int      // snapshot frames it held
}

// Recover loads the newest checkpoint that reads back whole into s, trying
// older ones when a newer one fails. Files that failed are renamed to
// "<name>.corrupt" — only once an older one has loaded, so a directory in
// which nothing loads keeps refusing to boot rather than looking empty the
// next time — which keeps them out of retention's "previous checkpoint"
// slot: the next checkpoint then keeps the file that really loaded as the
// fallback.
func (c CheckpointFiles) Recover(s *store.Store, log *slog.Logger) (Recovered, error) {
	seqs, err := c.List()
	if err != nil {
		return Recovered{}, err
	}
	burnt, err := c.Quarantined()
	if err != nil {
		return Recovered{}, err
	}
	var causes []error
	for i := len(seqs) - 1; i >= 0; i-- {
		rec, err := c.load(seqs[i], s)
		if err != nil {
			log.Warn("skipping unusable checkpoint", "file", c.Name(seqs[i]), "err", err)
			causes = append(causes, fmt.Errorf("wal: %s: %w", c.Name(seqs[i]), err))
			continue
		}
		rec.Newest = seqs[len(seqs)-1]
		if n := len(burnt); n > 0 && burnt[n-1] > rec.Newest {
			rec.Newest = burnt[n-1]
		}
		for _, bad := range seqs[i+1:] {
			path := filepath.Join(c.Dir, c.Name(bad))
			if err := os.Rename(path, path+".corrupt"); err != nil {
				log.Warn("checkpoint quarantine failed", "file", c.Name(bad), "err", err)
			}
		}
		return rec, nil
	}
	if legacy, _ := filepath.Glob(filepath.Join(c.Dir, c.Prefix+"-*.json")); len(legacy) > 0 {
		causes = append(causes, fmt.Errorf("wal: %s: format 1 (JSON) checkpoint: this build reads format %d only",
			filepath.Base(legacy[len(legacy)-1]), CheckpointFormat))
	}
	if len(causes) > 0 {
		return Recovered{}, fmt.Errorf("%w: %w", ErrNoUsableCheckpoint, errors.Join(causes...))
	}
	return Recovered{}, nil
}

func (c CheckpointFiles) load(seq uint64, s *store.Store) (Recovered, error) {
	f, err := os.Open(filepath.Join(c.Dir, c.Name(seq)))
	if err != nil {
		return Recovered{}, fmt.Errorf("wal: open checkpoint: %w", err)
	}
	defer f.Close()
	words, err := readCheckpointHeader(f, c.Words)
	if err != nil {
		return Recovered{}, err
	}
	st, err := s.LoadStats(f)
	if err != nil {
		return Recovered{}, err
	}
	return Recovered{Seq: seq, Words: words, Bytes: int64(headerLen(c.Words)) + st.Bytes, Frames: st.Frames}, nil
}

// RemoveBelow deletes the family's checkpoints with sequence < keep.
func (c CheckpointFiles) RemoveBelow(keep uint64) error {
	seqs, err := c.List()
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if seq >= keep {
			break
		}
		if err := os.Remove(filepath.Join(c.Dir, c.Name(seq))); err != nil {
			return fmt.Errorf("wal: remove checkpoint %d: %w", seq, err)
		}
	}
	return nil
}
