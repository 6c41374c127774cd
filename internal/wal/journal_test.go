package wal

// What a Journal promises, it promises to both of its owners. Each test
// below runs once per checkpoint family — the leader's two-word
// "checkpoint-*" and the follower's five-word "replckpt-*" — over a node
// that drives the journal the way either owner does: an lcm.Manager whose
// Durability appends every mutation and, once it is applied, checkpoints if
// Append said one is due. The follower family's owner words say how many records the snapshot
// holds, so "the position the owner resumes at" can be checked as
// words + replayed = everything acknowledged.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/lcm"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/store"
)

type journalFamily struct {
	name  string
	files func(dir string) CheckpointFiles
	// words are the owner words for a checkpoint of a store holding the
	// given number of records; nil for a family without any.
	words func(records uint64) []uint64
}

var journalFamilies = []journalFamily{
	{name: "leader", files: leaderCheckpoints},
	{
		name:  "follower", // repl.followerCheckpoints, which this package cannot import
		files: func(dir string) CheckpointFiles { return CheckpointFiles{Dir: dir, Prefix: "replckpt", Words: 5} },
		words: func(records uint64) []uint64 { return []uint64{records, records * 10, records * 100} },
	},
}

func forEachFamily(t *testing.T, fn func(t *testing.T, fam journalFamily)) {
	for _, fam := range journalFamilies {
		fam := fam
		t.Run(fam.name, func(t *testing.T) { fn(t, fam) })
	}
}

// journalNode is a store, the journal under it and the write path on top.
type journalNode struct {
	fam      journalFamily
	j        *Journal
	store    *store.Store
	mgr      *lcm.Manager
	ctx      lcm.Context
	stats    RecoveryStats
	restored []uint64 // the owner words OpenJournal handed back
	records  uint64   // records the store holds; exact only for a family with owner words
	due      bool     // an append reached the threshold: EndWrite checkpoints
}

// openJournalNode recovers dir into a fresh store. every is the record
// threshold; the byte threshold is off.
func openJournalNode(fam journalFamily, dir string, log Options, every int) (*journalNode, error) {
	n := &journalNode{fam: fam, store: store.New()}
	var restore func([]uint64)
	if fam.words != nil {
		restore = func(words []uint64) { n.restored, n.records = words, words[0] }
	}
	var err error
	n.j, n.stats, err = OpenJournal(fam.files(dir), n.store, log, -1, every, restore, func(payload []byte) error {
		n.records++
		return applyRecord(n.store, payload)
	})
	if err != nil {
		return nil, err
	}
	n.mgr, n.ctx = newTestManager(n.store, log.Clock, nil)
	n.mgr.Durability = n
	return n, nil
}

func mustOpenJournalNode(t *testing.T, fam journalFamily, dir string, log Options, every int) *journalNode {
	t.Helper()
	n, err := openJournalNode(fam, dir, log, every)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func (n *journalNode) BeginWrite() error { return nil }

// EndWrite takes the checkpoint an append made due, as both owners do: once
// the store holds the record the checkpoint is stamped as covering.
func (n *journalNode) EndWrite() {
	if n.due {
		n.due = false
		if err := n.checkpoint(); err != nil {
			panic(err) // no test makes a checkpoint fail
		}
	}
}

func (n *journalNode) Commit(m lcm.Mutation) error {
	payload, err := appendMutation(nil, m)
	if err != nil {
		return err
	}
	due, err := n.j.Append(payload)
	if err != nil {
		return err
	}
	n.records++
	n.due = n.due || due
	return nil
}

func (n *journalNode) checkpoint() error {
	if n.fam.words == nil {
		return n.j.Checkpoint()
	}
	return n.j.Checkpoint(n.fam.words(n.records)...)
}

func (n *journalNode) submit(t *testing.T, name string) {
	t.Helper()
	if err := n.mgr.SubmitObjects(n.ctx, rim.NewService(name, "crash harness service")); err != nil {
		t.Fatal(err)
	}
}

// wantResumedAt checks that recovery put the owner where it had been: the
// loaded checkpoint's owner words came back as written, and with the
// records replayed behind them they account for every acknowledged record.
func (n *journalNode) wantResumedAt(t *testing.T, records uint64) {
	t.Helper()
	if n.fam.words == nil {
		return
	}
	if n.stats.Checkpoint != 0 {
		at := n.records - uint64(n.stats.ReplayedRecords)
		if want := n.fam.words(at); !slices.Equal(n.restored, want) {
			t.Fatalf("owner words %v handed back, want %v as written", n.restored, want)
		}
	}
	if n.records != records {
		t.Fatalf("resumed at record %d (checkpoint %d + %d replayed), want %d",
			n.records, n.stats.Checkpoint, n.stats.ReplayedRecords, records)
	}
}

func newestCheckpointPath(t *testing.T, files CheckpointFiles) string {
	t.Helper()
	seqs, err := files.List()
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no %s checkpoint in %s (%v)", files.Prefix, files.Dir, err)
	}
	return filepath.Join(files.Dir, files.Name(seqs[len(seqs)-1]))
}

// TestCrashCheckpointNeverCoversUnsyncedLog: a checkpoint file is durable
// the moment it exists, so the log position it is stamped with must be on
// disk too. Under -fsync never nothing else syncs the log; if the
// checkpoint did not, a power loss would leave the tail segment shorter
// than the stamped position, the rebooted log would append below it, and
// the recovery after that would skip those records as already covered —
// acknowledged writes gone without a trace. The power loss is simulated as
// the harness simulates a torn write: by truncating the tail segment, here
// to the length that was last fsynced.
func TestCrashCheckpointNeverCoversUnsyncedLog(t *testing.T) {
	forEachFamily(t, func(t *testing.T, fam journalFamily) {
		dir := t.TempDir()
		// One segment, no automatic checkpoints: the only fsync that can
		// happen before the crash is the checkpoint's own.
		log := Options{Fsync: FsyncNever, Clock: simclock.NewManual(time.Unix(1_700_000_000, 0))}
		n1 := mustOpenJournalNode(t, fam, dir, log, -1)
		for i := 0; i < 10; i++ {
			n1.submit(t, fmt.Sprintf("before-%d", i))
		}
		var synced int64 // length of the tail segment at its last fsync
		fsyncs := n1.j.Log().Fsyncs()
		if err := n1.checkpoint(); err != nil {
			t.Fatal(err)
		}
		seg, size := tailSegment(t, dir)
		if n1.j.Log().Fsyncs() != fsyncs {
			synced = size
		}
		if covers := n1.j.CheckpointPos(); covers.Segment == seg && covers.Offset > synced {
			t.Errorf("checkpoint covers %s but only %d bytes of segment %d were ever synced", covers, synced, seg)
		}
		// Power loss: n1 is abandoned and the un-synced tail is gone.
		if err := os.Truncate(filepath.Join(dir, segmentName(seg)), synced); err != nil {
			t.Fatal(err)
		}

		n2 := mustOpenJournalNode(t, fam, dir, log, -1)
		for i := 0; i < 3; i++ {
			n2.submit(t, fmt.Sprintf("after-%d", i))
		}
		acknowledged := saveBytes(t, n2.store)
		// kill -9: n2 is abandoned, its log intact in the page cache.

		n3 := mustOpenJournalNode(t, fam, dir, log, -1)
		if got := saveBytes(t, n3.store); !bytes.Equal(got, acknowledged) {
			t.Fatalf("recovery lost writes acknowledged after the power loss: recovered %d objects, acknowledged %d", n3.store.Len(), n2.store.Len())
		}
		n3.wantResumedAt(t, n2.records)
	})
}

// TestCheckpointRetentionAfterFallback is the regression test for the
// fallback that destroyed its own rescuer: after recovery fell back to the
// older checkpoint, the next checkpoint used to count the unreadable newest
// as "previous", delete the only good file and retain the corrupt one.
// Damage newest → boot → write past a threshold → damage newest again →
// the boot must still equal the acknowledged store, at the position the
// owner had reached, with every damaged file set aside and kept.
func TestCheckpointRetentionAfterFallback(t *testing.T) {
	forEachFamily(t, func(t *testing.T, fam journalFamily) {
		dir := t.TempDir()
		files := fam.files(dir)
		log := Options{Fsync: FsyncAlways, SegmentBytes: 512, Clock: simclock.NewManual(time.Unix(1_700_000_000, 0))}
		rng := rand.New(rand.NewSource(7))

		n := mustOpenJournalNode(t, fam, dir, log, 4)
		submit := func(count int, tag string) {
			t.Helper()
			for i := 0; i < count; i++ {
				n.submit(t, fmt.Sprintf("%s-%d", tag, i))
			}
		}
		submit(9, "first") // two threshold checkpoints and a one-record tail
		if n.j.Checkpoints() != 2 {
			t.Fatalf("%d checkpoints after 9 records at threshold 4, want 2", n.j.Checkpoints())
		}
		damageNewest := func() {
			t.Helper()
			if seqs, err := files.List(); err != nil || len(seqs) < 2 {
				t.Fatalf("checkpoints = %v (%v), want a newest and a fallback", seqs, err)
			}
			flipByte(t, newestCheckpointPath(t, files), 40+rng.Int63n(64))
		}
		for round := 0; round < 2; round++ {
			acknowledged, records := saveBytes(t, n.store), n.records
			damageNewest()
			var err error
			if n, err = openJournalNode(fam, dir, log, 4); err != nil {
				t.Fatalf("round %d: boot after damaging the newest checkpoint: %v", round, err)
			}
			if n.stats.Checkpoint == 0 {
				t.Fatalf("round %d: one damaged checkpoint left nothing to load: %+v", round, n.stats)
			}
			if got := saveBytes(t, n.store); !bytes.Equal(got, acknowledged) {
				t.Fatalf("round %d: store recovered from the fallback differs from the acknowledged one", round)
			}
			n.wantResumedAt(t, records)
			// Past the threshold: this writes a new checkpoint, whose retention
			// pass must keep the one that loaded, not the one that did not.
			submit(5, fmt.Sprintf("round%d", round))
			if n.j.Checkpoints() == 0 {
				t.Fatalf("round %d: no checkpoint after writing past the threshold", round)
			}
		}
		acknowledged, records := saveBytes(t, n.store), n.records

		damageNewest()
		recovered, err := openJournalNode(fam, dir, log, 4)
		if err != nil {
			t.Fatalf("boot after the third damage: %v", err)
		}
		if got := saveBytes(t, recovered.store); !bytes.Equal(got, acknowledged) {
			t.Fatal("store recovered after repeated fallback differs from the acknowledged one")
		}
		recovered.wantResumedAt(t, records)
		if bad, err := files.Quarantined(); err != nil || len(bad) != 3 {
			t.Fatalf("quarantined = %v (%v), want the three damaged files kept", bad, err)
		}
		// The owner can still seal its state.
		if err := recovered.checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := recovered.j.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCrashNoUsableCheckpointRefusesBoot is the regression test for the
// partial registry: with every checkpoint unreadable, replaying the pruned
// log onto an empty store used to "recover" a fraction of the acknowledged
// objects and report success. The boot must be refused with the typed
// error, and keep being refused — nothing is renamed or deleted.
func TestCrashNoUsableCheckpointRefusesBoot(t *testing.T) {
	forEachFamily(t, func(t *testing.T, fam journalFamily) {
		dir := t.TempDir()
		log := Options{Fsync: FsyncAlways, SegmentBytes: 512, Clock: simclock.NewManual(time.Unix(1_700_000_000, 0))}
		n := mustOpenJournalNode(t, fam, dir, log, -1)
		for round := 0; round < 3; round++ {
			for i := 0; i < 6; i++ {
				n.submit(t, fmt.Sprintf("svc-%d-%d", round, i))
			}
			if err := n.checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		files := fam.files(dir)
		seqs, err := files.List()
		if err != nil || len(seqs) != 2 {
			t.Fatalf("checkpoints on disk = %v (%v), want 2", seqs, err)
		}
		for _, seq := range seqs {
			if err := os.WriteFile(filepath.Join(dir, files.Name(seq)), []byte("overwritten"), 0o666); err != nil {
				t.Fatal(err)
			}
		}
		for boot := 0; boot < 2; boot++ {
			victim := store.New()
			_, _, err := OpenJournal(files, victim, log, -1, -1, nil, func([]byte) error { return nil })
			if !errors.Is(err, ErrNoUsableCheckpoint) {
				t.Fatalf("boot %d: err = %v, want ErrNoUsableCheckpoint", boot, err)
			}
			for _, seq := range seqs {
				if !strings.Contains(err.Error(), files.Name(seq)) {
					t.Fatalf("boot %d: error does not name %s: %v", boot, files.Name(seq), err)
				}
			}
			if victim.Len() != 0 {
				t.Fatalf("boot %d: refused boot left %d objects in the store", boot, victim.Len())
			}
		}
		if bad, _ := files.Quarantined(); len(bad) != 0 {
			t.Fatalf("a refused boot quarantined %v", bad)
		}

		// A directory holding only format-1 files is refused by name too, not
		// started empty.
		legacy := t.TempDir()
		if err := os.WriteFile(filepath.Join(legacy, files.Prefix+"-0000000003.json"), []byte(`{"format":1,"segment":1,"offset":0,"snapshot":{}}`), 0o666); err != nil {
			t.Fatal(err)
		}
		_, err = openJournalNode(fam, legacy, log, -1)
		if !errors.Is(err, ErrNoUsableCheckpoint) || !strings.Contains(err.Error(), "format 1") {
			t.Fatalf("format-1 directory: err = %v, want ErrNoUsableCheckpoint naming format 1", err)
		}
	})
}

// TestCrashZeroFilledTailIsTruncated: bytes of the tail segment that were
// written but never synced can read back as zeros after a power loss, and
// eight zero bytes are a well-formed frame — length 0, CRC32C("") = 0. No
// writer produces an empty record, so nothing acknowledged is in such
// bytes: recovery cuts them off like any torn tail, reproduces the
// acknowledged store, and the log goes on from the cut. The follower's
// local log is synced least of all, so it is where this happens most.
func TestCrashZeroFilledTailIsTruncated(t *testing.T) {
	for _, fill := range []int{8, 64, 4096} {
		fill := fill
		t.Run(fmt.Sprintf("zeros=%d", fill), func(t *testing.T) {
			forEachFamily(t, func(t *testing.T, fam journalFamily) {
				t.Parallel()
				rng := rand.New(rand.NewSource(int64(fill)))
				dir := t.TempDir()
				log := Options{Fsync: FsyncAlways, SegmentBytes: 2048, Clock: simclock.NewManual(time.Unix(1_700_000_000, 0))}
				n1 := mustOpenJournalNode(t, fam, dir, log, -1)
				mu := &mutator{t: t, rng: rng, mgr: n1.mgr, ctx: n1.ctx}
				for i := 0; i < 12; i++ {
					mu.step()
					if i == 5 {
						if err := n1.checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
				}
				acknowledged := saveBytes(t, n1.store)
				// The power loss: n1 is abandoned, and behind its last synced
				// record the tail segment reads back as zeros.
				seg, size := tailSegment(t, dir)
				f, err := os.OpenFile(filepath.Join(dir, segmentName(seg)), os.O_WRONLY|os.O_APPEND, 0o666)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(make([]byte, fill)); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}

				n2, err := openJournalNode(fam, dir, log, -1)
				if err != nil {
					t.Fatalf("boot refused over %d zero bytes holding nothing acknowledged: %v", fill, err)
				}
				if got := saveBytes(t, n2.store); !bytes.Equal(got, acknowledged) {
					t.Fatal("recovered store differs from the acknowledged one")
				}
				n2.wantResumedAt(t, n1.records)
				if _, after := tailSegment(t, dir); after != size {
					t.Fatalf("tail segment is %d bytes after recovery, want the %d before the zero fill", after, size)
				}
				n2.submit(t, "post-recovery")
				after := saveBytes(t, n2.store)
				n3 := mustOpenJournalNode(t, fam, dir, log, -1)
				if got := saveBytes(t, n3.store); !bytes.Equal(got, after) {
					t.Fatal("second recovery lost the post-recovery write")
				}
				n3.wantResumedAt(t, n2.records)
			})
		})
	}
}
