package wal

// Checkpoint damage: the seeded harness of crash_test.go turned on the
// newest checkpoint file instead of the in-flight record. The two recovery
// rules that follow from it — nothing usable refuses the boot, a fallback
// keeps the file that really loaded — hold for either family and are in
// journal_test.go.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/store"
)

func manualOpts(clk simclock.Clock) DurableOptions {
	return DurableOptions{
		Log:               Options{Fsync: FsyncAlways, SegmentBytes: 512, Clock: clk},
		CheckpointBytes:   -1,
		CheckpointRecords: -1,
	}
}

// damage truncates or flips one byte of the file at a seeded offset; every
// third call aims inside a JSON string value, the damage a JSON document
// without checksums loads without complaint.
func damage(t *testing.T, rng *rand.Rand, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	switch rng.Intn(3) {
	case 0:
		cut := rng.Int63n(int64(len(data)))
		if err := os.Truncate(path, cut); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("truncated to %d of %d bytes", cut, len(data))
	case 1:
		off := rng.Int63n(int64(len(data)))
		flipByte(t, path, off)
		return fmt.Sprintf("byte %d of %d flipped", off, len(data))
	default:
		at := bytes.Index(data, []byte("crash harness"))
		if at < 0 {
			at = bytes.Index(data, []byte("urn:uuid:"))
		}
		if at < 0 {
			t.Fatal("checkpoint holds no string to damage")
		}
		data[at+rng.Intn(8)] ^= 0x01 // still a letter: valid JSON, different value
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("letter changed inside the string at %d", at)
	}
}

// TestCrashRecoveryDamagedCheckpointEverySeed: for every seed, crash after
// an arbitrary acknowledged mutation with the newest checkpoint damaged at
// an arbitrary offset. Recovery must fall back to the older checkpoint
// plus the log and reproduce the acknowledged store byte for byte, set the
// damaged file aside, and keep accepting writes that survive the next boot.
func TestCrashRecoveryDamagedCheckpointEverySeed(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed ^ 0xc4ec))
			dir := t.TempDir()
			clk := simclock.NewManual(time.Unix(1_700_000_000, 0))
			opts := manualOpts(clk)
			opts.Log.SegmentBytes = int64(256 + rng.Intn(2048))
			s1 := store.New()
			d1, err := OpenDurable(dir, s1, opts)
			if err != nil {
				t.Fatal(err)
			}
			mgr, ctx := newTestManager(s1, clk, d1)
			mu := &mutator{t: t, rng: rng, mgr: mgr, ctx: ctx}
			// Two checkpoints at least, so there is one to fall back to;
			// mutations before, between and after them.
			for round := 0; round < 2+rng.Intn(2); round++ {
				for i := 0; i < 1+rng.Intn(8); i++ {
					mu.step()
					clk.Advance(time.Second)
				}
				if err := d1.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < rng.Intn(6); i++ {
				mu.step()
			}
			acknowledged := saveBytes(t, s1)
			bad := newestCheckpointPath(t, leaderCheckpoints(dir))
			how := damage(t, rng, bad)
			// d1 is abandoned without Close: the kill -9.

			s2 := store.New()
			d2, err := OpenDurable(dir, s2, opts)
			if err != nil {
				t.Fatalf("%s: %v", how, err)
			}
			if got := saveBytes(t, s2); !bytes.Equal(got, acknowledged) {
				t.Fatalf("%s: recovered store differs from the acknowledged one", how)
			}
			if _, err := os.Stat(bad + ".corrupt"); err != nil {
				t.Fatalf("%s: damaged checkpoint not quarantined: %v", how, err)
			}
			if _, err := os.Stat(bad); !os.IsNotExist(err) {
				t.Fatalf("%s: damaged checkpoint still in place (%v)", how, err)
			}

			mgr2, ctx2 := newTestManager(s2, clk, d2)
			if err := mgr2.SubmitObjects(ctx2, rim.NewService("post-recovery", "")); err != nil {
				t.Fatal(err)
			}
			if err := d2.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			after := saveBytes(t, s2)
			s3 := store.New()
			if _, err := OpenDurable(dir, s3, opts); err != nil {
				t.Fatal(err)
			}
			if got := saveBytes(t, s3); !bytes.Equal(got, after) {
				t.Fatal("second recovery lost the post-recovery write")
			}
		})
	}
}

// FuzzReadCheckpointHeader: the header decoder never panics, and accepts
// nothing but the bytes the encoder writes for the words it returns.
func FuzzReadCheckpointHeader(f *testing.F) {
	leader, follower := checkpointHeader(3, 4096), checkpointHeader(3, 4096, 77, 1, 128)
	flipped := append([]byte(nil), leader...)
	flipped[13] ^= 0x40
	f.Add(leader, uint8(2))
	f.Add(follower, uint8(5))
	f.Add(leader, uint8(5))
	f.Add(leader[:20], uint8(2))
	f.Add(flipped, uint8(2))
	f.Add([]byte(`{"format":1,"segment":1,"offset":0,"snapshot":{}}`), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		words, err := readCheckpointHeader(bytes.NewReader(data), int(n%8))
		if err != nil {
			return
		}
		if want := checkpointHeader(words...); !bytes.HasPrefix(data, want) {
			t.Fatalf("accepted %x, which is not the header of %v", data, words)
		}
	})
}

// TestInspectAndDumpCheckpoints: the offline tools read the same bytes
// through the same decoder — a whole checkpoint reports its frames and the
// position it covers, a damaged one the frame it broke at, a quarantined
// one is listed, and the dump names every stored object.
func TestInspectAndDumpCheckpoints(t *testing.T) {
	dir := t.TempDir()
	clk := simclock.NewManual(time.Unix(1_700_000_000, 0))
	opts := manualOpts(clk)
	s := store.New()
	d, err := OpenDurable(dir, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	mgr, ctx := newTestManager(s, clk, d)
	want := map[string]bool{}
	for round := 0; round < 3; round++ {
		svc := rim.NewService(fmt.Sprintf("svc-%d", round), "")
		if err := mgr.SubmitObjects(ctx, svc); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.PutContent("blob", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, o := range s.All() {
		want[o.Base().ID] = true
	}
	want["blob"] = true

	if err := DumpCheckpoint(dir, func(f FrameInfo) error {
		if !want[f.ID] {
			t.Errorf("dump lists %s %q, which the store does not hold", f.Kind, f.ID)
		}
		delete(want, f.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) != 0 {
		t.Fatalf("dump missed %v", want)
	}

	// Damage the newest, quarantine-style rename the older one.
	files := leaderCheckpoints(dir)
	seqs, _ := files.List()
	newest, older := filepath.Join(dir, files.Name(seqs[1])), filepath.Join(dir, files.Name(seqs[0]))
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, newest, fi.Size()/2)
	if err := os.Rename(older, older+".corrupt"); err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Checkpoints) != 1 || len(info.Quarantined) != 1 || info.Quarantined[0] != files.Name(seqs[0])+".corrupt" {
		t.Fatalf("inspect lists checkpoints %+v, quarantined %v", info.Checkpoints, info.Quarantined)
	}
	c := info.Checkpoints[0]
	if c.Format != CheckpointFormat || c.Covers != d.CheckpointPos() || c.Bytes != fi.Size() ||
		!strings.Contains(c.Err, "checksum mismatch") || !strings.Contains(c.Err, "at offset") || c.Frames == 0 {
		t.Fatalf("inspect of the damaged checkpoint = %+v", c)
	}
}
