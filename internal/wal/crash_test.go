package wal

// The seeded crash-injection harness: the acceptance test for the
// durability subsystem. Each seed drives a random acknowledged mutation
// sequence through a real lcm.Manager wired to a Durable (fsync=always),
// then simulates a kill -9 mid-write by abandoning the Durable without
// Close and tearing the unacknowledged tail record at a random byte
// offset — truncation or a flipped byte, like a half-written sector — or,
// as its own case, leaving zeros behind the last acknowledged record.
// Recovery into a fresh store must reproduce the acknowledged state
// byte-for-byte (store.Save output is deterministic: objects sorted by
// id, content by id, NodeState rows by host, JSON map keys sorted by the
// encoder).

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/lcm"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/store"
	"repro/internal/xacml"
)

func saveBytes(t *testing.T, s *store.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestManager(s *store.Store, clk simclock.Clock, d *Durable) (*lcm.Manager, lcm.Context) {
	m := lcm.New(s, nil, audit.New(s, clk), nil)
	if d != nil {
		m.Durability = d
	}
	return m, lcm.Context{UserID: "crash-tester", Roles: []string{xacml.RoleAdministrator}}
}

// mutator applies one random acknowledged LCM mutation per step, tracking
// live object and content ids so every operation it attempts is valid.
// Invalid life-cycle transitions (approving a deprecated object, …) are
// tolerated as no-ops, and a batch holding one id twice must be refused:
// either way nothing is mutated and nothing appended.
type mutator struct {
	t        *testing.T
	rng      *rand.Rand
	mgr      *lcm.Manager
	ctx      lcm.Context
	ids      []string
	content  []string
	operator string // the last user put directly, for the next to supersede
	n        int
}

func (mu *mutator) pick() string { return mu.ids[mu.rng.Intn(len(mu.ids))] }

func (mu *mutator) drop(id string) {
	for i, v := range mu.ids {
		if v == id {
			mu.ids = append(mu.ids[:i], mu.ids[i+1:]...)
			return
		}
	}
}

func (mu *mutator) submit() {
	var o rim.Object
	switch mu.rng.Intn(3) {
	case 0:
		o = rim.NewService(fmt.Sprintf("svc-%d", mu.n), "crash harness service")
	case 1:
		o = rim.NewOrganization(fmt.Sprintf("org-%d", mu.n))
	default:
		o = rim.NewRegistryPackage(fmt.Sprintf("pkg-%d", mu.n))
	}
	if err := mu.mgr.SubmitObjects(mu.ctx, o); err != nil {
		mu.t.Fatal(err)
	}
	mu.ids = append(mu.ids, o.Base().ID)
}

func (mu *mutator) step() {
	mu.n++
	if len(mu.ids) == 0 {
		mu.submit()
		return
	}
	tolerate := func(err error) {
		if err != nil && !errors.Is(err, lcm.ErrInvalidState) {
			mu.t.Fatal(err)
		}
	}
	switch mu.rng.Intn(14) {
	case 0, 1:
		mu.submit()
	case 11:
		a, b := rim.NewService(fmt.Sprintf("twin-%d", mu.n), ""), rim.NewOrganization(fmt.Sprintf("twin-%d", mu.n))
		b.ID = a.ID
		if err := mu.mgr.SubmitObjects(mu.ctx, a, b); !errors.Is(err, store.ErrExists) {
			mu.t.Fatalf("a batch holding %s twice: %v, want ErrExists", a.ID, err)
		}
	case 12:
		if err := mu.mgr.RemoveSlots(mu.ctx, mu.pick(), fmt.Sprintf("slot-%d", 1+mu.rng.Intn(mu.n))); err != nil {
			mu.t.Fatal(err)
		}
	case 2:
		o, err := mu.mgr.Store.Get(mu.pick())
		if err != nil {
			mu.t.Fatal(err)
		}
		o.Base().Description = rim.NewIString(fmt.Sprintf("edited-%d", mu.n))
		if err := mu.mgr.UpdateObjects(mu.ctx, o); err != nil {
			mu.t.Fatal(err)
		}
	case 3:
		tolerate(mu.mgr.ApproveObjects(mu.ctx, mu.pick()))
	case 4:
		tolerate(mu.mgr.DeprecateObjects(mu.ctx, mu.pick()))
	case 5:
		tolerate(mu.mgr.UndeprecateObjects(mu.ctx, mu.pick()))
	case 6:
		id := mu.pick()
		if err := mu.mgr.RemoveObjects(mu.ctx, id); err != nil {
			mu.t.Fatal(err)
		}
		mu.drop(id)
	case 7:
		if err := mu.mgr.AddSlots(mu.ctx, mu.pick(), rim.Slot{Name: fmt.Sprintf("slot-%d", mu.n), Values: []string{"v"}}); err != nil {
			mu.t.Fatal(err)
		}
	case 8:
		if err := mu.mgr.RelocateObjects(mu.ctx, fmt.Sprintf("urn:home:%d", mu.n), mu.pick()); err != nil {
			mu.t.Fatal(err)
		}
	case 9:
		if len(mu.content) > 0 && mu.rng.Intn(2) == 0 {
			id := mu.content[len(mu.content)-1]
			mu.content = mu.content[:len(mu.content)-1]
			if err := mu.mgr.DeleteContent(id); err != nil {
				mu.t.Fatal(err)
			}
		} else {
			id := rim.NewUUID()
			if err := mu.mgr.PutContent(id, []byte(fmt.Sprintf("blob-%d", mu.n))); err != nil {
				mu.t.Fatal(err)
			}
			mu.content = append(mu.content, id)
		}
	default:
		// As a boot does: the new operator row supersedes the last one, if
		// there is one and it has not been removed since, in one mutation.
		u := rim.NewUser(fmt.Sprintf("user-%d", mu.n), rim.PersonName{FirstName: "Crash", LastName: "Tester"})
		var superseded []string
		if mu.operator != "" {
			superseded = []string{mu.operator}
			mu.drop(mu.operator)
		}
		if err := mu.mgr.SwapDirect(superseded, u); err != nil {
			mu.t.Fatal(err)
		}
		mu.operator = u.ID
		mu.ids = append(mu.ids, u.ID)
	}
}

func tailSegment(t *testing.T, dir string) (uint64, int64) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no segments on disk")
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(filepath.Join(dir, segmentName(last)))
	if err != nil {
		t.Fatal(err)
	}
	return last, fi.Size()
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryEverySeed is the acceptance criterion: for every seed,
// kill the process after an arbitrary acknowledged mutation, tear the
// in-flight WAL record at an arbitrary byte offset, and verify recovery
// reproduces exactly the acknowledged store.
func TestCrashRecoveryEverySeed(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			clk := simclock.NewManual(time.Unix(1_700_000_000, 0))
			opts := DurableOptions{
				Log: Options{Fsync: FsyncAlways, SegmentBytes: int64(256 + rng.Intn(2048)), Clock: clk},
				// Checkpoints happen only where the harness injects them,
				// so the torn record can never ride into one.
				CheckpointBytes:   -1,
				CheckpointRecords: -1,
			}
			s1 := store.New()
			d1, err := OpenDurable(dir, s1, opts)
			if err != nil {
				t.Fatal(err)
			}
			mgr, ctx := newTestManager(s1, clk, d1)
			mu := &mutator{t: t, rng: rng, mgr: mgr, ctx: ctx}
			steps := 1 + rng.Intn(20)
			for i := 0; i < steps; i++ {
				mu.step()
				if rng.Intn(6) == 0 {
					if err := d1.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				clk.Advance(time.Second)
			}
			acknowledged := saveBytes(t, s1)

			// One more mutation whose WAL record we tear: with
			// fsync=always this is the only record a crash can damage.
			// A step may be a tolerated invalid transition that appends
			// nothing (and mutates nothing), so loop until bytes land.
			segBefore, sizeBefore := tailSegment(t, dir)
			segAfter, sizeAfter := segBefore, sizeBefore
			for segAfter == segBefore && sizeAfter == sizeBefore {
				mu.step()
				segAfter, sizeAfter = tailSegment(t, dir)
			}
			start := int64(0)
			if segAfter == segBefore {
				start = sizeBefore
			}
			recLen := sizeAfter - start
			if recLen <= 0 {
				t.Fatalf("in-flight mutation appended no bytes (start=%d, end=%d)", start, sizeAfter)
			}
			path := filepath.Join(dir, segmentName(segAfter))
			if rng.Intn(2) == 0 {
				cut := start + rng.Int63n(recLen) // anywhere in [start, end)
				if err := os.Truncate(path, cut); err != nil {
					t.Fatal(err)
				}
			} else {
				flipByte(t, path, start+rng.Int63n(recLen))
			}
			// d1 is abandoned without Close: the kill -9.

			s2 := store.New()
			d2, err := OpenDurable(dir, s2, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := saveBytes(t, s2); !bytes.Equal(got, acknowledged) {
				t.Fatalf("recovered store differs from acknowledged pre-crash state\n got: %q\nwant: %q", got, acknowledged)
			}

			// The recovered registry accepts writes, and those survive yet
			// another recovery.
			mgr2, ctx2 := newTestManager(s2, clk, d2)
			svc := rim.NewService("post-recovery", "")
			if err := mgr2.SubmitObjects(ctx2, svc); err != nil {
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

// TestWALEquivalentToSnapshotRoundTrip is the satellite property test: a
// store recovered purely from disk (checkpoints + WAL replay, rotation
// and pruning in play) is deep-equal to a Save/Load round-trip of the
// live store — the two persistence paths agree exactly.
func TestWALEquivalentToSnapshotRoundTrip(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			clk := simclock.NewManual(time.Unix(1_700_000_000, 0))
			opts := DurableOptions{
				Log: Options{Fsync: FsyncAlways, SegmentBytes: int64(512 + rng.Intn(1024)), Clock: clk},
				// Aggressive automatic checkpoints so replay starts from a
				// mid-sequence snapshot in most seeds.
				CheckpointBytes:   int64(1024 + rng.Intn(4096)),
				CheckpointRecords: 2 + rng.Intn(8),
			}
			s1 := store.New()
			d1, err := OpenDurable(dir, s1, opts)
			if err != nil {
				t.Fatal(err)
			}
			mgr, ctx := newTestManager(s1, clk, d1)
			mu := &mutator{t: t, rng: rng, mgr: mgr, ctx: ctx}
			for i := 0; i < 30; i++ {
				mu.step()
				clk.Advance(time.Second)
			}
			if rng.Intn(2) == 0 {
				// Half the seeds shut down gracefully (final checkpoint),
				// half crash cleanly on a record boundary.
				if err := d1.Close(); err != nil {
					t.Fatal(err)
				}
			}

			recovered := store.New()
			if _, err := OpenDurable(dir, recovered, opts); err != nil {
				t.Fatal(err)
			}
			roundTripped := store.New()
			if err := roundTripped.Load(bytes.NewReader(saveBytes(t, s1))); err != nil {
				t.Fatal(err)
			}
			got, want := saveBytes(t, recovered), saveBytes(t, roundTripped)
			if !bytes.Equal(got, want) {
				t.Fatalf("WAL recovery and snapshot round-trip disagree\n wal: %q\nsnap: %q", got, want)
			}
		})
	}
}

// TestCrashDueCheckpointHoldsItsRecord: a record is appended before it is
// applied, and the checkpoint its append makes due is stamped as covering
// it — so that checkpoint waits for the bracket's close, when the store
// holds the record. Taken where the append reports it, every checkpoint
// would lack the newest acknowledged object, replay would start behind it,
// and a kill -9 would lose it.
func TestCrashDueCheckpointHoldsItsRecord(t *testing.T) {
	dir := t.TempDir()
	clk := simclock.NewManual(time.Unix(1_700_000_000, 0))
	opts := DurableOptions{Log: Options{Fsync: FsyncAlways, Clock: clk}, CheckpointBytes: -1, CheckpointRecords: 1}
	s1 := store.New()
	d1, err := OpenDurable(dir, s1, opts)
	if err != nil {
		t.Fatal(err)
	}
	mgr, ctx := newTestManager(s1, clk, d1)
	var acknowledged []string
	for i := 0; i < 5; i++ {
		svc := rim.NewService(fmt.Sprintf("svc-%d", i), "")
		if err := mgr.SubmitObjects(ctx, svc); err != nil {
			t.Fatal(err)
		}
		acknowledged = append(acknowledged, svc.ID)
	}
	if d1.Checkpoints() != 5 {
		t.Fatalf("%d checkpoints after 5 records at threshold 1, want 5", d1.Checkpoints())
	}
	// d1 is abandoned without Close: the kill -9.
	s2 := store.New()
	d2, err := OpenDurable(dir, s2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.WAL().Close()
	for i, id := range acknowledged {
		if !s2.Has(id) {
			t.Errorf("acknowledged submit %d of 5 is gone after recovery", i)
		}
	}
	if rec := d2.Recovery(); rec.ReplayedRecords != 0 {
		t.Errorf("recovery replayed %d records behind a checkpoint taken after every one", rec.ReplayedRecords)
	}
	if !bytes.Equal(saveBytes(t, s2), saveBytes(t, s1)) {
		t.Error("recovered store differs from the acknowledged one")
	}
}

// TestDegradedModeIsReadOnlyTyped pins the failure contract: after a
// disk-write failure the registry refuses writes with ErrReadOnly while
// reads keep serving.
func TestDegradedModeIsReadOnlyTyped(t *testing.T) {
	dir := t.TempDir()
	clk := simclock.NewManual(time.Unix(1_700_000_000, 0))
	s := store.New()
	d, err := OpenDurable(dir, s, DurableOptions{Log: Options{Clock: clk}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.WAL().Close()
	mgr, ctx := newTestManager(s, clk, d)
	svc := rim.NewService("survivor", "")
	if err := mgr.SubmitObjects(ctx, svc); err != nil {
		t.Fatal(err)
	}

	d.ForceReadOnly(fmt.Errorf("simulated disk failure"))
	if !d.Degraded() {
		t.Fatal("ForceReadOnly did not degrade")
	}
	before := saveBytes(t, s)
	err = mgr.SubmitObjects(ctx, rim.NewService("rejected", ""))
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write in degraded mode returned %v, want ErrReadOnly", err)
	}
	if err := mgr.PutContent("c1", []byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("content write in degraded mode returned %v, want ErrReadOnly", err)
	}
	// Reads keep serving and the store is untouched.
	if _, err := s.Get(svc.ID); err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, s); !bytes.Equal(got, before) {
		t.Fatal("degraded-mode write mutated the store")
	}
}

// TestCheckpointRetentionAndPrune verifies the space bound: at most two
// checkpoint files survive, WAL segments wholly covered by the retained
// fallback checkpoint are deleted, and recovery still works afterwards.
func TestCheckpointRetentionAndPrune(t *testing.T) {
	dir := t.TempDir()
	clk := simclock.NewManual(time.Unix(1_700_000_000, 0))
	opts := DurableOptions{
		Log:               Options{Fsync: FsyncAlways, SegmentBytes: 128, Clock: clk},
		CheckpointBytes:   -1,
		CheckpointRecords: -1,
	}
	s := store.New()
	d, err := OpenDurable(dir, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	mgr, ctx := newTestManager(s, clk, d)
	for round := 0; round < 4; round++ {
		for i := 0; i < 5; i++ {
			if err := mgr.SubmitObjects(ctx, rim.NewService(fmt.Sprintf("svc-%d-%d", round, i), "retention")); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	files := leaderCheckpoints(dir)
	cps, err := files.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) > 2 {
		t.Fatalf("%d checkpoint files retained, want at most 2", len(cps))
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if first := segs[0]; first <= 1 {
		t.Fatalf("oldest live segment is %d: pruning never ran", first)
	}
	// The oldest retained checkpoint must still have its replay window on
	// disk, or fallback recovery would be incomplete.
	oldest, err := scanCheckpoint(files, cps[0], func(string, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if first := segs[0]; first > oldest.Covers.Segment {
		t.Fatalf("oldest live segment %d is past the fallback checkpoint's position (segment %d)", first, oldest.Covers.Segment)
	}
	want := saveBytes(t, s)
	recovered := store.New()
	if _, err := OpenDurable(dir, recovered, opts); err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, recovered); !bytes.Equal(got, want) {
		t.Fatal("recovery after retention/prune lost state")
	}
}

// TestCrashZeroHoleInSealedSegmentIsCorruption: only the tail can be torn.
// Zeros in the middle of a segment the log moved on from are damage to
// acknowledged records, and recovery refuses them as it refuses any other.
func TestCrashZeroHoleInSealedSegmentIsCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		mustAppend(t, l, []byte(fmt.Sprintf("record-%02d-xxxxxxxxxxxx", i)))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if tail, _ := tailSegment(t, dir); tail < 2 {
		t.Fatal("the log never rotated")
	}
	f, err := os.OpenFile(filepath.Join(dir, segmentName(1)), os.O_WRONLY, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 16), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Replay(Position{}, func(Position, []byte) error { return nil }); err == nil {
		t.Fatal("replay read through a zero-filled hole in a sealed segment")
	}
}
