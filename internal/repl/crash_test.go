package repl

// The every-seed crash harness on the follower's re-log path. The local
// log is synced like the resume cache it is — at rotation, before a local
// checkpoint and at Close, never per record — so a crash may take any
// suffix of it written since. Each seed kills a follower mid-replication,
// cuts its local tail at a random byte or back to the last byte that was
// ever synced, optionally lets the leader prune past it meanwhile, and
// requires the restarted follower to converge byte-identically, applying
// each record once and in order.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/lcm"
	"repro/internal/wal"
)

// localTail is the follower's local tail segment: its index, path and size.
func localTail(t *testing.T, dir string) (uint64, string, int64) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no local segments in %s: %v", dir, err)
	}
	sort.Strings(names)
	path := names[len(names)-1]
	var seg uint64
	if _, err := fmt.Sscanf(filepath.Base(path), "wal-%016d.seg", &seg); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return seg, path, fi.Size()
}

// orderedPoll is f.Poll failing the test when a call did not apply the
// records after the last one f applied, in order: the applied sequence
// number must move by exactly the count applied, unless the call
// re-bootstrapped, which starts a new line.
func orderedPoll(t *testing.T, f *Follower) func(context.Context) (int, error) {
	return func(ctx context.Context) (int, error) {
		before := f.Stats()
		n, err := f.Poll(ctx)
		if after := f.Stats(); after.Rebootstraps == before.Rebootstraps && after.AppliedSeq != before.AppliedSeq+uint64(n) {
			t.Errorf("applied %d records moving seq %d -> %d: a record was skipped or applied again", n, before.AppliedSeq, after.AppliedSeq)
		}
		return n, err
	}
}

func TestReplCrashFollowerRelogEverySeed(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			n := newLeaderNode(t, t.TempDir(), wal.DurableOptions{
				Log:             wal.Options{SegmentBytes: int64(1024 + rng.Intn(8192)), Fsync: wal.FsyncNever},
				CheckpointBytes: -1, CheckpointRecords: -1,
			})
			defer n.d.Close()
			var ids []string
			mutate := func(times int) {
				for ; times > 0; times-- {
					switch {
					case len(ids) < 2 || rng.Intn(3) > 0:
						ids = append(ids, n.submit(fmt.Sprintf("seed%d-svc-%d", seed, len(ids))))
					case rng.Intn(2) == 0:
						if err := n.mgr.DeprecateObjects(n.lctx, ids[rng.Intn(len(ids))]); err != nil && !errors.Is(err, lcm.ErrInvalidState) {
							t.Fatal(err)
						}
					default:
						i := rng.Intn(len(ids))
						if err := n.mgr.RemoveObjects(n.lctx, ids[i]); err != nil {
							t.Fatal(err)
						}
						ids = append(ids[:i], ids[i+1:]...)
					}
				}
			}
			mutate(3 + rng.Intn(10))
			if err := n.d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(n.handler())
			defer srv.Close()

			// The follower's clock never moves, so the interval rule never
			// fires: what syncs its local log is rotation and checkpoints.
			fdir := t.TempDir()
			segmentBytes, every, batch := int64(2048+rng.Intn(8192)), 2+rng.Intn(8), 1+rng.Intn(4)
			tweak := func(o *FollowerOptions) {
				o.Log = wal.Options{SegmentBytes: segmentBytes, Fsync: wal.FsyncInterval}
				o.CheckpointRecords, o.CheckpointBytes = every, -1
				o.MaxBatch = batch
			}
			ctx := context.Background()
			f := newFollower(t, fdir, srv.URL, srv.Client(), tweak)
			poll := orderedPoll(t, f)
			if err := f.Bootstrap(ctx); err != nil {
				t.Fatal(err)
			}
			for rounds := 2 + rng.Intn(6); rounds > 0; rounds-- {
				mutate(1 + rng.Intn(6))
				for polls := rng.Intn(4); polls > 0; polls-- {
					if _, err := poll(ctx); err != nil {
						t.Fatal(err)
					}
				}
			}

			// kill -9 and power loss: f is abandoned, and of its local tail
			// only what a checkpoint or a rotation synced is sure to be there.
			covered := f.journal.CheckpointPos()
			seg, path, size := localTail(t, fdir)
			synced := int64(0)
			if covered.Segment == seg {
				synced = covered.Offset
			}
			switch rng.Intn(3) {
			case 0: // the whole un-synced suffix
				if err := os.Truncate(path, synced); err != nil {
					t.Fatal(err)
				}
			case 1: // torn at a random byte of it
				if err := os.Truncate(path, synced+rng.Int63n(size-synced+1)); err != nil {
					t.Fatal(err)
				}
			default: // the process died, the page cache did not
			}
			_, _, left := localTail(t, fdir)
			resumeFrom := f.Stats().Applied

			// Meanwhile the leader moves on — in half the seeds far enough to
			// prune the segment the follower would resume in.
			mutate(rng.Intn(5))
			if rng.Intn(2) == 0 {
				for i := 0; i < 2; i++ {
					mutate(4 + rng.Intn(8))
					if err := n.d.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			mutate(rng.Intn(5))

			f2 := newFollower(t, fdir, srv.URL, srv.Client(), tweak)
			defer f2.Close()
			if f2.Cold() {
				t.Fatal("the bootstrap's local checkpoint did not survive the crash")
			}
			at := f2.Stats().Applied
			if resumeFrom.Less(at) {
				t.Fatalf("restarted at %s, past the %s the dead follower had applied", at, resumeFrom)
			}
			catchUp(t, f2, n)
			assertConverged(t, n, f2)
			st := f2.Stats()
			if st.LagRecords != 0 || st.ErrorsTotal != 0 {
				t.Fatalf("converged follower: %+v", st)
			}
			t.Logf("local tail %d bytes, %d synced, %d after the crash; died at %s, resumed at %s, %d re-sent, %d re-bootstraps",
				size, synced, left, resumeFrom, at, st.AppliedTotal, st.Rebootstraps)
		})
	}
}
