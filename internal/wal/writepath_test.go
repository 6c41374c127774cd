package wal

// A mutation is visible whole or not at all, on the leader that computes it
// and on whatever applies its record: both end in one Store.Apply, which
// takes the store's lock once. Run under -race (make crashcheck).

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/store"
)

// during calls check over and over on a second goroutine for as long as
// write runs, and at least once.
func during(t *testing.T, check func(), write func() error) {
	t.Helper()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			check()
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	err := write()
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
}

// TestWritePathSwapIsWholeToReaders: every boot swaps the operator row, and
// a reader must never find the registry without an operator or with two —
// while the leader swaps, and while the same records are replayed.
func TestWritePathSwapIsWholeToReaders(t *testing.T) {
	const alias, swaps = "RegistryOperator", 1000
	clk := simclock.NewManual(time.Unix(1_700_000_000, 0))
	oneOperator := func(s *store.Store, role string) func() {
		return func() {
			if rows := s.FindByName(rim.TypeUser, alias); len(rows) != 1 {
				t.Errorf("%s: a reader saw %d operator rows, want exactly 1", role, len(rows))
			}
		}
	}

	live := store.New()
	d, err := OpenDurable(t.TempDir(), live, DurableOptions{Log: Options{Fsync: FsyncNever, Clock: clk}, CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.WAL().Close()
	mgr, _ := newTestManager(live, clk, d)
	operator := rim.NewUser(alias, rim.PersonName{})
	if err := mgr.PutDirect(operator); err != nil {
		t.Fatal(err)
	}
	during(t, oneOperator(live, "leader"), func() error {
		for i := 0; i < swaps && !t.Failed(); i++ {
			next := rim.NewUser(alias, rim.PersonName{})
			if err := mgr.SwapDirect([]string{operator.ID}, next); err != nil {
				return err
			}
			operator = next
		}
		return nil
	})

	var records [][]byte
	err = d.WAL().Replay(Position{}, func(_ Position, payload []byte) error {
		records = append(records, append([]byte(nil), payload...))
		return nil
	})
	if err != nil || len(records) != swaps+1 {
		t.Fatalf("read %d records back (%v), want %d", len(records), err, swaps+1)
	}
	replayed := store.New()
	if _, err := ApplyRecord(replayed, records[0]); err != nil {
		t.Fatal(err)
	}
	during(t, oneOperator(replayed, "replay"), func() error {
		for _, payload := range records[1:] {
			if _, err := ApplyRecord(replayed, payload); err != nil {
				return err
			}
		}
		return nil
	})
	if !bytes.Equal(saveBytes(t, replayed), saveBytes(t, live)) {
		t.Fatal("the replayed store differs from the leader's")
	}
}

// TestWritePathCascadeIsWholeToReaders: an organization, the service it
// offers and the association between them are submitted as one batch and
// removed by one cascade; a reader that looks at all three under one lock
// sees three or none.
func TestWritePathCascadeIsWholeToReaders(t *testing.T) {
	s := store.New()
	mgr, ctx := newTestManager(s, simclock.NewManual(time.Unix(1_700_000_000, 0)), nil)
	allOrNone := func() {
		if n := len(s.ByOwner(ctx.UserID)); n != 0 && n != 3 {
			t.Errorf("a reader saw %d of the organization, its service and their association", n)
		}
	}
	during(t, allOrNone, func() error {
		for i := 0; i < 300 && !t.Failed(); i++ {
			org, svc := rim.NewOrganization(fmt.Sprintf("org-%d", i)), rim.NewService(fmt.Sprintf("svc-%d", i), "")
			if err := mgr.SubmitObjects(ctx, org, svc, rim.NewAssociation(rim.AssocOffersService, org.ID, svc.ID)); err != nil {
				return err
			}
			if err := mgr.RemoveObjects(ctx, org.ID); err != nil {
				return err
			}
		}
		return nil
	})
}
