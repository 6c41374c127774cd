package registry

// The registry's store is a replay of its log: a write is computed, then
// logged, then applied, so one that is refused — by validation or by the
// disk — leaves nothing behind, and nothing a registry serves is missing
// from its log. Part of make crashcheck.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/rim"
	"repro/internal/sqlq"
	"repro/internal/store"
	"repro/internal/wal"
)

func savedStore(t *testing.T, s *store.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recoveredStore is what a boot would find in dir, before its own writes.
func recoveredStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s := store.New()
	d, err := wal.OpenDurable(dir, s, wal.DurableOptions{Log: wal.Options{Fsync: wal.FsyncNever}, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWritePathRefusedWriteLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	reg := newDurableRegistry(t, dir)
	ctx := reg.AdminContext()
	if err := reg.LCM.SubmitObjects(ctx, rim.NewService("kept", "")); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	token := registerAndLogin(t, srv.Client(), srv.URL, "writer")
	sess, err := reg.SessionContext(token)
	if err != nil {
		t.Fatal(err)
	}
	own := rim.NewService("own", "")
	if err := reg.LCM.SubmitObjects(sess, own); err != nil {
		t.Fatal(err)
	}
	before, appends := savedStore(t, reg.Store), reg.Durable.WAL().Appends()
	unchanged := func(why string) {
		t.Helper()
		if got := reg.Durable.WAL().Appends(); got != appends {
			t.Errorf("%s: %d records appended", why, got-appends)
		}
		if !bytes.Equal(savedStore(t, reg.Store), before) {
			t.Errorf("%s: the live store changed", why)
		}
		if !bytes.Equal(savedStore(t, recoveredStore(t, dir)), before) {
			t.Errorf("%s: a reboot recovers a store that differs from the live one", why)
		}
	}

	// Refused by validation: one id twice in a batch.
	a, b := rim.NewService("a", ""), rim.NewService("b", "")
	b.ID = a.ID
	if err := reg.LCM.SubmitObjects(ctx, a, b); !errors.Is(err, store.ErrExists) {
		t.Fatalf("a batch holding one id twice: %v, want ErrExists", err)
	}
	if reg.Store.Has(a.ID) {
		t.Error("the refused batch left its first object in the store")
	}
	unchanged("refused batch")

	// Refused by the request context: a SOAP submit or update whose budget
	// ran out after dispatch, in the session lookup or the decode, reaches
	// the manager with its context done and is refused there.
	spent, cancel := context.WithCancel(context.Background())
	cancel()
	late, err := ToWire(rim.NewService("late", ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.doSubmit(spent, &SubmitObjectsRequest{Session: token, Objects: []WireObject{*late}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("submit with a spent request context: %v, want context.Canceled", err)
	}
	edited, err := ToWire(own)
	if err != nil {
		t.Fatal(err)
	}
	edited.Description = "edited"
	if _, err := reg.doUpdate(spent, &UpdateObjectsRequest{Session: token, Objects: []WireObject{*edited}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("update with a spent request context: %v, want context.Canceled", err)
	}
	unchanged("spent request context")

	// Refused by the disk: the append fails, so nothing is applied either.
	if err := reg.Durable.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	unlogged := rim.NewService("unlogged", "")
	if err := reg.LCM.SubmitObjects(ctx, unlogged); !errors.Is(err, wal.ErrReadOnly) {
		t.Fatalf("submit over a closed log: %v, want ErrReadOnly", err)
	}
	if !reg.Durable.Degraded() {
		t.Error("a failed append did not degrade the registry")
	}
	if reg.Store.Has(unlogged.ID) {
		t.Error("a write whose append failed is being served")
	}
	unchanged("failed append")
}

// TestWritePathStoredQueryReplicatesAndSurvivesRestart: a stored
// parameterized query is an AdhocQuery submitted like any other object, so
// it is in the log: invocable by name on the leader, on a follower, and
// after a restart.
func TestWritePathStoredQueryReplicatesAndSurvivesRestart(t *testing.T) {
	const name = "FindServicesByName"
	query := func() *rim.AdhocQuery {
		return rim.NewAdhocQuery(name, "SQL-92", "SELECT s.id, s.name FROM Service s WHERE s.name LIKE $name ORDER BY s.name")
	}
	invoke := func(role string, reg *Registry) {
		t.Helper()
		resp, err := reg.QM.InvokeStoredQuery(name, map[string]sqlq.Value{"name": "Service%"}, 0, 10)
		if err != nil || resp.TotalResultsCount != 1 || resp.Rows[0][1] != "ServiceAdder" {
			t.Fatalf("%s: stored query = %+v, %v; want the one ServiceAdder row", role, resp, err)
		}
	}

	leader, _, follower, _, f := newReplPair(t)
	if err := leader.LCM.SubmitObjects(leader.AdminContext(), query(), rim.NewService("ServiceAdder", "")); err != nil {
		t.Fatal(err)
	}
	invoke("leader", leader)
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	followerCatchUp(t, f, leader)
	invoke("follower", follower)

	dir := t.TempDir()
	first := newDurableRegistry(t, dir)
	if err := first.LCM.SubmitObjects(first.AdminContext(), query(), rim.NewService("ServiceAdder", "")); err != nil {
		t.Fatal(err)
	}
	bad := rim.NewAdhocQuery("bad", "XQuery", "x")
	if err := first.LCM.SubmitObjects(first.AdminContext(), bad); err == nil || first.Store.Has(bad.ID) {
		t.Fatalf("a query in a syntax the registry cannot run was stored: %v", err)
	}
	// kill -9: first is abandoned without Close.
	invoke("rebooted", newDurableRegistry(t, dir))
}

// TestWritePathConcurrentUpdatesLoseNothing: an in-memory registry has no
// durability bracket, and its read-modify-write operations serialise on the
// manager's own lock all the same.
func TestWritePathConcurrentUpdatesLoseNothing(t *testing.T) {
	reg := newRegistry(t)
	ctx := reg.AdminContext()
	svc := rim.NewService("contended", "")
	if err := reg.LCM.SubmitObjects(ctx, svc); err != nil {
		t.Fatal(err)
	}
	const writers, each = 2, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := reg.LCM.AddSlots(ctx, svc.ID, rim.Slot{Name: fmt.Sprintf("w%d-%d", w, i), Values: []string{"v"}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, err := reg.Store.Get(svc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got.Base().Slots); n != writers*each {
		t.Fatalf("%d slots survive %d concurrent AddSlots, want every one", n, writers*each)
	}
}
