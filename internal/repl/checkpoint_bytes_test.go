package repl

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/rim"
	"repro/internal/store"
	"repro/internal/store/storetest"
	"repro/internal/taxonomy"
	"repro/internal/wal"
)

// TestWALEquivalentCheckpointBytes: a store keeps the JSON each object
// arrived as, and Save copies it instead of encoding the object. On every
// way an object enters a store the checkpoint must still be, byte for byte,
// the one encoding every object afresh writes (storetest.SaveReference).
// One scripted history drives them all:
//
//   - the taxonomy seed's Put, which brings no bytes;
//   - a leader with a log: submit (of an organization and an association
//     too), update, delete, a content put, and an id that comes back by Put
//     after its delete, again without bytes;
//   - a follower that bootstraps from the leader's checkpoint and then
//     applies the records behind it back to back through Poll, which reads
//     every record into one reused frame buffer;
//   - a reboot of the leader that loads the checkpoint and replays the log
//     behind it, which also reuses its read buffer.
//
// A store that kept a record's bytes without copying them, kept an old
// version's bytes across an update, or kept a deleted object's bytes for a
// later object of the same id, saves something else.
func TestWALEquivalentCheckpointBytes(t *testing.T) {
	opts := wal.DurableOptions{Log: wal.Options{Fsync: wal.FsyncNever}, CheckpointBytes: -1, CheckpointRecords: -1}
	n := newLeaderNode(t, t.TempDir(), opts)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	equivalent := func(who string, s *store.Store) []byte {
		t.Helper()
		var ref bytes.Buffer
		must(storetest.SaveReference(s, &ref))
		got := saveBytes(t, s)
		if !bytes.Equal(got, ref.Bytes()) {
			t.Fatalf("%s: Save writes %d bytes, encoding every object afresh %d; they differ", who, len(got), ref.Len())
		}
		return got
	}
	service := func(name string, bindings int) *rim.Service {
		svc := rim.NewService(name, fmt.Sprintf("%s <constraint><cpuLoad>load ls 1.5</cpuLoad></constraint>", name))
		for i := 0; i < bindings; i++ {
			svc.AddBinding(fmt.Sprintf("http://h%d.sdsu.edu:8080/%s", i, name))
		}
		return svc
	}
	update := func(svc *rim.Service, description string) {
		t.Helper()
		svc.Description = rim.NewIString(description)
		must(n.mgr.UpdateObjects(n.lctx, svc))
	}

	_, err := taxonomy.Seed(n.store)
	must(err)
	// Organizations and associations are encoded by json.Marshal, not an
	// appender; a follower decodes the one behind the checkpoint through
	// json.Unmarshal and keeps no bytes of it.
	alpha, beta := service("alpha", 3), service("beta", 2)
	org := rim.NewOrganization("SDSU")
	must(n.mgr.SubmitObjects(n.lctx, org, alpha, beta, rim.NewAssociation(rim.AssocOffersService, org.ID, alpha.ID)))
	update(alpha, "alpha, described again at greater length <constraint><cpuLoad>load ls 0.5</cpuLoad></constraint>")
	must(n.mgr.RemoveObjects(n.lctx, beta.ID))
	beta.Description = rim.NewIString("beta, back under its old id")
	must(n.store.Put(beta))
	must(n.mgr.PutContent("urn:content:alpha", []byte("<definitions/>\x00\xff")))
	equivalent("leader", n.store)
	must(n.d.Checkpoint())

	// The log behind the checkpoint: what the follower streams and the
	// reboot replays.
	gamma := service("gamma", 4)
	must(n.mgr.SubmitObjects(n.lctx, gamma, rim.NewAssociation(rim.AssocOffersService, org.ID, gamma.ID)))
	update(alpha, "alpha, third version")
	update(gamma, "gamma, second version with a description long enough to outgrow the first")

	srv := httptest.NewServer(n.handler())
	defer srv.Close()
	f := newFollower(t, t.TempDir(), srv.URL, srv.Client(), nil)
	defer f.Close()
	ctx := context.Background()
	must(f.Bootstrap(ctx))
	equivalent("bootstrapped follower", f.store)
	poll := func() {
		t.Helper()
		applied, err := orderedPoll(t, f)(ctx)
		must(err)
		if applied < 2 {
			t.Fatalf("one Poll applied %d records, want them back to back", applied)
		}
	}
	poll()
	leader := equivalent("leader", n.store)
	if got := equivalent("follower", f.store); !bytes.Equal(got, leader) {
		t.Fatal("the follower's checkpoint differs from the leader's")
	}

	delta := service("delta", 1)
	must(n.mgr.SubmitObjects(n.lctx, delta))
	update(alpha, "alpha, fourth")
	must(n.mgr.RemoveObjects(n.lctx, gamma.ID))
	poll()
	leader = equivalent("leader", n.store)
	if got := equivalent("follower", f.store); !bytes.Equal(got, leader) {
		t.Fatal("the follower's checkpoint differs from the leader's")
	}

	// A crash: the log is closed where it stands, with no checkpoint.
	must(n.d.WAL().Close())
	rebooted := store.New()
	d, err := wal.OpenDurable(n.dir, rebooted, opts)
	must(err)
	defer d.Close()
	if rec := d.Recovery(); rec.ReplayedRecords < 2 {
		t.Fatalf("the reboot replayed %d records, want the log behind the checkpoint", rec.ReplayedRecords)
	}
	if got := equivalent("rebooted leader", rebooted); !bytes.Equal(got, leader) {
		t.Fatal("the rebooted leader's checkpoint differs from the one before the crash")
	}
}
