package wal

// Old data boots. testdata/golden/datadir is a leader data directory written
// by the binary of commit b6b46f2 — the last whose only decoder of stored
// bytes was encoding/json — and testdata/golden/recovered.snapshot is
// store.Save of what that binary recovered from it.
//
// Both were written by a throwaway test in a scratch checkout of that commit
// (git archive b6b46f2 | tar -x -C /root/scratch/golden), not by anything in
// this tree. It opened an empty directory with OpenDurable (FsyncAlways,
// automatic checkpoints off, a manual clock at 2011-04-22T02:00:00Z advanced
// one second per call) and drove an lcm.Manager hooked to it:
//
//   - checkpointed: SubmitObjects of the organization "San Diego State
//     University", the service "ServiceAdder" (the thesis' <constraint> block
//     in its description, four bindings, a slot "copyright" = "SDSU <2011> &
//     friends") and the one-binding service "NodeStatus"; an OffersService
//     association between the first two; a RegistryPackage; a
//     ClassificationScheme; an ExtrinsicObject "Adder.wsdl" and PutContent of
//     its bytes, which hold 0x00 and 0xff; PutDirect of a User;
//     ApproveObjects of ServiceAdder; a service named "Añadir-数" with no
//     constraint; two NodeState rows, one with Failures set; Checkpoint.
//   - left in the log: SubmitObjects of a constrained one-binding
//     "ServiceMultiplier"; UpdateObjects of NodeStatus with a constrained
//     description and a second binding; RemoveObjects of the package;
//     PutContent of "urn:content:late".
//
// The directory was abandoned without Close, so the tail stayed a tail;
// recovered.snapshot is Save of a second OpenDurable over a copy of it.
// Whoever changes a stored byte on purpose regenerates both the same way,
// from the commit before the change.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoldenDataDirRecoversToTheSameBytes: this build recovers the old
// directory — a checkpoint of 16 objects, a content item and two NodeState
// rows, then a log tail of a submit, an update, a delete and a content put —
// to the store the old build recovered, and saves it to the bytes the old
// build saved: nothing on disk moved, in either direction.
func TestGoldenDataDirRecoversToTheSameBytes(t *testing.T) {
	golden := filepath.Join("testdata", "golden")
	want, err := os.ReadFile(filepath.Join(golden, "recovered.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() // recovery may truncate and will append: not in testdata
	copyDir(t, filepath.Join(golden, "datadir"), dir)
	s := store.New()
	d, err := OpenDurable(dir, s, DurableOptions{Log: Options{Fsync: FsyncNever}, CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.WAL().Close()
	if rec := d.Recovery(); rec.Checkpoint != 1 || rec.Frames != 19 || rec.ReplayedRecords != 4 {
		t.Fatalf("recovery read %+v, want checkpoint 1 of 19 frames and 4 records", rec)
	}
	if got := saveBytes(t, s); !bytes.Equal(got, want) {
		t.Fatalf("recovered store saves to %d bytes that differ from the %d the writing build saved", len(got), len(want))
	}
	// And what this build writes, it reads back the same.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	again := store.New()
	if _, err := leaderCheckpoints(dir).load(2, again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, again), want) {
		t.Fatal("a checkpoint of the recovered store does not load back to it")
	}
}
