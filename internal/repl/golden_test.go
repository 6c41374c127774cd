package repl

// An old follower resumes. testdata/golden/statedir is a follower state
// directory written by the binary of commit d72fba4 — the last in which the
// follower ran its own recovery, thresholds and checkpoint sequence rather
// than wal.Journal's — testdata/golden/recovered.snapshot is store.Save of
// what that binary recovered from it, and testdata/golden/sealed.ckpt is the
// replckpt-0000000003.ckpt its Close then wrote.
//
// All three were written by a throwaway test in a scratch clone of that
// commit (git clone, package repl, using this suite's newLeaderNode and
// newFollower), not by anything in this tree. A leader (FsyncAlways,
// automatic checkpoints off, manual clock at 2011-04-22T02:00:00Z advanced
// one second per call) took SubmitObjects of the organization "San Diego
// State University", of the service "ServiceAdder" (the thesis' <constraint>
// block in its description, four bindings, a slot "copyright" = "SDSU <2011>
// & friends"), of the one-binding service "NodeStatus" and of a
// RegistryPackage, PutContent of "urn:content:Adder.wsdl" with bytes 0x00
// and 0xff in it, and a Checkpoint. A follower (CheckpointRecords 3, bytes
// off) bootstrapped from it — replckpt-0000000001 — and then tailed five
// more records: SubmitObjects of a constrained one-binding
// "ServiceMultiplier"; UpdateObjects of NodeStatus with a constrained
// description and a second binding; SubmitObjects of "Añadir-数";
// ApproveObjects of ServiceAdder; PutContent of "urn:content:late". The third
// wrote replckpt-0000000002, the last two stayed a local tail, and the
// directory was abandoned without Close. recovered.snapshot and sealed.ckpt
// come from a second OpenFollower (thresholds off) over a copy of it.
// Whoever changes a stored byte on purpose regenerates all three the same
// way, from the commit before the change.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wal"
)

func TestReplGoldenStateDirResumesToTheSameBytes(t *testing.T) {
	golden := filepath.Join("testdata", "golden")
	want, err := os.ReadFile(filepath.Join(golden, "recovered.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := os.ReadFile(filepath.Join(golden, "sealed.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	wantApplied, wantSeq := wal.Position{Segment: 1, Offset: 18406}, uint64(10)
	thresholdsOff := func(o *FollowerOptions) { o.CheckpointBytes, o.CheckpointRecords = -1, -1 }

	open := func(t *testing.T, damageNewest bool) (*Follower, string) {
		t.Helper()
		dir := t.TempDir() // recovery may truncate, Close will write: not in testdata
		entries, err := os.ReadDir(filepath.Join(golden, "statedir"))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(golden, "statedir", e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if damageNewest && e.Name() == followerCheckpoints(dir).Name(2) {
				b[len(b)/2] ^= 0x20
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		f := newFollower(t, dir, "http://leader.invalid", nil, thresholdsOff)
		if st := f.Stats(); f.Cold() || st.Applied != wantApplied || st.AppliedSeq != wantSeq {
			t.Fatalf("resumed cold=%v at %s seq %d, want %s seq %d as the writing build did", f.Cold(), st.Applied, st.AppliedSeq, wantApplied, wantSeq)
		}
		if got := saveBytes(t, f.store); !bytes.Equal(got, want) {
			t.Fatalf("recovered store saves to %d bytes that differ from the %d the writing build saved", len(got), len(want))
		}
		return f, dir
	}

	// The newest checkpoint and the two local records behind it; and what
	// this build then writes is, byte for byte, what the old one wrote.
	t.Run("whole", func(t *testing.T) {
		f, dir := open(t, false)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, followerCheckpoints(dir).Name(3)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, sealed) {
			t.Fatalf("Close wrote a checkpoint of %d bytes that differs from the %d-byte one the writing build wrote", len(got), len(sealed))
		}
		again := newFollower(t, dir, "http://leader.invalid", nil, thresholdsOff)
		defer again.Close()
		if st := again.Stats(); st.Applied != wantApplied || st.AppliedSeq != wantSeq || !bytes.Equal(saveBytes(t, again.store), want) {
			t.Fatalf("the sealed directory reopens at %s seq %d", st.Applied, st.AppliedSeq)
		}
	})

	// The quarantine rule on the follower's own family: a damaged newest
	// local checkpoint is set aside and the bootstrap's plus all five local
	// records restore the same position, without asking the leader for
	// anything; the next checkpoint keeps the file that loaded.
	t.Run("newest damaged", func(t *testing.T) {
		f, dir := open(t, true)
		files := followerCheckpoints(dir)
		if bad, err := files.Quarantined(); err != nil || len(bad) != 1 || bad[0] != 2 {
			t.Fatalf("quarantined = %v (%v), want checkpoint 2", bad, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if seqs, err := files.List(); err != nil || len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 3 {
			t.Fatalf("checkpoints after Close = %v (%v), want the one that loaded and the new one", seqs, err)
		}
		if st := f.Stats(); st.Rebootstraps != 0 || st.PollsTotal != 0 {
			t.Fatalf("fallback should resume by position, not from the leader: %+v", st)
		}
	})
}
