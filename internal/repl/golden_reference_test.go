package repl

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store/storetest"
)

// TestReplGoldenStateDirEncodesToTheSameBytes: the store this build resumes
// from the old state directory (golden_test.go) saves to the old build's
// bytes, but it saves most of its objects as the JSON it loaded or applied
// them from. Encoded afresh, every object by encoding/json
// (storetest.SaveReference), it must save to them too: what this build
// decoded from them encodes back to them.
func TestReplGoldenStateDirEncodesToTheSameBytes(t *testing.T) {
	golden := filepath.Join("testdata", "golden")
	want, err := os.ReadFile(filepath.Join(golden, "recovered.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	entries, err := os.ReadDir(filepath.Join(golden, "statedir"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(golden, "statedir", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	f := newFollower(t, dir, "http://leader.invalid", nil, func(o *FollowerOptions) { o.CheckpointBytes, o.CheckpointRecords = -1, -1 })
	defer f.Close()
	if f.Cold() {
		t.Fatal("the old state directory resumed cold")
	}
	var fresh bytes.Buffer
	if err := storetest.SaveReference(f.store, &fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), want) {
		t.Fatalf("the resumed store, encoded afresh, is %d bytes that differ from the %d the writing build saved", fresh.Len(), len(want))
	}
}
