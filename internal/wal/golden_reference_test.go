package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
	"repro/internal/store/storetest"
)

// TestGoldenDataDirEncodesToTheSameBytes: the store this build recovers from
// the old directory (golden_test.go) saves to the old build's bytes, but it
// saves most of its objects as the JSON it loaded or replayed them from. So
// it is also encoded afresh, every object by encoding/json
// (storetest.SaveReference), and that too must be the old build's bytes:
// what this build decoded from them encodes back to them. The store
// package's TestSaveMatchesTheEncoderFrames holds the appenders to the same
// encoding.
func TestGoldenDataDirEncodesToTheSameBytes(t *testing.T) {
	golden := filepath.Join("testdata", "golden")
	want, err := os.ReadFile(filepath.Join(golden, "recovered.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyDir(t, filepath.Join(golden, "datadir"), dir)
	s := store.New()
	d, err := OpenDurable(dir, s, DurableOptions{Log: Options{Fsync: FsyncNever}, CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.WAL().Close()
	var fresh bytes.Buffer
	if err := storetest.SaveReference(s, &fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), want) {
		t.Fatalf("the recovered store, encoded afresh, is %d bytes that differ from the %d the writing build saved", fresh.Len(), len(want))
	}
}
