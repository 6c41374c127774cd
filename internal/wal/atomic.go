package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes path by streaming into a temp file in the same
// directory, fsyncing, then renaming over path — a crash leaves either
// the old complete file or the new complete file, never a torn mix. This
// helper is the only sanctioned way to write checkpoint/snapshot files;
// TestWriteFileAtomic and make crashcheck hold it to that.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("wal: atomic write %s: %w", path, err)
	}
	committed := false
	defer func() {
		if !committed {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return fmt.Errorf("wal: atomic write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("wal: atomic write %s: sync: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("wal: atomic write %s: close: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("wal: atomic write %s: rename: %w", path, err)
	}
	committed = true
	// Persist the rename itself. Directory fsync is best-effort: some
	// filesystems refuse it, and the data file is already safe.
	if df, err := os.Open(dir); err == nil {
		df.Sync()
		df.Close()
	}
	return nil
}
