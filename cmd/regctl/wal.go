package main

import (
	"fmt"
	"strings"

	"repro/internal/wal"
)

// runWAL implements `regctl wal inspect|dump <data-dir>`: offline,
// read-only debugging of a regserver durability directory. Neither
// subcommand truncates torn tails or takes locks, so they are safe to run
// against a live server's directory.
func runWAL(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: regctl wal inspect|dump <data-dir>")
	}
	sub, dir := args[0], args[1]
	switch sub {
	case "inspect":
		return walInspect(dir)
	case "dump":
		return walDump(dir)
	default:
		return fmt.Errorf("regctl: unknown wal subcommand %q (want inspect|dump)", sub)
	}
}

func walInspect(dir string) error {
	info, err := wal.Inspect(dir)
	if err != nil {
		return err
	}
	fmt.Printf("data dir: %s\n", info.Dir)
	fmt.Printf("segments: %d\n", len(info.Segments))
	for _, s := range info.Segments {
		line := fmt.Sprintf("  wal-%016d.seg  %d records, %d bytes", s.Index, s.Records, s.Bytes)
		if s.TornBytes > 0 {
			line += fmt.Sprintf("  (torn tail: %d bytes will be truncated on next boot)", s.TornBytes)
		}
		fmt.Println(line)
	}
	fmt.Printf("checkpoints: %d\n", len(info.Checkpoints))
	for _, c := range info.Checkpoints {
		switch {
		case c.Format == 0:
			fmt.Printf("  %s  %d bytes, INVALID: %s\n", c.Name, c.Bytes, c.Err)
		case c.Err != "":
			fmt.Printf("  %s  format %d, covers %s, %d bytes, INVALID after %d frames: %s\n",
				c.Name, c.Format, c.Covers, c.Bytes, c.Frames, c.Err)
		default:
			fmt.Printf("  %s  format %d, covers %s, %d frames, %d objects, %d bytes, crc ok\n",
				c.Name, c.Format, c.Covers, c.Frames, c.Objects, c.Bytes)
		}
	}
	for _, name := range info.Quarantined {
		fmt.Printf("  %s  quarantined by a recovery that could not read it; never deleted automatically\n", name)
	}
	return nil
}

// walDump lists the newest checkpoint's frames, then every log record.
func walDump(dir string) error {
	err := wal.DumpCheckpoint(dir, func(f wal.FrameInfo) error {
		fmt.Printf("%s  %-12s %5dB  %s\n", f.Checkpoint, f.Kind, f.Bytes, f.ID)
		return nil
	})
	if err != nil {
		// The records below are still worth reading.
		fmt.Printf("newest checkpoint unreadable past this point: %v\n", err)
	}
	return wal.Dump(dir, func(r wal.RecordInfo) error {
		var detail []string
		if len(r.PutIDs) > 0 {
			detail = append(detail, "put "+strings.Join(r.PutIDs, ", "))
		}
		if len(r.Deletes) > 0 {
			detail = append(detail, "delete "+strings.Join(r.Deletes, ", "))
		}
		if r.ContentPut != "" {
			detail = append(detail, "content put "+r.ContentPut)
		}
		if r.ContentDelete != "" {
			detail = append(detail, "content delete "+r.ContentDelete)
		}
		fmt.Printf("%s  %-12s %5dB  %s\n", r.Pos, r.Op, r.Bytes, strings.Join(detail, "; "))
		return nil
	})
}
