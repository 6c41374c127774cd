package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExpAllGolden runs lbsim -exp all and compares its report byte for
// byte with testdata/exp-all.txt. Every experiment runs on the simulated
// clock from fixed seeds, so a changed byte is a changed outcome: a policy
// ranked differently, a fairness figure moved, or a replay (H7, H8) that
// is no longer identical. A change meant to move a table regenerates the
// file and says why:
//
//	go run ./cmd/lbsim -exp all -o cmd/lbsim/testdata/exp-all.txt
func TestExpAllGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "exp-all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "exp-all.txt")
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	args, stdout, commandLine := os.Args, os.Stdout, flag.CommandLine
	defer func() { os.Args, os.Stdout, flag.CommandLine = args, stdout, commandLine }()
	os.Args = []string{"lbsim", "-exp", "all", "-o", out}
	os.Stdout = devNull
	flag.CommandLine = flag.NewFlagSet("lbsim", flag.ContinueOnError)
	main()

	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("report differs from testdata/exp-all.txt at line %d:\n got %q\nwant %q", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("report has %d lines, testdata/exp-all.txt %d", len(gotLines), len(wantLines))
}
