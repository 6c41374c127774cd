package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/breaker"
	"repro/internal/core"
	"repro/internal/jaxr"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/repl"
	"repro/internal/rim"
	"repro/internal/wal"
)

// definedFlags reads the flag names off `regserver -h`.
func definedFlags(t *testing.T) []string {
	t.Helper()
	var usage bytes.Buffer
	if _, err := parse([]string{"-h"}, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("parse -h = %v, want flag.ErrHelp", err)
	}
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage.String(), -1) {
		names = append(names, m[1])
	}
	sort.Strings(names)
	return names
}

// TestFlagSet is the whole command line. A flag says where the process
// lives or whom it talks to, or something in the repository passes it; a
// new one edits this list and names who that is.
func TestFlagSet(t *testing.T) {
	want := []string{
		"addr",               // deployment; bench/harness.go
		"admission",          // bench/harness.go
		"data-dir",           // deployment; bench/harness.go
		"fsync",              // bench/harness.go
		"log-format",         // deployment: the log sink's format
		"log-level",          // bench/harness.go
		"period",             // the thesis's one administrator dial; bench/harness.go
		"policy",             // bench/harness.go
		"pprof",              // .claude/skills/verify: profiling a benchmark server
		"repl-dir",           // deployment; bench/harness.go
		"repl-follow",        // deployment: the peer; bench/harness.go
		"repl-leader",        // deployment: the role; bench/harness.go
		"snapshot-staleness", // bench/harness.go
		"trace-sample",       // bench/harness.go
	}
	if got := definedFlags(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("flags = %v\nwant    %v", got, want)
	}
}

// The argument vectors bench/harness.go builds (commonFlags, startLeader,
// startFollower, exec), with its run-time values filled in.
// TestHarnessFlagsAreDefined fails when they fall behind the harness.
var (
	harnessCommon = []string{
		"-policy", "filter",
		"-period", "1s",
		"-snapshot-staleness", "1s",
		"-fsync", "always",
		"-admission=true",
		"-trace-sample", "0",
		"-log-level", "error",
	}
	harnessLeader   = append([]string{"-addr", "127.0.0.1:9", "-data-dir", "/d/leader", "-repl-leader"}, harnessCommon...)
	harnessFollower = append([]string{"-addr", "127.0.0.1:9", "-repl-follow", "http://127.0.0.1:8", "-repl-dir", "/d/follower"}, harnessCommon...)
)

// TestHarnessArgsBuildTodaysConfig pins what the benchmark measures: the
// harness's leader and follower command lines configure the process
// value for value as they did while regserver had 54 flags. The expected
// literals are those flags' defaults at that commit, written out; they are
// deliberately not taken from the constants main.go now names.
func TestHarnessArgsBuildTodaysConfig(t *testing.T) {
	base := registry.Config{
		Policy:           core.PolicyFilter,
		CollectionPeriod: time.Second,
		Degraded:         core.DegradedEmpty,
		InvokeTimeout:    10 * time.Second,
		InvokeRetries:    1,
		RetryBackoff:     2 * time.Second,
		Breaker:          &breaker.Config{Threshold: 3, BaseBackoff: 50 * time.Second, MaxBackoff: 10 * time.Minute},
		SnapshotMaxAge:   time.Second,
		Fsync:            wal.FsyncAlways,
		// Sixteen admission flags, every one defaulting to 0.
		Admission: &admit.Config{},
	}
	leader := base
	leader.DataDir, leader.ReplLeader = "/d/leader", true
	follower := base
	follower.ReplFollowURL = "http://127.0.0.1:8"

	for _, tc := range []struct {
		name string
		args []string
		want options
	}{
		{"leader", harnessLeader, options{addr: "127.0.0.1:9", registry: leader}},
		{"follower", harnessFollower, options{
			addr:     "127.0.0.1:9",
			registry: follower,
			replDir:  "/d/follower",
			follower: repl.FollowerOptions{
				LeaderURL: "http://127.0.0.1:8",
				Seed:      1,
				Log:       wal.Options{Fsync: wal.FsyncAlways},
			},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parse(tc.args, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			// Loggers are compared by what they let through, then set
			// aside: -log-level error.
			loggers := []*slog.Logger{got.registry.Logger}
			if tc.want.follower.LeaderURL != "" {
				loggers = append(loggers, got.follower.Logger)
			}
			for _, l := range loggers {
				if l == nil || l.Enabled(context.Background(), slog.LevelWarn) || !l.Enabled(context.Background(), slog.LevelError) {
					t.Fatalf("logger %v does not log at exactly error and above", l)
				}
			}
			got.registry.Logger, got.follower.Logger = nil, nil
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("options differ from the parent's\n got %+v\nwant %+v\n(breaker got %+v want %+v)",
					got, tc.want, got.registry.Breaker, tc.want.registry.Breaker)
			}
		})
	}
}

// TestHarnessFlagsAreDefined reads bench/harness.go as text: `go test
// ./...` never enters the nested module, so a flag the harness passes and
// regserver no longer defines would otherwise show up only as every
// benchmark workload failing to boot. Every dash-word inside a []string
// literal there is a regserver argument.
func TestHarnessFlagsAreDefined(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "bench", "harness.go"))
	if err != nil {
		t.Fatal(err)
	}
	passed := map[string]bool{}
	for _, lit := range regexp.MustCompile(`\[\]string\{[^}]*\}`).FindAll(src, -1) {
		for name := range flagNames(string(lit)) {
			passed[name] = true
		}
	}

	defined := map[string]bool{}
	for _, name := range definedFlags(t) {
		defined[name] = true
	}
	for name := range passed {
		if !defined[name] {
			t.Errorf("bench/harness.go passes -%s, which regserver does not define", name)
		}
	}
	copied := flagNames(strings.Join(harnessLeader, "\n") + "\n" + strings.Join(harnessFollower, "\n"))
	if !reflect.DeepEqual(passed, copied) {
		t.Errorf("bench/harness.go passes %v, the vectors copied into this file pass %v: copy them again", passed, copied)
	}
}

// flagNames collects the dash-words of text, one word a line or quoted as
// in Go source, without the dash and any =value.
func flagNames(text string) map[string]bool {
	names := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)(?:^|")-([a-z-]+)`).FindAllStringSubmatch(text, -1) {
		names[m[1]] = true
	}
	return names
}

// TestParseRefusals: command lines that must not start a server, and what
// the refusal says.
func TestParseRefusals(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		says string
	}{
		{"follower without state dir", []string{"-repl-follow", "http://l"}, "-repl-follow requires -repl-dir"},
		{"follower with data dir", []string{"-repl-follow", "http://l", "-repl-dir", "r", "-data-dir", "d"}, "mutually exclusive"},
		// The stray word turns off everything behind it: at the parent this
		// served an in-memory registry that acknowledged writes.
		{"positional argument", []string{"-admission", "false", "-data-dir", "d"}, `unexpected argument "false"`},
		{"deleted flag", []string{"-flight-ring", "1"}, "flag provided but not defined: -flight-ring"},
		{"unknown policy", []string{"-policy", "round-robin"}, `unknown policy "round-robin"`},
		{"unknown fsync policy", []string{"-fsync", "sometimes"}, "sometimes"},
		{"unknown log level", []string{"-log-level", "loud"}, "loud"},
		// Values registry.New reads as something else: a non-positive
		// period as the 25 s default, a negative staleness or rate as 0.
		{"zero period", []string{"-period", "0"}, "-period 0s: the collection period must be positive"},
		{"negative period", []string{"-period", "-5s"}, "-period -5s"},
		{"negative staleness", []string{"-snapshot-staleness", "-1s"}, "-snapshot-staleness -1s: must not be negative"},
		{"negative sampling rate", []string{"-trace-sample", "-3"}, "-trace-sample -3: must not be negative"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			_, err := parse(tc.args, &stderr)
			if err == nil || errors.Is(err, flag.ErrHelp) {
				t.Fatalf("parse(%q) = %v, want a refusal", tc.args, err)
			}
			if !strings.Contains(stderr.String(), tc.says) {
				t.Fatalf("parse(%q) said %q, want it to mention %q", tc.args, stderr.String(), tc.says)
			}
		})
	}

	// A leader without a data directory parses; registry.New owns that rule.
	o, err := parse([]string{"-repl-leader"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := registry.New(o.registry); err == nil || !strings.Contains(err.Error(), "ReplLeader requires DataDir") {
		t.Fatalf("registry.New with -repl-leader and no -data-dir = %v, want a refusal", err)
	}
}

// child is one regserver process started by a test.
type child struct {
	cmd  *exec.Cmd
	base string        // http://host:port, learnt from the log
	logs *bytes.Buffer // stderr so far; read it only after done
	done chan struct{} // closed at stderr's EOF, i.e. once the process has exited
}

// boot starts the binary on a free port and returns once it says where it
// listens.
func boot(t *testing.T, bin string, args ...string) *child {
	t.Helper()
	c := &child{
		cmd:  exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-log-format", "json"}, args...)...),
		logs: &bytes.Buffer{},
		done: make(chan struct{}),
	}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.cmd.Process.Kill() }) // a no-op after a clean exit
	addr := make(chan string, 1)
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			c.logs.Write(sc.Bytes())
			c.logs.WriteByte('\n')
			var rec struct{ Msg, Addr string }
			if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Msg == "ebXML registry listening" {
				select {
				case addr <- rec.Addr:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		c.base = "http://" + a
	case <-c.done:
		t.Fatalf("regserver exited during boot:\n%s", c.logs)
	case <-time.After(30 * time.Second):
		t.Fatal("regserver did not say where it listens within 30s")
	}
	return c
}

// exit waits for the process to end and returns its exit code.
func (c *child) exit(t *testing.T) int {
	t.Helper()
	select {
	case <-c.done:
	case <-time.After(30 * time.Second):
		t.Fatal("regserver still running 30s after it was told to stop")
	}
	if err := c.cmd.Wait(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatal(err)
		}
		t.Logf("regserver: %v\n%s", err, c.logs)
		return ee.ExitCode()
	}
	return 0
}

// metric reads one unlabelled sample off /registry/metrics.
func (c *child) metric(t *testing.T, name string) float64 {
	t.Helper()
	resp, err := http.Get(c.base + "/registry/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scrape, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := scrape.Value(name, nil)
	if !ok {
		t.Fatalf("no %s on /registry/metrics", name)
	}
	return v
}

// TestBinary drives the built program the way an init system does.
func TestBinary(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "regserver")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// kill, docker stop and systemd send SIGTERM: it must run the same
	// shutdown as Ctrl-C — final checkpoint, sealed log — so that the next
	// boot has nothing to replay.
	t.Run("SIGTERM seals the log", func(t *testing.T) {
		dir := t.TempDir()
		first := boot(t, bin, "-data-dir", dir)
		conn := jaxr.Connect(first.base, http.DefaultClient)
		creds, _, err := conn.Register("gold", "gold123", rim.PersonName{FirstName: "Test"})
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Login(creds); err != nil {
			t.Fatal(err)
		}
		ids, err := conn.Submit(rim.NewOrganization("SDSU"))
		if err != nil {
			t.Fatal(err)
		}
		if err := first.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if code := first.exit(t); code != 0 {
			t.Fatalf("exit code after SIGTERM = %d, want 0", code)
		}

		second := boot(t, bin, "-data-dir", dir)
		if n := second.metric(t, "registry_wal_replay_records_total"); n != 0 {
			t.Errorf("second boot replayed %v records, want 0: the first did not checkpoint on its way out", n)
		}
		if _, err := jaxr.Connect(second.base, http.DefaultClient).GetObject(ids[0]); err != nil {
			t.Errorf("published object after restart: %v", err)
		}
		second.cmd.Process.Signal(syscall.SIGTERM)
		if code := second.exit(t); code != 0 {
			t.Errorf("second exit code = %d, want 0", code)
		}
	})

	t.Run("misuse exits 2", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "data")
		for _, tc := range []struct {
			args []string
			says string
		}{
			{[]string{"-admission", "false", "-data-dir", dir}, `unexpected argument "false"`},
			{[]string{"-flight-ring", "1"}, "flag provided but not defined: -flight-ring"},
			{[]string{"-period", "0", "-data-dir", dir}, "the collection period must be positive"},
		} {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			out, err := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...).CombinedOutput()
			cancel()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 {
				t.Errorf("regserver %q: %v, want exit status 2\n%s", tc.args, err, out)
			}
			if !strings.Contains(string(out), tc.says) {
				t.Errorf("regserver %q said %q, want it to mention %q", tc.args, out, tc.says)
			}
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("a refused command line left %s behind (stat: %v)", dir, err)
		}
	})
}
