// Package leakcheck is a stdlib-only runtime goroutine-leak detector for
// tests: snapshot the live goroutines when the test starts, and at the end
// (via the returned closer) verify that every goroutine created since has
// exited. It is the repository's one check of goroutine lifetimes: every
// go statement in library code has a test that runs it under Check, so a
// spawn whose shutdown path is missing, or not taken, fails that test.
//
// Goroutines are identified by the id in their runtime.Stack header, so a
// pre-existing goroutine can never be misattributed to the test. Known
// system goroutines (the testing framework, runtime background workers,
// net/http's keep-alive connection pool, httptest's accept loop) are
// filtered: they live across tests by design. The closer retries with a
// short backoff before failing, since a goroutine observed mid-teardown
// may need a scheduler beat to finish unwinding.
package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/simclock"
)

// maxAttempts x backoff bounds how long the closer waits for goroutines
// to unwind before declaring a leak (~1s worst case).
const (
	maxAttempts = 20
	backoff     = 50 * time.Millisecond
)

// Check snapshots the current goroutines and returns a closer to defer:
// it fails t with the offending stacks if goroutines spawned during the
// test are still running when called.
func Check(t testing.TB) func() {
	t.Helper()
	before := make(map[string]bool)
	for _, g := range stacks() {
		before[g.id] = true
	}
	return func() {
		t.Helper()
		var leaked []goroutine
		for attempt := 0; attempt < maxAttempts; attempt++ {
			leaked = leaked[:0]
			for _, g := range stacks() {
				if before[g.id] || g.system() {
					continue
				}
				leaked = append(leaked, g)
			}
			if len(leaked) == 0 {
				return
			}
			simclock.Real{}.Sleep(backoff)
		}
		for _, g := range leaked {
			t.Errorf("leakcheck: goroutine leaked:\n%s", g.text)
		}
	}
}

// goroutine is one parsed stanza of a runtime.Stack(all=true) dump.
type goroutine struct {
	id   string // numeric id from the "goroutine N [state]:" header
	text string // full stanza including the header
}

// systemMarkers identify goroutines owned by the runtime, the testing
// framework, or shared process-lifetime pools — never by the code under
// test.
var systemMarkers = []string{
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*T).Run(",
	"created by runtime.",
	"runtime.ReadTrace",
	"signal.signal_recv",
	"os/signal.loop",
	// net/http's keep-alive pool: connections outlive a single test by
	// design and are reaped by the transport, not the test.
	"net/http.(*persistConn).readLoop",
	"net/http.(*persistConn).writeLoop",
	"created by net/http.(*Transport).dialConn",
}

func (g goroutine) system() bool {
	for _, m := range systemMarkers {
		if strings.Contains(g.text, m) {
			return true
		}
	}
	return false
}

// stacks dumps and parses all goroutine stacks. The buffer doubles until
// the dump fits, like pprof's writeGoroutineStacks.
func stacks() []goroutine {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []goroutine
	for _, stanza := range strings.Split(string(buf), "\n\n") {
		stanza = strings.TrimSpace(stanza)
		if !strings.HasPrefix(stanza, "goroutine ") {
			continue
		}
		header := stanza[len("goroutine "):]
		sp := strings.IndexByte(header, ' ')
		if sp < 0 {
			continue
		}
		out = append(out, goroutine{id: header[:sp], text: stanza})
	}
	return out
}
